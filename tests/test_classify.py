"""Tests for the verdict pipeline, the vanishing-shape classifier, and the
exhaustive scans."""

from __future__ import annotations

import io
import json
import random
import time
import tracemalloc
from collections import Counter
from math import comb

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    InternalCheckError,
    LemmaCase,
    LemmaRecord,
    Verdict,
    VerdictKind,
    compute_invariants,
    iter_types,
    lemma_classify,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
    write_scans,
)
from ci_invariants import classify, cli, scan, topology
from ci_invariants.cli import main
from reference import chi_structure_sheaf


def rendered(report, fmt):
    """The text ``write_scans`` renders for this one report."""
    buffer = io.StringIO()
    write_scans([report], fmt, buffer)
    return buffer.getvalue()


def json_object(report):
    """A scan's JSON object, parsed back from its ``write_scans`` document."""
    (obj,) = json.loads(rendered(report, "json"))["scans"]
    return obj


def csv_rows(report):
    """The header and the rows of a scan's ``write_scans`` CSV, as cells."""
    return [line.split(",") for line in rendered(report, "csv").splitlines()]


def assert_smaller_scan_is_a_prefix(scan, max_n, max_degree):
    """A scan's records are in strictly increasing (n, l, degrees) order, and
    the scan one size down gives exactly its leading records and CSV rows."""
    full, smaller = scan(max_n, max_degree), scan(max_n - 1, max_degree)
    keys = [(r.ci.ambient_dim, r.ci.codimension, r.ci.degrees) for r in full.records()]
    assert keys == sorted(set(keys))
    head = [r for r in full.records() if r.ci.ambient_dim < max_n]
    assert tuple(smaller.records()) == tuple(head)
    assert csv_rows(smaller) == csv_rows(full)[:len(head) + 1]


class TestLemmaClassify:
    def test_linear_odd(self):
        assert lemma_classify(CIType(5, (1, 1))) is LemmaCase.LINEAR_ODD

    def test_quadric_odd(self):
        assert lemma_classify(CIType(4, (2,))) is LemmaCase.QUADRIC_ODD

    def test_quadric_2_mod_4(self):
        assert lemma_classify(CIType(3, (2,))) is LemmaCase.QUADRIC_2_MOD_4

    def test_cubic_surface_nonvanishing(self):
        ci = CIType(3, (3,))
        assert lemma_classify(ci) is LemmaCase.NONVANISHING
        assert compute_invariants(ci).value_at_i == GaussianInteger(-5, 0)

    def test_vanishing_iff_not_nonvanishing(self):
        for ci in iter_types(7, 4):
            case = lemma_classify(ci)
            vanishes = compute_invariants(ci).value_at_i.is_zero
            assert (case is not LemmaCase.NONVANISHING) == vanishes


class TestTheoremVerdict:
    def test_homogeneous_quadric(self):
        v = theorem_verdict(CIType(5, (1, 2)))
        assert v.kind is VerdictKind.HOMOGENEOUS_QUADRIC

    def test_poincare_obstruction_with_witnesses(self):
        v = theorem_verdict(CIType(4, (3,)))
        assert v.kind is VerdictKind.POINCARE_OBSTRUCTION
        assert v.p_x_at_i == GaussianInteger(0, -10)
        assert v.p_f_at_i == GaussianInteger(6, 0)

    def test_normal_bundle_obstruction(self):
        v = theorem_verdict(CIType(4, (2, 2)))  # d = 4 > n - 1 = 3
        assert v.kind is VerdictKind.NORMAL_BUNDLE_OBSTRUCTION

    def test_not_rationally_connected(self):
        v = theorem_verdict(CIType(4, (5,)))
        assert v.kind is VerdictKind.NOT_RATIONALLY_CONNECTED

    def test_rejects_point_ambient(self):
        with pytest.raises(ValueError):
            theorem_verdict(CIType(0))

    def test_pure_function_of_type(self):
        a = theorem_verdict(CIType(6, (3, 2)))
        b = theorem_verdict(CIType(6, (2, 3)))
        assert a == b

    def test_first_gate_agrees_with_chi_of_structure_sheaf(self):
        # A Fano type (d <= n) has chi(O_X) = 1 by Kodaira vanishing; for
        # d > n and k >= 1, h^(k,0) = h^0(K_X) >= 1 and chi(O_X) = 1 +
        # (-1)^k h^(k,0) != 1.  chi(O_X) comes from the reference series.
        assert chi_structure_sheaf(4, (5,)) == 0     # quintic threefold
        assert chi_structure_sheaf(3, (4,)) == 2     # quartic K3 surface
        assert chi_structure_sheaf(3, (3,)) == 1     # cubic surface
        assert chi_structure_sheaf(2, (3,)) == 0     # plane cubic curve
        checked = 0
        for ci in iter_types(10, 5):
            if ci.dimension < 1:
                continue
            chi_is_one = chi_structure_sheaf(ci.ambient_dim, ci.degrees) == 1
            kind = theorem_verdict(ci).kind
            assert chi_is_one == (kind is not VerdictKind.NOT_RATIONALLY_CONNECTED), ci
            checked += 1
        assert checked == 5005


class TestHomogeneousParity:
    """The parity pattern of p_X(i) and p_F(i) that ``theorem_verdict``
    checks on every homogeneous type reaching the Poincare gate."""

    def test_linear_exactly_one(self):
        verdict = theorem_verdict(CIType(5, (1, 1)))
        assert verdict.p_x_at_i.is_zero and not verdict.p_f_at_i.is_zero

    def test_quadric_odd_both(self):
        verdict = theorem_verdict(CIType(5, (1, 2)))
        assert verdict.p_x_at_i.is_zero and verdict.p_f_at_i.is_zero

    def test_quadric_even_exactly_one(self):
        verdict = theorem_verdict(CIType(6, (1, 2)))
        assert not verdict.p_x_at_i.is_zero and verdict.p_f_at_i.is_zero
        assert verdict.p_x_at_i == GaussianInteger(2, 0)

    def test_pattern_over_range(self):
        for n in range(1, 21):
            for ones in range(0, n):
                verdict = theorem_verdict(CIType(n, (1,) * ones))
                assert verdict.kind is VerdictKind.HOMOGENEOUS_LINEAR
                assert verdict.p_x_at_i.is_zero != verdict.p_f_at_i.is_zero
            for ones in range(0, n - 2):
                ci = CIType(n, (1,) * ones + (2,))
                verdict = theorem_verdict(ci)
                assert verdict.kind is VerdictKind.HOMOGENEOUS_QUADRIC
                both = verdict.p_x_at_i.is_zero and verdict.p_f_at_i.is_zero
                assert both == (ci.dimension % 2 == 1)

    def test_violation_is_a_scan_violation(self, monkeypatch):
        # The fault fails the class of lines ((), 1), so each of its four
        # types at 4/3 is a failed record, not only ``BROKEN_LINE``.
        monkeypatch.setattr(classify, "compute_invariants", vanishing_at_a_point)
        report = scan_theorem(4, 3)
        assert report.violations == (
            f"parity pattern violated for {BROKEN_LINE}: p_X(i) = 0+0i, p_F(i) = 0+0i",)
        assert report.counts["internal_check_failed"] == 4
        lines = [CIType(n, (1,) * (n - 1)) for n in range(1, 5)]
        assert [rec for rec in report.records() if rec.kind is None] == [
            Verdict(ci, None) for ci in lines]

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_violation_fails_classify(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(classify, "compute_invariants", vanishing_at_a_point)
        code = main(["classify", "--n", "4", "--type", "1,1,1", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == (f"internal check failed: parity pattern violated for {BROKEN_LINE}: "
                       "p_X(i) = 0+0i, p_F(i) = 0+0i\n")


#: A line, with p_X(i) = 0; its fiber of lines is a point, with p_F(i) = 1.
#: ``vanishing_at_a_point`` sets p_F(i) = 0, which breaks the linear pattern.
BROKEN_LINE = CIType(4, (1, 1, 1))


def vanishing_at_a_point(ci, chi=None):
    """``compute_invariants``, but the point (1,1,1) in P^3, the fiber of
    lines of ``BROKEN_LINE`` and of no other type, vanishes at i."""
    report = topology.compute_invariants(ci, chi)
    if ci == CIType(3, (1, 1, 1)):
        report = report._replace(value_at_i=GaussianInteger(0, 0))
    return report


#: A cubic threefold: rationally connected, not homogeneous, and stopped at
#: the Poincare gate, where p_X(i) and p_F(i) are both nonzero.
CUBIC_THREEFOLD = CIType(4, (3,))


def vanishing_for_the_cubic(ci, chi=None):
    """``compute_invariants``, but ``CUBIC_THREEFOLD`` vanishes at i, so it
    passes the Poincare gate although it reduces to neither () nor (2)."""
    report = topology.compute_invariants(ci, chi)
    if ci == CUBIC_THREEFOLD:
        report = report._replace(value_at_i=GaussianInteger(0, 0))
    return report


class TestNonHomogeneousSurvivor:
    """A type that passes every gate but is not homogeneous contradicts the
    classification, so ``theorem_verdict`` raises InternalCheckError."""

    MESSAGE = f"{CUBIC_THREEFOLD} passed every obstruction but does not reduce to () or (2)"

    def test_theorem_verdict_raises(self, monkeypatch):
        monkeypatch.setattr(classify, "compute_invariants", vanishing_for_the_cubic)
        with pytest.raises(InternalCheckError) as caught:
            theorem_verdict(CUBIC_THREEFOLD)
        assert str(caught.value) == self.MESSAGE

    def test_violation_is_a_scan_violation(self, monkeypatch):
        monkeypatch.setattr(classify, "compute_invariants", vanishing_for_the_cubic)
        report = scan_theorem(4, 3)
        assert report.violations == (self.MESSAGE,)
        assert report.counts["internal_check_failed"] == 1
        (rec,) = [rec for rec in report.records() if rec.ci == CUBIC_THREEFOLD]
        assert rec == Verdict(CUBIC_THREEFOLD, None)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_violation_fails_classify(self, capsys, monkeypatch, fmt):
        # The CLI computes the type's report itself and passes it on, so
        # the fault is injected there too.
        monkeypatch.setattr(classify, "compute_invariants", vanishing_for_the_cubic)
        monkeypatch.setattr(cli, "compute_invariants", vanishing_for_the_cubic)
        code = main(["classify", "--n", "4", "--type", "3", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"internal check failed: {self.MESSAGE}\n"


class TestDimensionLeq1Catalog:
    """The rationally connected (d <= n) types of dimension <= 1 among the
    records of ``scan_theorem(4, 3)``: every such type with n <= 4 has its
    degrees <= 3, so the scan holds all of them."""

    @staticmethod
    def verdicts():
        report = scan_theorem(4, 3)
        assert report.ok
        return {rec.ci: rec.kind for rec in report.records()}

    def catalog(self):
        return [ci for ci in self.verdicts()
                if ci.dimension <= 1 and ci.total_degree <= ci.ambient_dim]

    def test_lines_and_conics_only(self):
        catalog = self.catalog()
        for ci in catalog:
            reduced = tuple(d for d in ci.degrees if d > 1)
            assert reduced in ((), (2,))
        # P^1 itself, points, lines, conics all show up
        assert CIType(1) in catalog
        assert CIType(2, (2,)) in catalog        # conic in the plane
        assert CIType(3, (1, 2)) in catalog      # conic in P^3
        assert CIType(3, (1, 1)) in catalog      # line in P^3
        assert CIType(2, (1, 1)) in catalog      # a point

    def test_plane_cubic_excluded(self):
        cubic = CIType(2, (3,))  # d = 3 > 2
        assert self.verdicts()[cubic] is VerdictKind.NOT_RATIONALLY_CONNECTED
        assert cubic not in self.catalog()

    def test_elliptic_quartic_excluded(self):
        quartic = CIType(3, (2, 2))  # d = 4 > 3
        assert self.verdicts()[quartic] is VerdictKind.NOT_RATIONALLY_CONNECTED
        assert quartic not in self.catalog()

    def test_non_homogeneous_curve_is_a_violation(self, monkeypatch):
        # The scan re-checks the catalog: a rationally connected curve or
        # point whose shape is not homogeneous is a violation.
        real, conic = scan._is_homogeneous_shape, CIType(2, (2,))
        monkeypatch.setattr(scan, "_is_homogeneous_shape",
                            lambda ci: ci != conic and real(ci))
        assert scan_theorem(2, 2).violations == (
            f"dimension <= 1 rationally connected type is not a point/line/conic: {conic}",)


class TestReduced:
    @staticmethod
    def filtered(ci):
        return tuple(d for d in ci.degrees if d > 1)

    def test_slice_equals_filter_on_scanned_types(self):
        for ci in iter_types(10, 6):
            assert classify._reduced(ci) == self.filtered(ci)

    def test_slice_equals_filter_on_shuffled_degrees(self):
        rng = random.Random(2718)
        for _ in range(300):
            degrees = [rng.randint(1, 7) for _ in range(rng.randint(0, 9))]
            rng.shuffle(degrees)
            ci = CIType(len(degrees) + rng.randint(0, 3), tuple(degrees))
            assert classify._reduced(ci) == self.filtered(ci)


class TestIterTypes:
    def test_types_equal_validated_types(self):
        for ci in iter_types(10, 6):
            validated = CIType(ci.ambient_dim, ci.degrees)
            assert type(ci) is CIType
            assert ci == validated and hash(ci) == hash(validated)

    def test_runs_no_validation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CIType, "__new__", lambda cls, *args: calls.append(args))
        assert sum(1 for _ in iter_types(8, 4)) == 1286
        assert calls == []

    @pytest.mark.parametrize("bounds", [(0, 3), (3, 0), (True, 3), (3, 2.0), ("3", 3)])
    def test_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError):
            next(iter_types(*bounds))

    @pytest.mark.parametrize("bounds", [(0, 3), (3, True)])
    def test_rejects_bad_bounds_at_the_call(self, bounds):
        with pytest.raises(ValueError):
            iter_types(*bounds)


def assert_counts_are_the_records_outcomes(report):
    """A report's counts are its records' outcomes: every outcome of its
    scan in order, then the failed checks (None) if there are any."""
    outcomes = VerdictKind if report.kind == "theorem" else LemmaCase
    field = "kind" if report.kind == "theorem" else "case"
    tally = Counter(getattr(rec, field) for rec in report.records())
    failed = tally.pop(None, 0)
    names = [outcome.value for outcome in outcomes]
    assert list(report.counts) == names + ["internal_check_failed"] * bool(failed)
    assert Counter(report.counts) == Counter(
        {outcome.value: count for outcome, count in tally.items()},
        internal_check_failed=failed)
    assert sum(report.counts.values()) == report.types


class TestScanTheorem:
    def test_small_scan_clean(self):
        report = scan_theorem(5, 3)
        assert report.ok
        assert report.types == sum(1 for _ in iter_types(5, 3))
        for rec in report.records():
            reduced = tuple(d for d in rec.ci.degrees if d > 1)
            passed = rec.kind in (
                VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC
            )
            if passed:
                assert reduced in ((), (2,))

    def test_degenerate_scan(self):
        report = scan_theorem(1, 1)
        assert report.ok
        verdicts = {tuple(r.ci.degrees): r.kind for r in report.records()}
        assert verdicts[()] is VerdictKind.HOMOGENEOUS_LINEAR       # P^1 passes
        assert verdicts[(1,)] is VerdictKind.NORMAL_BUNDLE_OBSTRUCTION  # a point

    def test_counts_add_up(self):
        report = scan_theorem(4, 3)
        assert sum(report.counts.values()) == report.types

    def test_smaller_scan_is_a_prefix(self):
        assert_smaller_scan_is_a_prefix(scan_theorem, 8, 4)

    def test_reports_reproducible(self):
        a = scan_theorem(5, 3)
        b = scan_theorem(5, 3)
        assert a == b
        assert json.dumps(json_object(a)) == json.dumps(json_object(b))

    def test_records_equal_direct_computation(self):
        # The d > n records that records() rebuilds, cross-checked type by type.
        report = scan_theorem(10, 6)
        for ci, rec in zip(iter_types(10, 6), report.records(), strict=True):
            assert rec == theorem_verdict(ci)

    def test_wrong_verdicts_are_violations(self, monkeypatch):
        real = classify._verdict_fields
        cubic = CIType(4, (3,))       # rationally connected, not homogeneous
        far = CIType(3, (2, 3))       # not rationally connected
        quadric = CIType(5, (2,))     # homogeneous of dimension 4
        wrong = {cubic: VerdictKind.HOMOGENEOUS_LINEAR,
                 far: VerdictKind.HOMOGENEOUS_QUADRIC,
                 quadric: VerdictKind.POINCARE_OBSTRUCTION}

        def misclassifying(ci):
            if ci in wrong:
                return wrong[ci], None, None
            return real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", misclassifying)
        report = scan_theorem(5, 3)
        # The other types of the classes of ``far`` and ``cubic`` keep their
        # true verdicts, so each class differs at its next type and fails.
        assert report.violations == (
            f"homogeneous_quadric verdict contradicts total degree 5: {far}",
            f"non-homogeneous type passed every gate: {far}",
            f"non-homogeneous type passed every gate: {cubic}",
            f"verdict differs from its class: {CIType(4, (1, 2, 3))}",
            f"homogeneous type failed a gate: {quadric}",
            f"verdict differs from its class: {CIType(5, (1, 3))}",
        )

    def test_verdicts_against_the_degree_gates_are_violations(self, monkeypatch):
        # Not RC exactly when d > n, a normal-bundle obstruction exactly
        # when d = n: each of these kinds breaks one side of a gate.
        real = classify._verdict_fields
        wrong = {CIType(3, (2, 3)): VerdictKind.POINCARE_OBSTRUCTION,          # d > n
                 CIType(4, (3,)): VerdictKind.NOT_RATIONALLY_CONNECTED,      # d < n
                 CIType(4, (1, 3)): VerdictKind.POINCARE_OBSTRUCTION,        # d = n
                 CIType(5, (1, 3)): VerdictKind.NORMAL_BUNDLE_OBSTRUCTION}   # d < n

        def misclassifying(ci):
            if ci in wrong:
                return wrong[ci], None, None
            return real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", misclassifying)
        report = scan_theorem(5, 3)
        gates = [f"{kind.value} verdict contradicts total degree {ci.total_degree}: {ci}"
                 for ci, kind in wrong.items()]
        # Each wrong verdict also breaks its class: (1,3) in P^4 and P^5
        # differ from the first types of their classes, and (1,2,3) in P^4,
        # with its true verdict, from the wrong one of (2,3) in P^3.
        differs = [f"verdict differs from its class: {ci}"
                   for ci in (CIType(4, (1, 3)), CIType(4, (1, 2, 3)), CIType(5, (1, 3)))]
        assert report.violations == (gates[0], gates[1], differs[0], gates[2], differs[1],
                                     differs[2], gates[3])
        # The three classes fail, with every one of their types.
        failed = [CIType(3, (3,)), CIType(3, (2, 3)), CIType(4, (3,)), CIType(4, (1, 3)),
                  CIType(4, (1, 2, 3)), CIType(5, (1, 3)), CIType(5, (1, 1, 3)),
                  CIType(5, (1, 1, 2, 3))]
        assert [rec.ci for rec in report.records() if rec.kind is None] == failed
        assert report.counts["internal_check_failed"] == len(failed)

    def test_a_type_that_differs_from_its_class_fails_the_class(self, monkeypatch):
        # (1,3) in P^5 is a hyperplane section of the cubic threefold (3) in
        # P^4, the first type of its class ((3,), 3): a verdict with other
        # values at i passes every gate check but breaks the invariance,
        # and all three types of the class at 6/3 become failed records.
        real, section = classify._verdict_fields, CIType(5, (1, 3))
        kind = VerdictKind.POINCARE_OBSTRUCTION

        def misclassifying(ci):
            if ci == section:
                return kind, GaussianInteger(1, 0), GaussianInteger(1, 0)
            return real(ci)

        assert theorem_verdict(section).kind is kind
        monkeypatch.setattr(scan, "_verdict_fields", misclassifying)
        report = scan_theorem(6, 3)
        assert report.violations == (f"verdict differs from its class: {section}",)
        cubics = [CIType(4, (3,)), section, CIType(6, (1, 1, 3))]
        assert [rec for rec in report.records() if rec.kind is None] == [
            Verdict(ci, None) for ci in cubics]
        assert report.counts["internal_check_failed"] == 3
        assert_counts_are_the_records_outcomes(report)
        assert "\n5,1 3,4,3,internal_check_failed,-,-\n" in rendered(report, "csv")

    def test_every_type_is_re_verified(self, monkeypatch):
        # The d > n types are walked and classified one by one, not counted.
        real, calls = classify._verdict_fields, []

        def counting(ci):
            calls.append(ci)
            return real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", counting)
        report = scan_theorem(8, 4)
        assert len(calls) == report.types == 1286
        assert calls == list(iter_types(8, 4))

    def test_a_failure_inside_a_known_prefix(self, monkeypatch):
        # In the (6, 3) block the classes with |D| <= 2 are known: the
        # pipeline raises on (1,1,3), third of them, and misclassifies
        # (1,2,2), the fourth.  The per-type walk that follows reuses the
        # fields already computed, so the pipeline still runs once per type.
        real, calls = classify._verdict_fields, []
        raising, wrong = CIType(6, (1, 1, 3)), CIType(6, (1, 2, 2))

        def planted(ci):
            calls.append(ci)
            if ci == raising:
                raise InternalCheckError(f"planted failure for {raising}")
            if ci == wrong:
                return VerdictKind.HOMOGENEOUS_QUADRIC, None, None
            return real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", planted)
        report = scan_theorem(6, 3)
        assert calls == list(iter_types(6, 3))
        assert report.violations == (
            "planted failure for (1,1,3) in P^6",
            "verdict differs from its class: (1,2,2) in P^6",
            "non-homogeneous type passed every gate: (1,2,2) in P^6",
        )

    def test_failures_among_the_new_classes_of_a_block_with_2l_over_n(self, monkeypatch):
        # In the (3, 2) block the new classes are (2,2), (2,3) and (3,3),
        # each with d >= 4 > 3, and only those without the d > n fields are
        # walked: (2,2), the block's first new class, raises, and (2,3) has
        # a verdict of another kind, which only its own checks can catch at
        # max_n = 3.
        real = classify._verdict_fields
        raising, wrong = CIType(3, (2, 2)), CIType(3, (2, 3))

        def planted(ci):
            if ci == raising:
                raise InternalCheckError(f"planted failure for {raising}")
            if ci == wrong:
                return VerdictKind.HOMOGENEOUS_QUADRIC, None, None
            return real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", planted)
        report = scan_theorem(3, 3)
        assert report.violations == (
            f"planted failure for {raising}",
            f"homogeneous_quadric verdict contradicts total degree 5: {wrong}",
            f"non-homogeneous type passed every gate: {wrong}",
        )
        assert [rec for rec in report.records() if rec.kind is None] == [Verdict(raising, None)]
        kinds = {rec.ci: rec.kind for rec in report.records()}
        assert kinds[wrong] is VerdictKind.HOMOGENEOUS_QUADRIC
        assert kinds[CIType(3, (3, 3))] is VerdictKind.NOT_RATIONALLY_CONNECTED
        assert_counts_are_the_records_outcomes(report)

    def test_the_point_is_checked_with_the_fields_of_d_over_n(self, monkeypatch):
        # The (1, 1) block has 2l > n, but its first new class is the point
        # (1) in P^1, with d = n: the d > n fields, those of the new classes
        # that are not walked, must still fail its gate check.
        real, point = classify._verdict_fields, CIType(1, (1,))

        def planted(ci):
            return classify._NOT_RC_FIELDS if ci == point else real(ci)

        monkeypatch.setattr(scan, "_verdict_fields", planted)
        report = scan_theorem(1, 3)
        assert report.violations == (
            f"not_rationally_connected verdict contradicts total degree 1: {point}",)

    def test_internal_check_failure_is_a_kindless_verdict(self, monkeypatch):
        real = topology.euler_characteristic
        bad = CIType(4, (3,))  # reaches the Poincare gate; k = 3 is odd

        def wrong_for_one_type(ci):
            return 100 if ci == bad else real(ci)

        monkeypatch.setattr(topology, "euler_characteristic", wrong_for_one_type)
        report = scan_theorem(4, 3)
        assert len(report.violations) == 1
        assert "middle Betti number -96 < 0" in report.violations[0]
        assert report.counts["internal_check_failed"] == 1
        (rec,) = [rec for rec in report.records() if rec.ci == bad]
        assert rec == Verdict(bad, None)
        assert rec.reason == "an internal check failed for the type"
        assert "\n4,3,3,3,internal_check_failed,-,-\n" in rendered(report, "csv")

    # Both scans check their bounds before anything else runs.
    @pytest.mark.parametrize("scan", [scan_theorem, scan_lemma])
    @pytest.mark.parametrize("bounds", [("3", 6), (2.5, 6), (True, 2), (0, 6), (3, 0), (3, "6")],
                             ids=["str-n", "float-n", "bool-n", "zero-n", "zero-degree",
                                  "str-degree"])
    def test_rejects_bad_bounds(self, scan, bounds):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            scan(*bounds)


@pytest.mark.parametrize("scan", [scan_theorem, scan_lemma])
@pytest.mark.parametrize("bounds", [(21, 6), (2, 10**6)], ids=["21-6", "2-1000000"])
def test_oversized_scan_is_rejected_at_once(scan, bounds):
    # Past MAX_SCAN_TYPES a library scan raises the CLI's error before any
    # work: (2, 10**6) would otherwise allocate a table of 5 * 10**11
    # classes, and (21, 6) would walk 1,184,039 types.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=(
            f"^--max-n {bounds[0]} --max-degree {bounds[1]} spans more than "
            "MAX_SCAN_TYPES = 1,000,000 types$")):
        scan(*bounds)
    assert time.perf_counter() - start < 1


class TestScanLemma:
    def test_small_scan_clean(self):
        report = scan_lemma(6, 4)
        assert report.ok
        for rec in report.records():
            assert (rec.case is not LemmaCase.NONVANISHING) == rec.value_at_i.is_zero

    def test_two_quadrics_never_vanish(self):
        for k in range(0, 13):
            ci = CIType(k + 2, (2, 2))
            assert lemma_classify(ci) is LemmaCase.NONVANISHING
            expected = k + 1 if k % 2 else k + 4
            assert compute_invariants(ci).middle_betti == expected

    def test_degenerate_scan(self):
        report = scan_lemma(1, 2)
        assert report.ok
        vanishing = [r for r in report.records() if r.case is not LemmaCase.NONVANISHING]
        assert [v.ci for v in vanishing] == [CIType(1)]
        assert vanishing[0].case is LemmaCase.LINEAR_ODD

    def test_one_euler_characteristic_per_class(self, monkeypatch):
        # A class is a reduced type: its degrees >= 2 and its dimension k.
        # The scan walks the reduced multisets D by levels |D| = l: the
        # columns of D = () are b_k(P^k) = 1 - k mod 2, and each later
        # column (l, k) is one step from the parent level's column k, which
        # lists the C(l + 3, 4) multisets of length l - 1.  The checks run
        # over each column at C level, so ``compute_invariants`` runs only on the
        # classes of D = () and D = (2), which can vanish, in class order
        # (|D|, D, k).
        real_step = scan._level_column
        real_checks, real_chi = scan.compute_invariants, topology.euler_characteristic
        steps, checks, single = [], [], []

        def counting_step(parent, counts, degrees, previous, k):
            steps.append((len(parent), k))
            return real_step(parent, counts, degrees, previous, k)

        def counting_checks(ci, chi=None):
            checks.append(ci)
            return real_checks(ci, chi)

        def counting_chi(ci):
            single.append(ci)
            return real_chi(ci)

        monkeypatch.setattr(scan, "_level_column", counting_step)
        monkeypatch.setattr(scan, "compute_invariants", counting_checks)
        monkeypatch.setattr(topology, "euler_characteristic", counting_chi)
        report = scan_lemma(12, 6)
        assert report.ok and report.types == 50387
        assert steps == [(comb(l + 3, 4), k) for l in range(1, 13) for k in range(13 - l)]
        assert len(steps) == 78
        # The point is (1) in P^1: its reduced type P^0 lies below n >= 1.
        assert checks == [CIType(1, (1,)), *(CIType(k) for k in range(1, 13)),
                          *(CIType(k + 1, (2,)) for k in range(12))]
        assert single == []

    # 10/6 is at scan scale; at max_degree = 1 every block is a prefix of
    # one class, and at 1/60 the block (1, 1) holds the whole k = 0 row.
    @pytest.mark.parametrize("bounds", [(10, 6), (10, 1), (1, 60)],
                             ids=["10-6", "10-1", "1-60"])
    def test_records_equal_direct_computation(self, bounds):
        # The per-class shortcut, cross-checked type by type.
        report = scan_lemma(*bounds)
        for ci, rec in zip(iter_types(*bounds), report.records(), strict=True):
            invariants = compute_invariants(ci)
            case = lemma_classify(ci, invariants)
            assert rec == LemmaRecord(ci, invariants.middle_betti, invariants.value_at_i, case)

    def test_internal_check_failure_is_a_violation(self, plant_chi):
        # The fault enters the chi row of D = (3), where b_2 = -102 < 1
        # fails the row check, so the row's classes run the checks one by
        # one.  The class ((3,), 2) has two types at 4/3, (3) in P^3 and
        # (1,3) in P^4: its checks run once, on the first, and both records
        # fail.
        bad = CIType(3, (3,))
        plant_chi({((3,), 2): -100})
        report = scan_lemma(4, 3)
        assert not report.ok
        assert len(report.violations) == 1
        assert "middle Betti number -102 < 1" in report.violations[0]
        assert str(bad) in report.violations[0]
        assert report.counts["internal_check_failed"] == 2
        assert_counts_are_the_records_outcomes(report)
        for ci in (bad, CIType(4, (1, 3))):
            (rec,) = [rec for rec in report.records() if rec.ci == ci]
            assert (rec.middle_betti, rec.value_at_i, rec.case) == (None, None, None)
        (line,) = [line for line in rendered(report, "table").splitlines()
                   if line.startswith("n=3 type=(3) ")]
        assert line.endswith("b_k=- p(i)=- case=internal_check_failed")
        (row,) = [row for row in csv_rows(report) if row[:2] == ["3", "3"]]
        assert row[3:] == ["-", "-", "internal_check_failed"]
        (entry,) = [e for e in json_object(report)["records"]
                    if e["n"] == "3" and e["degrees"] == ["3"]]
        assert entry["middle_betti"] is None and entry["p_at_i"] is None

    def test_failed_head_class_is_counted(self, plant_chi):
        # b_2 = -102 < 1 fails the quadric surface's class ((2,), 2), one of
        # the first two classes of every block it is in, with its types
        # (2) in P^3 .. (1,1,1,2) in P^6.
        plant_chi({((2,), 2): -100})
        report = scan_lemma(6, 4)
        assert len(report.violations) == 1
        assert report.counts["internal_check_failed"] == 4
        assert_counts_are_the_records_outcomes(report)

    def test_smaller_scan_is_a_prefix(self):
        assert_smaller_scan_is_a_prefix(scan_lemma, 7, 3)

    # The leaf level, |D| = max_n, has one column, k = 0, which is never
    # held as a list: at 1/60 it is the whole level (7), at 4/3 the last of
    # five levels.
    @pytest.mark.parametrize("bounds, bad", [((1, 60), CIType(1, (7,))),
                                             ((4, 3), CIType(4, (2, 3, 3, 3)))], ids=str)
    def test_failure_in_the_leaf_level(self, plant_chi, bounds, bad):
        plant_chi({(bad.degrees, 0): -100})
        report = scan_lemma(*bounds)
        assert report.violations == (f"middle Betti number -100 < 1 for {bad}",)
        assert report.counts["internal_check_failed"] == 1
        assert_counts_are_the_records_outcomes(report)
        (rec,) = [rec for rec in report.records() if rec.case is None]
        assert rec == LemmaRecord(bad, None, None, None)

    def test_vanishing_excluded_shape_is_a_violation(self, plant_chi):
        cubic = CUBIC_THREEFOLD   # excluded: an entry >= 3
        plant_chi({((3,), 3): 4})  # b_3 = 3 + 1 - 4 = 0
        report = scan_lemma(4, 3)
        assert report.violations == (
            f"shape case nonvanishing disagrees with p(i) vanishing for {cubic}",
            f"excluded shape vanishes at i: {cubic}",
        )

    def test_vanishing_at_k_2_mod_4_is_a_violation(self, plant_chi):
        # p(i) = 2 - b_k at k = 2 mod 4: b_2 = 2 on the cubic surface, an
        # excluded shape, fails the row check and then both per-class checks.
        surface = CIType(3, (3,))
        plant_chi({((3,), 2): 4})  # b_2 = 4 - 2
        report = scan_lemma(4, 3)
        assert report.violations == (
            f"shape case nonvanishing disagrees with p(i) vanishing for {surface}",
            f"excluded shape vanishes at i: {surface}",
        )
        assert report.counts["internal_check_failed"] == 2

    def test_a_failed_column_check_fails_its_class(self, monkeypatch, plant_chi):
        # b_2 = 0 < 1 on the cubic surface fails its column check.  With the
        # b_k >= delta_k check of ``compute_invariants`` skipped, p(i) = 2 is
        # nonvanishing and no per-class check names the class, which still
        # fails: both of its types at 4/3 are failed records.
        def unchecked(ci, chi):
            k = ci.dimension
            b = k + 1 - chi if k % 2 else chi - k
            return topology.InvariantReport(ci, chi, b, topology._value_at_i(k, b))

        surface = CIType(3, (3,))
        monkeypatch.setattr(scan, "compute_invariants", unchecked)
        plant_chi({((3,), 2): 2})  # b_2 = 2 - 2
        report = scan_lemma(4, 3)
        assert not report.ok
        assert report.violations == (f"b_k = 0 fails its column check: {surface}",)
        assert report.counts["internal_check_failed"] == 2
        assert_counts_are_the_records_outcomes(report)
        for ci in (surface, CIType(4, (1, 3))):
            (rec,) = [rec for rec in report.records() if rec.ci == ci]
            assert rec == LemmaRecord(ci, None, None, None)


class _NullStream(io.TextIOBase):
    def write(self, text):
        return len(text)


class TestScanRecords:
    @pytest.mark.parametrize("scan", [scan_theorem, scan_lemma])
    def test_records_are_rebuilt_and_reports_compare_by_value(self, scan):
        report = scan(6, 4)
        first, second = tuple(report.records()), tuple(report.records())
        assert first == second
        assert report.types == len(first) == sum(1 for _ in iter_types(6, 4))
        assert report == scan(6, 4)
        assert report != scan(5, 4) and report != scan(6, 3)

    # At 1/60 the block (1, 1) holds the whole k = 0 row, at 10/1 every
    # block is one class, and 12/6 is at scan scale.
    @pytest.mark.parametrize("scan", [scan_theorem, scan_lemma])
    @pytest.mark.parametrize("bounds", [(1, 60), (10, 1), (6, 4), (12, 6)],
                             ids=["1-60", "10-1", "6-4", "12-6"])
    def test_counts_are_the_records_outcomes(self, scan, bounds):
        assert_counts_are_the_records_outcomes(scan(*bounds))

    def test_memory_is_bounded_by_the_tables(self):
        # Holding one record per type, both 10/6 scans and their document
        # peaked at 13.4 MB; the reports keep only the per-class tables.
        tracemalloc.start()
        try:
            write_scans([scan_theorem(10, 6), scan_lemma(10, 6)], "json", _NullStream())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("scan", [scan_theorem, scan_lemma])
    def test_one_class_per_type_peaks_at_its_table(self, scan):
        # At max_n = 1 every type is its own class, so nothing but the table
        # may grow with the degree range: a pool of the 20,000 degrees adds
        # 0.76 MB, and a text per degree 1.2 MB.  Neither the first pass nor
        # the writer, in any format, may peak 0.25 MB over the table.
        tracemalloc.start()
        try:
            report = scan(1, 20_000)
            held, peak = tracemalloc.get_traced_memory()
            peaks = [peak]
            for fmt in ("json", "csv", "table"):
                tracemalloc.reset_peak()
                write_scans([report], fmt, _NullStream())
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.types == 20_001
        over = [peak - held for peak in peaks]
        assert max(over) < 2**18, over

    @pytest.fixture(scope="class")
    def lemma_table_held(self):
        # At max_n = 1 every type is its own class, so the held report
        # measures the table's cost per class.  One traced scan serves both
        # tests below.
        tracemalloc.start()
        try:
            report = scan_lemma(1, 50_000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return report.types, held

    def test_lemma_table_cost_per_class(self, lemma_table_held):
        # On Python 3.11.7 a table keyed by D held 380 B per class, the rows
        # grouped by length 257 B.
        types, held = lemma_table_held
        assert types == 50_001
        assert held < 320 * types

    def test_lemma_table_holds_only_b_k(self, lemma_table_held):
        # The table keeps one b_k per class, in a row per dimension k, with
        # no tuple, GaussianInteger or LemmaCase: on Python 3.11.7 it held
        # 40.7 B per class at max_n = 1, against 257 B for a fields tuple.
        types, held = lemma_table_held
        assert types == 50_001
        assert held < 100 * types


def test_no_polynomial_on_the_scan_path(monkeypatch, capsys):
    # Only reading a report's ``poincare`` builds the dense polynomial.
    built = []
    real = topology.InvariantReport.poincare.fget

    def counting(report):
        coefficients = real(report)
        built.append(len(coefficients))
        return coefficients

    monkeypatch.setattr(topology.InvariantReport, "poincare", property(counting))
    assert scan_lemma(12, 6).ok and scan_theorem(14, 6).ok
    for fmt in ("table", "json", "csv"):
        assert main(["classify", "--n", "850", "--type", "2,5,6", "--format", fmt]) == 0
    assert built == []
    assert compute_invariants(CIType(5, (2,))).poincare[4] == 2
    assert built == [9]


class TestScanReportSerialization:
    def test_csv_shape(self):
        report = scan_theorem(3, 2)
        header, *rows = csv_rows(report)
        assert header[0] == "n"
        assert all(len(row) == len(header) for row in rows)
        assert len(rows) == report.types

    def test_record_lines_one_per_type(self):
        report = scan_lemma(3, 2)
        lines = rendered(report, "table").splitlines()
        assert len(lines) == report.types
        assert all(line.startswith("n=") for line in lines)

    def test_summary_mentions_violations(self):
        report = scan_theorem(3, 2)
        summary = "\n".join(report.summary_lines())
        assert "violations=0" in summary
        assert "types=" in summary

    def test_json_integers_are_strings(self):
        report = scan_lemma(3, 2)
        obj = json_object(report)
        blob = json.dumps(obj)
        parsed = json.loads(blob)
        for rec, entry in zip(report.records(), parsed["records"]):
            assert int(entry["middle_betti"]) == rec.middle_betti
            assert int(entry["p_at_i"]["re"]) == rec.value_at_i.re
            assert int(entry["p_at_i"]["im"]) == rec.value_at_i.im
