"""Tests for the verdict pipeline, the vanishing-shape classifier, and the
exhaustive scans."""

from __future__ import annotations

import io
import json
import random
import tracemalloc

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
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
from ci_invariants import classify, topology
from ci_invariants.cli import main
from reference import chi_structure_sheaf, reduce_type


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
        monkeypatch.setattr(classify, "compute_invariants", vanishing_at_a_point)
        report = scan_theorem(4, 3)
        assert report.violations == (
            f"parity pattern violated for {BROKEN_LINE}: p_X(i) = 0+0i, p_F(i) = 0+0i",)
        assert report.counts["internal_check_failed"] == 1
        (rec,) = [rec for rec in report.records() if rec.ci == BROKEN_LINE]
        assert rec == Verdict(BROKEN_LINE, None)

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
        real = classify.theorem_verdict
        cubic = CIType(4, (3,))       # rationally connected, not homogeneous
        far = CIType(3, (2, 3))       # not rationally connected
        quadric = CIType(5, (2,))     # homogeneous of dimension 4
        wrong = {cubic: VerdictKind.HOMOGENEOUS_LINEAR,
                 far: VerdictKind.HOMOGENEOUS_QUADRIC,
                 quadric: VerdictKind.POINCARE_OBSTRUCTION}

        def misclassifying(ci):
            if ci in wrong:
                return Verdict(ci, wrong[ci])
            return real(ci)

        monkeypatch.setattr(classify, "theorem_verdict", misclassifying)
        report = scan_theorem(5, 3)
        assert report.violations == (
            f"non-homogeneous type passed every gate: {far}",
            f"non-homogeneous type passed every gate: {cubic}",
            f"homogeneous type failed a gate: {quadric}",
        )

    def test_every_type_is_re_verified(self, monkeypatch):
        # The d > n types are walked and classified one by one, not counted.
        real, calls = classify.theorem_verdict, []

        def counting(ci):
            calls.append(ci)
            return real(ci)

        monkeypatch.setattr(classify, "theorem_verdict", counting)
        report = scan_theorem(8, 4)
        assert len(calls) == report.types == 1286
        assert calls == list(iter_types(8, 4))

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

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            scan_theorem(0, 3)
        with pytest.raises(ValueError):
            scan_lemma(3, 0)


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
        # The scan runs the recurrence once per reduced multiset D, for a row
        # of chi over every k, and the checks once per class, on that chi.
        real_row, real_checks = classify.euler_characteristic_row, classify.compute_invariants
        real_chi = topology.euler_characteristic
        rows, checks, single = [], [], []

        def counting_row(reduced, max_k):
            rows.append((reduced, max_k))
            return real_row(reduced, max_k)

        def counting_checks(ci, chi=None):
            checks.append(ci)
            return real_checks(ci, chi)

        def counting_chi(ci):
            single.append(ci)
            return real_chi(ci)

        monkeypatch.setattr(classify, "euler_characteristic_row", counting_row)
        monkeypatch.setattr(classify, "compute_invariants", counting_checks)
        monkeypatch.setattr(topology, "euler_characteristic", counting_chi)
        report = scan_lemma(12, 6)
        assert report.types == 50387
        first_of_class, first_of_reduced = {}, {}
        for rec in report.records():
            n, degrees = reduce_type(rec.ci.ambient_dim, rec.ci.degrees)
            first_of_class.setdefault((n, degrees), rec.ci)
            first_of_reduced.setdefault(degrees, 12 - len(degrees))
        assert rows == list(first_of_reduced.items())
        assert len(rows) == 6188
        assert checks == list(first_of_class.values())
        assert len(checks) == len(first_of_class) == 18564
        assert single == []
        # The first type of a class is its reduced type, except for the
        # point, whose reduced type P^0 lies below the scan's n >= 1.
        assert [ci for ci in checks
                if reduce_type(ci.ambient_dim, ci.degrees) != (ci.ambient_dim, ci.degrees)
                ] == [CIType(1, (1,))]

    def test_records_equal_direct_computation(self):
        # The per-class shortcut, cross-checked type by type at scan scale.
        for rec in scan_lemma(10, 6).records():
            report = compute_invariants(rec.ci)
            case = lemma_classify(rec.ci, report)
            assert rec == LemmaRecord(rec.ci, report.middle_betti, report.value_at_i, case)

    def test_internal_check_failure_is_a_violation(self, monkeypatch):
        # The fault enters where chi becomes invariants, the step that both
        # scans share: the lemma scan passes each class its chi from the row.
        real = topology.compute_invariants
        bad = CIType(3, (3,))

        def wrong_for_one_type(ci, chi=None):
            return real(ci, -100 if ci == bad else chi)

        monkeypatch.setattr(classify, "compute_invariants", wrong_for_one_type)
        report = scan_lemma(4, 3)
        assert not report.ok
        assert len(report.violations) == 1
        assert "middle Betti number -102 < 1" in report.violations[0]
        assert str(bad) in report.violations[0]
        assert report.counts["internal_check_failed"] == 1
        (rec,) = [rec for rec in report.records() if rec.ci == bad]
        assert (rec.middle_betti, rec.value_at_i, rec.case) == (None, None, None)
        (line,) = [line for line in rendered(report, "table").splitlines()
                   if line.startswith("n=3 type=(3) ")]
        assert line.endswith("b_k=- p(i)=- case=internal_check_failed")
        (row,) = [row for row in csv_rows(report) if row[:2] == ["3", "3"]]
        assert row[3:] == ["-", "-", "internal_check_failed"]
        (entry,) = [e for e in json_object(report)["records"]
                    if e["n"] == "3" and e["degrees"] == ["3"]]
        assert entry["middle_betti"] is None and entry["p_at_i"] is None

    def test_smaller_scan_is_a_prefix(self):
        assert_smaller_scan_is_a_prefix(scan_lemma, 7, 3)

    def test_vanishing_excluded_shape_is_a_violation(self, monkeypatch):
        real = classify.compute_invariants
        cubic = CIType(4, (3,))   # excluded: an entry >= 3

        def vanishing_for_cubic(ci, chi=None):
            report = real(ci, chi)
            if ci == cubic:
                return report._replace(value_at_i=GaussianInteger(0, 0))
            return report

        monkeypatch.setattr(classify, "compute_invariants", vanishing_for_cubic)
        report = scan_lemma(4, 3)
        assert report.violations == (
            f"shape case nonvanishing disagrees with p(i) vanishing for {cubic}",
            f"excluded shape vanishes at i: {cubic}",
        )


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


def test_no_polynomial_on_the_scan_path(monkeypatch, capsys):
    # Only reading a report's ``poincare`` builds the dense polynomial.
    built = []
    real = topology.IntPolynomial

    def counting(coefficients):
        built.append(len(coefficients))
        return real(coefficients)

    monkeypatch.setattr(topology, "IntPolynomial", counting)
    assert scan_lemma(12, 6).ok and scan_theorem(14, 6).ok
    for fmt in ("table", "json", "csv"):
        assert main(["classify", "--n", "850", "--type", "2,5,6", "--format", fmt]) == 0
    assert built == []
    assert compute_invariants(CIType(5, (2,))).poincare.coefficients[4] == 2
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
