"""Tests for the verdict pipeline, the vanishing-shape classifier, and the
exhaustive scans."""

from __future__ import annotations

import json

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    LemmaCase,
    VerdictKind,
    compute_invariants,
    dimension_leq1_catalog,
    homogeneous_parity_report,
    iter_types,
    lemma_classify,
    middle_betti,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
    vanishes_at_i,
)
from ci_invariants import topology


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
            assert (case is not LemmaCase.NONVANISHING) == vanishes_at_i(ci)


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


class TestHomogeneousParity:
    def test_linear_exactly_one(self):
        outcome = homogeneous_parity_report(CIType(5, (1, 1)))
        assert outcome.x_vanishes and not outcome.f_vanishes

    def test_quadric_odd_both(self):
        outcome = homogeneous_parity_report(CIType(5, (1, 2)))
        assert outcome.x_vanishes and outcome.f_vanishes

    def test_quadric_even_exactly_one(self):
        outcome = homogeneous_parity_report(CIType(6, (1, 2)))
        assert not outcome.x_vanishes and outcome.f_vanishes
        assert outcome.p_x_at_i == GaussianInteger(2, 0)

    def test_rejects_non_homogeneous(self):
        with pytest.raises(ValueError):
            homogeneous_parity_report(CIType(5, (3,)))

    def test_rejects_negative_fiber_dimension(self):
        with pytest.raises(ValueError):
            homogeneous_parity_report(CIType(3, (1, 1, 2)))

    def test_pattern_over_range(self):
        for n in range(1, 21):
            for ones in range(0, n):
                ci = CIType(n, (1,) * ones)
                out = homogeneous_parity_report(ci)
                assert out.x_vanishes != out.f_vanishes
            for ones in range(0, n - 2):
                ci = CIType(n, (1,) * ones + (2,))
                out = homogeneous_parity_report(ci)
                both = out.x_vanishes and out.f_vanishes
                assert both == (ci.dimension % 2 == 1)


class TestDimensionLeq1Catalog:
    def test_lines_and_conics_only(self):
        catalog = dimension_leq1_catalog(4)
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
        assert CIType(2, (3,)) not in dimension_leq1_catalog(4)  # d = 3 > 2

    def test_elliptic_quartic_excluded(self):
        assert CIType(3, (2, 2)) not in dimension_leq1_catalog(4)  # d = 4 > 3


class TestScanTheorem:
    def test_small_scan_clean(self):
        report = scan_theorem(5, 3)
        assert report.ok
        assert len(report.records) == sum(1 for _ in iter_types(5, 3))
        for rec in report.records:
            reduced = tuple(d for d in rec.ci.degrees if d > 1)
            passed = rec.verdict in (
                VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC
            )
            if passed:
                assert reduced in ((), (2,))

    def test_degenerate_scan(self):
        report = scan_theorem(1, 1)
        assert report.ok
        verdicts = {tuple(r.ci.degrees): r.verdict for r in report.records}
        assert verdicts[()] is VerdictKind.HOMOGENEOUS_LINEAR       # P^1 passes
        assert verdicts[(1,)] is VerdictKind.NORMAL_BUNDLE_OBSTRUCTION  # a point

    def test_counts_add_up(self):
        report = scan_theorem(4, 3)
        assert sum(report.counts.values()) == len(report.records)

    def test_parallel_matches_serial(self):
        serial = scan_theorem(8, 4, threads=1)
        parallel = scan_theorem(8, 4, threads=8)
        assert serial == parallel
        assert list(serial.csv_rows()) == list(parallel.csv_rows())

    def test_reports_reproducible(self):
        a = scan_theorem(5, 3)
        b = scan_theorem(5, 3)
        assert a == b
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            scan_theorem(0, 3)
        with pytest.raises(ValueError):
            scan_lemma(3, 0)


class TestScanLemma:
    def test_small_scan_clean(self):
        report = scan_lemma(6, 4)
        assert report.ok
        for rec in report.records:
            assert (rec.case is not LemmaCase.NONVANISHING) == rec.value_at_i.is_zero

    def test_two_quadrics_never_vanish(self):
        for k in range(0, 13):
            ci = CIType(k + 2, (2, 2))
            assert lemma_classify(ci) is LemmaCase.NONVANISHING
            expected = k + 1 if k % 2 else k + 4
            assert middle_betti(ci) == expected

    def test_degenerate_scan(self):
        report = scan_lemma(1, 2)
        assert report.ok
        vanishing = [r for r in report.records if r.case is not LemmaCase.NONVANISHING]
        assert [v.ci for v in vanishing] == [CIType(1)]
        assert vanishing[0].case is LemmaCase.LINEAR_ODD

    def test_one_euler_characteristic_per_type(self, monkeypatch):
        real = topology.euler_characteristic
        calls = []

        def counting(ci):
            calls.append(ci)
            return real(ci)

        monkeypatch.setattr(topology, "euler_characteristic", counting)
        report = scan_lemma(6, 4)
        assert calls == [rec.ci for rec in report.records]

    def test_internal_check_failure_is_a_violation(self, monkeypatch):
        real = topology.euler_characteristic
        bad = CIType(3, (3,))

        def wrong_for_one_type(ci):
            return -100 if ci == bad else real(ci)

        monkeypatch.setattr(topology, "euler_characteristic", wrong_for_one_type)
        report = scan_lemma(4, 3)
        assert not report.ok
        assert len(report.violations) == 1
        assert "negative middle Betti number" in report.violations[0]
        assert str(bad) in report.violations[0]
        assert report.counts["internal_check_failed"] == 1
        (rec,) = [rec for rec in report.records if rec.ci == bad]
        assert (rec.middle_betti, rec.value_at_i, rec.case) == (None, None, None)
        assert rec.line().endswith("b_k=- p(i)=- case=internal_check_failed")
        (row,) = [row for row in report.csv_rows() if row[:2] == ["3", "3"]]
        assert row[3:] == ["-", "-", "internal_check_failed"]
        (entry,) = [e for e in report.to_json_obj()["records"]
                    if e["n"] == "3" and e["degrees"] == ["3"]]
        assert entry["middle_betti"] is None and entry["p_at_i"] is None

    def test_parallel_matches_serial(self):
        serial = scan_lemma(7, 3, threads=1)
        parallel = scan_lemma(7, 3, threads=8)
        assert serial == parallel


class TestScanReportSerialization:
    def test_csv_shape(self):
        report = scan_theorem(3, 2)
        header = report.csv_header()
        rows = list(report.csv_rows())
        assert header[0] == "n"
        assert all(len(row) == len(header) for row in rows)
        assert len(rows) == len(report.records)

    def test_record_lines_one_per_type(self):
        report = scan_lemma(3, 2)
        lines = list(report.record_lines())
        assert len(lines) == len(report.records)
        assert all(line.startswith("n=") for line in lines)

    def test_summary_mentions_violations(self):
        report = scan_theorem(3, 2)
        summary = "\n".join(report.summary_lines())
        assert "violations=0" in summary
        assert "types=" in summary

    def test_json_integers_are_strings(self):
        report = scan_lemma(3, 2)
        obj = report.to_json_obj()
        blob = json.dumps(obj)
        parsed = json.loads(blob)
        for rec, entry in zip(report.records, parsed["records"]):
            assert int(entry["middle_betti"]) == rec.middle_betti
            assert int(entry["p_at_i"]["re"]) == rec.value_at_i.re
            assert int(entry["p_at_i"]["im"]) == rec.value_at_i.im
