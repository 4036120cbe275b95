"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the wall-clock
budgets, which are asserted as stated.
"""

from __future__ import annotations

import io
import random
import time

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    LemmaCase,
    VerdictKind,
    chi22,
    compute_invariants,
    euler_characteristic,
    fiber_type,
    iter_types,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
    verify_expansion_identities,
    write_scans,
)
from ci_invariants.cli import MAX_K
from reference import (
    divisible_by_one_plus_t_squared,
    horner,
    horner_at_i,
    hypersurface_middle_betti,
    reduce_type,
    series_coefficient,
    truncated_product,
)

SCAN_MAX_N = 14
SCAN_MAX_DEGREE = 6


def middle_betti(ci: CIType) -> int:
    return compute_invariants(ci).middle_betti


def poincare_polynomial(ci: CIType) -> tuple[int, ...]:
    return compute_invariants(ci).poincare


def zero_at_i(p: tuple[int, ...]) -> bool:
    return horner_at_i(p) == (0, 0)


def announce(number: int, ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


@pytest.fixture(scope="module")
def theorem_report():
    start = time.perf_counter()
    report = scan_theorem(SCAN_MAX_N, SCAN_MAX_DEGREE)
    return report, time.perf_counter() - start


def test_criterion_1_hypersurface_closed_form_vs_series_route():
    start = time.perf_counter()
    ok = True
    for e in range(1, 11):
        for k in range(0, 41):
            closed = hypersurface_middle_betti(e, k)
            n = k + 1
            chi = series_coefficient((e,), n)
            if k == 0:
                via_series = e
            elif k % 2:
                via_series = (k + 1) - chi
            else:
                via_series = chi - k
            if closed != via_series:
                ok = False
            report = compute_invariants(CIType(n, (e,)))
            if report.middle_betti != closed or report.euler_char != chi:
                ok = False
    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 5.0,
             f"hypersurface closed form == series route == engine for e<=10, "
             f"k<=40 "
             f"({elapsed:.2f}s)")


def test_criterion_2_classical_anchors():
    ok = True

    # cubic surface (3) in P^3: derive via the series oracle, then compare
    chi = series_coefficient((3,), 3)
    ok &= chi == 9 and chi - 2 == 7
    report = compute_invariants(CIType(3, (3,)))
    ok &= report.euler_char == 9 and report.middle_betti == 7

    # quadric surface (2) in P^3
    ok &= series_coefficient((2,), 3) - 2 == 2
    report = compute_invariants(CIType(3, (2,)))
    ok &= report.middle_betti == 2 and report.value_at_i.is_zero

    # quadric fourfold (2) in P^5
    report = compute_invariants(CIType(5, (2,)))
    ok &= report.value_at_i == GaussianInteger(2, 0)

    # quintic threefold (5) in P^4: series route and closed form agree on 204
    chi = series_coefficient((5,), 4)
    ok &= (3 + 1) - chi == 204
    ok &= hypersurface_middle_betti(5, 3) == 204
    ok &= middle_betti(CIType(4, (5,))) == 204

    # cubic threefold (3) in P^4 and its fiber of six lines
    chi = series_coefficient((3,), 4)
    ok &= (3 + 1) - chi == 10
    ok &= middle_betti(CIType(4, (3,))) == 10
    fiber = fiber_type(CIType(4, (3,)))
    ok &= fiber == CIType(3, (1, 2, 3)) and middle_betti(fiber) == 6

    announce(2, ok, "classical anchor values, all exact")


def test_criterion_3_chi22_identity():
    start = time.perf_counter()
    ok = True
    for k in range(0, 201):
        value = chi22(k)  # raises if the sum disagrees with the closed form
        if value != (0 if k % 2 else 2 * (k + 2)):
            ok = False
    ok &= chi22(0) == 4 and chi22(1) == 0 and chi22(2) == 8
    elapsed = time.perf_counter() - start
    announce(3, ok and elapsed < 1.0,
             f"chi22 binomial sum == closed form for k<=200 ({elapsed:.2f}s)")


def test_criterion_4_expansion_identity():
    start = time.perf_counter()
    holds = list(verify_expansion_identities(MAX_K))
    elapsed = time.perf_counter() - start
    ok = len(holds) == MAX_K + 1 and all(holds)
    announce(4, ok and elapsed < 2.0,
             f"expansion identity exact for k<={MAX_K} ({elapsed:.2f}s)")


def test_criterion_5_lemma_scan():
    start = time.perf_counter()
    report = scan_lemma(SCAN_MAX_N, SCAN_MAX_DEGREE)
    elapsed = time.perf_counter() - start
    ok = report.ok
    for rec in report.records():
        vanishes = rec.value_at_i.is_zero
        if (rec.case is not LemmaCase.NONVANISHING) != vanishes:
            ok = False
        reduced = tuple(d for d in rec.ci.degrees if d > 1)
        k = rec.ci.dimension
        if rec.case is LemmaCase.LINEAR_ODD:
            ok &= reduced == () and k % 2 == 1
        elif rec.case is LemmaCase.QUADRIC_ODD:
            ok &= reduced == (2,) and k % 2 == 1
        elif rec.case is LemmaCase.QUADRIC_2_MOD_4:
            ok &= reduced == (2,) and k % 4 == 2
        # no degree >= 3 and no two degrees >= 2 among the vanishing types
        if vanishes and reduced and (reduced[-1] >= 3 or len(reduced) >= 2):
            ok = False
    announce(5, ok and elapsed < 60.0,
             f"lemma scan ({SCAN_MAX_N},{SCAN_MAX_DEGREE}): vanishing exactly on "
             f"the three shapes, {report.types} types, "
             f"{len(report.violations)} violations ({elapsed:.1f}s)")


def test_criterion_6_theorem_scan(theorem_report):
    report, elapsed = theorem_report
    ok = report.ok  # includes: the never-fire check fired zero times
    survivors = []
    for rec in report.records():
        passed = rec.kind in (
            VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC
        )
        reduced = tuple(d for d in rec.ci.degrees if d > 1)
        homogeneous = reduced in ((), (2,))
        rc = rec.ci.total_degree <= rec.ci.ambient_dim
        if passed:
            survivors.append(rec.ci)
            ok &= homogeneous
        # every rationally connected homogeneous-shaped type of dimension
        # >= 2 must survive; in dimension <= 1 points and conics have total
        # degree n and stop at the normal-bundle gate, lines survive
        if rc and homogeneous and rec.ci.dimension >= 2:
            ok &= passed
    ok &= len(survivors) > 0
    announce(6, ok and elapsed < 60.0,
             f"theorem scan ({SCAN_MAX_N},{SCAN_MAX_DEGREE}): "
             f"{len(survivors)} survivors, all reduce to () or (2), "
             f"{len(report.violations)} violations ({elapsed:.1f}s)")


def test_criterion_7_homogeneous_parity():
    start = time.perf_counter()
    ok = True
    for n in range(1, 31):
        for ones in range(0, n):  # type (1,...,1), fiber dimension >= 0
            verdict = theorem_verdict(CIType(n, (1,) * ones))
            ok &= verdict.kind is VerdictKind.HOMOGENEOUS_LINEAR
            ok &= verdict.p_x_at_i.is_zero != verdict.p_f_at_i.is_zero
        for ones in range(0, n - 2):  # type (1,...,1,2), fiber dimension >= 0
            ci = CIType(n, (1,) * ones + (2,))
            verdict = theorem_verdict(ci)
            ok &= verdict.kind is VerdictKind.HOMOGENEOUS_QUADRIC
            both = verdict.p_x_at_i.is_zero and verdict.p_f_at_i.is_zero
            ok &= both == (ci.dimension % 2 == 1)
    elapsed = time.perf_counter() - start
    announce(7, ok and elapsed < 5.0,
             f"parity of p_X(i), p_F(i) for homogeneous types, n<=30 "
             f"({elapsed:.2f}s)")


def test_criterion_8_property_suites():
    ok = True

    # divisibility-evaluation equivalence on scan-generated polynomials
    polys = []
    for ci in iter_types(8, 4):
        p = poincare_polynomial(ci)
        polys.append(p)
        if ci.ambient_dim - 1 - ci.total_degree >= 0:
            polys.append(poincare_polynomial(fiber_type(ci)))
    for p in polys:
        ok &= divisible_by_one_plus_t_squared(p) == zero_at_i(p)

    # ... and on 10^4 randomized polynomials
    rng = random.Random(271828)
    for _ in range(10_000):
        p = tuple(rng.randint(-99, 99) for _ in range(rng.randint(0, 41)))
        if rng.random() < 0.5:
            p = tuple(truncated_product(p, (1, 0, 1), len(p) + 1))
        ok &= divisible_by_one_plus_t_squared(p) == zero_at_i(p)

    # degree-1 reduction leaves every invariant unchanged
    for ci in iter_types(8, 4):
        if 1 not in ci.degrees:
            continue
        red = CIType(*reduce_type(ci.ambient_dim, ci.degrees))
        ok &= euler_characteristic(red) == euler_characteristic(ci)
        ok &= middle_betti(red) == middle_betti(ci)
        ok &= poincare_polynomial(red) == poincare_polynomial(ci)

    # permutation invariance of construction
    for degrees in [(3, 1, 2), (2, 2, 1, 4), (6, 5, 1)]:
        shuffled = list(degrees)
        rng.shuffle(shuffled)
        ok &= CIType(10, tuple(shuffled)) == CIType(10, degrees)
        ok &= (poincare_polynomial(CIType(10, tuple(shuffled)))
               == poincare_polynomial(CIType(10, degrees)))

    # p(-1) = chi and p(1) = Betti sum on every report in the range
    for ci in iter_types(8, 4):
        report = compute_invariants(ci)  # raises internally on violation
        coeffs = report.poincare
        ok &= horner(coeffs, -1) == report.euler_char
        k, b = ci.dimension, report.middle_betti
        ok &= horner(coeffs, 1) == (k + 1) + b - (1 if k % 2 == 0 else 0)

    announce(8, ok, "divisibility<->evaluation equivalence, reduction, "
                    "permutation, and p(+-1) properties")


def test_criterion_9_monotonicity_under_degree_raise():
    start = time.perf_counter()
    ok = True
    checks = 0
    for ci in iter_types(10, 6):
        base = middle_betti(ci)
        for value in sorted(set(ci.degrees)):
            if value >= 6:
                continue
            raised_degrees = list(ci.degrees)
            raised_degrees[raised_degrees.index(value)] = value + 1
            raised = CIType(ci.ambient_dim, tuple(raised_degrees))
            if middle_betti(raised) < base:
                ok = False
            checks += 1
    anchors = [middle_betti(CIType(3, (e,))) for e in (2, 3, 4)]
    ok &= anchors == [2, 7, 22]
    elapsed = time.perf_counter() - start
    announce(9, ok,
             f"middle Betti non-decreasing under raising one degree, "
             f"{checks} checks over n<=10, degrees<=6 ({elapsed:.1f}s)")


def test_criterion_10_determinism(theorem_report):
    report, _ = theorem_report
    again = scan_theorem(SCAN_MAX_N, SCAN_MAX_DEGREE)
    smaller = scan_theorem(SCAN_MAX_N - 1, SCAN_MAX_DEGREE)

    def csv_text(scan):
        buffer = io.StringIO()
        write_scans([scan], "csv", buffer)
        return buffer.getvalue()

    # Identical scans give identical reports and byte-identical CSV.
    full = csv_text(report)
    ok = report == again and full == csv_text(again)
    ok &= report.summary_lines() == again.summary_lines()
    # Records come out in strictly increasing canonical order.
    keys = [(rec.ci.ambient_dim, rec.ci.codimension, rec.ci.degrees)
            for rec in report.records()]
    ok &= all(a < b for a, b in zip(keys, keys[1:]))
    # A smaller scan reproduces exactly the rows of its own types.
    header, *rows = full.splitlines(keepends=True)
    head = header + "".join(
        row for row in rows if int(row.split(",", 1)[0]) <= SCAN_MAX_N - 1)
    ok &= csv_text(smaller) == head
    announce(10, ok,
             f"repeated {SCAN_MAX_N}/{SCAN_MAX_DEGREE} scans byte-identical, "
             f"records in canonical order, {SCAN_MAX_N - 1}/{SCAN_MAX_DEGREE} "
             f"scan rows byte-identical to the n <= {SCAN_MAX_N - 1} rows")
