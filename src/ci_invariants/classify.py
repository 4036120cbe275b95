"""Classification of complete intersection types by the convexity and
rational-connectedness obstructions, with exhaustive scans that re-verify
the classification over finite ranges.

The obstruction pipeline for a type in P^n with total degree d runs in a
fixed order:

  1. d > n           -> not rationally connected;
  2. d > n - 1       -> a line has a negative normal-bundle summand, so
                        some double cover of it is obstructed;
  3. otherwise       -> both p_X(i) and p_F(i) nonzero is fatal;
  4. survivors must reduce to () or (2), i.e. be a projective space or a
     quadric: both are homogeneous.

Scan bounds are a verification budget, not a completeness claim: the
classification holds for all types, the scans re-check it mechanically on
everything within the bounds.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .exact import GaussianInteger
from .lines import product_obstruction
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
    compute_invariants,
)


class LemmaCase(Enum):
    """The only shapes whose Poincare polynomial can vanish at i."""

    LINEAR_ODD = "linear_odd"            # type (1,...,1), k odd
    QUADRIC_ODD = "quadric_odd"          # type (1,...,1,2), k odd
    QUADRIC_2_MOD_4 = "quadric_2_mod_4"  # type (1,...,1,2), k = 2 mod 4
    NONVANISHING = "nonvanishing"


class VerdictKind(Enum):
    HOMOGENEOUS_LINEAR = "homogeneous_linear"
    HOMOGENEOUS_QUADRIC = "homogeneous_quadric"
    NOT_RATIONALLY_CONNECTED = "not_rationally_connected"
    NORMAL_BUNDLE_OBSTRUCTION = "normal_bundle_obstruction"
    POINCARE_OBSTRUCTION = "poincare_obstruction"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome for one type, with the witnessing numbers."""

    ci: CIType
    kind: VerdictKind
    reason: str
    p_x_at_i: GaussianInteger | None = None
    p_f_at_i: GaussianInteger | None = None


def _reduced(ci: CIType) -> tuple[int, ...]:
    return tuple(d for d in ci.degrees if d > 1)


def _is_homogeneous_shape(ci: CIType) -> bool:
    return _reduced(ci) in ((), (2,))


def lemma_classify(ci: CIType, report: InvariantReport | None = None) -> LemmaCase:
    """Match the type against the vanishing shapes, and verify on every call
    that the match agrees with the actual evaluation p(i) = 0.

    ``report`` is the type's ``compute_invariants`` result when the caller
    already has it; otherwise it is computed here.
    """
    k = ci.dimension
    reduced = _reduced(ci)
    if reduced == () and k % 2 == 1:
        case = LemmaCase.LINEAR_ODD
    elif reduced == (2,) and k % 2 == 1:
        case = LemmaCase.QUADRIC_ODD
    elif reduced == (2,) and k % 4 == 2:
        case = LemmaCase.QUADRIC_2_MOD_4
    else:
        case = LemmaCase.NONVANISHING
    if report is None:
        report = compute_invariants(ci)
    vanishes = report.value_at_i.is_zero
    if (case is not LemmaCase.NONVANISHING) != vanishes:
        raise InternalCheckError(
            f"shape case {case.value} disagrees with p(i) vanishing for {ci}"
        )
    return case


def theorem_verdict(ci: CIType) -> Verdict:
    """Run the obstruction pipeline on one type.

    A survivor whose reduced type is neither () nor (2) would contradict the
    classification; that raises InternalCheckError and must never happen.
    """
    n = ci.ambient_dim
    if n < 1:
        raise ValueError("classification requires ambient dimension >= 1")
    d = ci.total_degree
    if d > n:
        return Verdict(
            ci,
            VerdictKind.NOT_RATIONALLY_CONNECTED,
            f"total degree {d} exceeds ambient dimension {n}",
        )
    if d > n - 1:
        return Verdict(
            ci,
            VerdictKind.NORMAL_BUNDLE_OBSTRUCTION,
            f"line normal bundle has degree {n - d - 1} < 0, so a negative "
            "summand obstructs double covers of lines",
        )
    obstruction = product_obstruction(ci)
    if not obstruction.passes:
        return Verdict(
            ci,
            VerdictKind.POINCARE_OBSTRUCTION,
            f"p_X(i) = {obstruction.p_x_at_i} and p_F(i) = "
            f"{obstruction.p_f_at_i} are both nonzero",
            p_x_at_i=obstruction.p_x_at_i,
            p_f_at_i=obstruction.p_f_at_i,
        )
    reduced = _reduced(ci)
    if reduced == ():
        return Verdict(
            ci,
            VerdictKind.HOMOGENEOUS_LINEAR,
            "type reduces to a projective space",
            p_x_at_i=obstruction.p_x_at_i,
            p_f_at_i=obstruction.p_f_at_i,
        )
    if reduced == (2,):
        return Verdict(
            ci,
            VerdictKind.HOMOGENEOUS_QUADRIC,
            "type reduces to a quadric",
            p_x_at_i=obstruction.p_x_at_i,
            p_f_at_i=obstruction.p_f_at_i,
        )
    raise InternalCheckError(
        f"{ci} passed every obstruction but does not reduce to () or (2)"
    )


class ParityOutcome(NamedTuple):
    """Which of p_X(i), p_F(i) vanish for a homogeneous type."""

    p_x_at_i: GaussianInteger
    p_f_at_i: GaussianInteger
    x_vanishes: bool
    f_vanishes: bool


def homogeneous_parity_report(ci: CIType) -> ParityOutcome:
    """Evaluate both polynomials for a homogeneous type and verify the
    parity pattern: for (1,...,1) exactly one of the two vanishes; for
    (1,...,1,2) both vanish iff the dimension n - l is odd."""
    reduced = _reduced(ci)
    if reduced not in ((), (2,)):
        raise ValueError(f"{ci} is not a homogeneous (linear or quadric) type")
    obstruction = product_obstruction(ci)
    x_v = obstruction.p_x_at_i.is_zero
    f_v = obstruction.p_f_at_i.is_zero
    if reduced == ():
        ok = x_v != f_v
    elif ci.dimension % 2 == 1:
        ok = x_v and f_v
    else:
        ok = x_v != f_v
    if not ok:
        raise InternalCheckError(
            f"parity pattern violated for {ci}: p_X(i) = {obstruction.p_x_at_i}, "
            f"p_F(i) = {obstruction.p_f_at_i}"
        )
    return ParityOutcome(obstruction.p_x_at_i, obstruction.p_f_at_i, x_v, f_v)


def iter_types(max_n: int, max_degree: int) -> Iterator[CIType]:
    """All types with 1 <= n <= max_n, 0 <= l <= n and degrees in
    [1, max_degree], in canonical (n, l, lexicographic) order."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    for n in range(1, max_n + 1):
        yield from _iter_types_for_n(n, max_degree)


def _iter_types_for_n(n: int, max_degree: int) -> Iterator[CIType]:
    for l in range(n + 1):
        for degrees in combinations_with_replacement(range(1, max_degree + 1), l):
            yield CIType(n, degrees)


def _ascending_tuples(length: int, min_entry: int, budget: int) -> Iterator[tuple[int, ...]]:
    # sorted tuples with entries >= min_entry and sum <= budget
    if length == 0:
        yield ()
        return
    first = min_entry
    while first * length <= budget:
        for rest in _ascending_tuples(length - 1, first, budget - first):
            yield (first,) + rest
        first += 1


def dimension_leq1_catalog(max_n: int) -> list[CIType]:
    """All rationally connected candidates of dimension <= 1 (d <= n) with
    n <= max_n, verified to reduce to () or (2): points, lines, conics."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    catalog: list[CIType] = []
    for n in range(1, max_n + 1):
        for k in (0, 1):
            l = n - k
            if l < 0:
                continue
            for degrees in _ascending_tuples(l, 1, n):
                ci = CIType(n, degrees)
                if not _is_homogeneous_shape(ci):
                    raise InternalCheckError(
                        f"dimension <= 1 candidate {ci} does not reduce to () or (2)"
                    )
                catalog.append(ci)
    return catalog


@dataclass(frozen=True)
class TheoremRecord:
    """One scanned type with its verdict; the verdict is None only if an
    internal check failed for the type (recorded as a violation)."""

    ci: CIType
    verdict: VerdictKind | None
    p_x_at_i: GaussianInteger | None
    p_f_at_i: GaussianInteger | None

    def line(self) -> str:
        return (
            f"n={self.ci.ambient_dim} type=({_degree_text(self.ci)}) "
            f"d={self.ci.total_degree} k={self.ci.dimension} "
            f"verdict={_outcome_text(self.verdict)} "
            f"p_X(i)={_gauss_text(self.p_x_at_i)} p_F(i)={_gauss_text(self.p_f_at_i)}"
        )


@dataclass(frozen=True)
class LemmaRecord:
    """One scanned type with its middle Betti number, its Poincare value at
    i, and the vanishing case it falls in.  A field is None when an internal
    check failed before it was computed (recorded as a violation)."""

    ci: CIType
    middle_betti: int | None
    value_at_i: GaussianInteger | None
    case: LemmaCase | None

    def line(self) -> str:
        return (
            f"n={self.ci.ambient_dim} type=({_degree_text(self.ci)}) "
            f"k={self.ci.dimension} b_k={_int_text(self.middle_betti)} "
            f"p(i)={_gauss_text(self.value_at_i)} case={_outcome_text(self.case)}"
        )


def _degree_text(ci: CIType) -> str:
    return ",".join(str(d) for d in ci.degrees)


def _gauss_text(g: GaussianInteger | None) -> str:
    return str(g) if g is not None else "-"


def _int_text(value: int | None) -> str:
    return str(value) if value is not None else "-"


def _outcome_text(outcome: VerdictKind | LemmaCase | None) -> str:
    return outcome.value if outcome is not None else "internal_check_failed"


_THEOREM_COLUMNS = ["n", "degrees", "total_degree", "dimension", "verdict",
                    "p_x_at_i", "p_f_at_i"]
_LEMMA_COLUMNS = ["n", "degrees", "dimension", "middle_betti", "p_at_i", "case"]


@dataclass(frozen=True)
class ScanReport:
    """Deterministic result of an exhaustive scan: one record per type in
    canonical order, outcome counts, and any internal-check violations
    (always expected to be empty)."""

    kind: str
    max_n: int
    max_degree: int
    records: tuple[TheoremRecord, ...] | tuple[LemmaRecord, ...]
    counts: dict[str, int]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def csv_header(self) -> list[str]:
        return list(_THEOREM_COLUMNS if self.kind == "theorem" else _LEMMA_COLUMNS)

    def csv_rows(self) -> Iterator[list[str]]:
        for rec in self.records:
            ci = rec.ci
            degrees = " ".join(str(d) for d in ci.degrees)
            if self.kind == "theorem":
                yield [
                    str(ci.ambient_dim),
                    degrees,
                    str(ci.total_degree),
                    str(ci.dimension),
                    _outcome_text(rec.verdict),
                    _gauss_text(rec.p_x_at_i),
                    _gauss_text(rec.p_f_at_i),
                ]
            else:
                yield [
                    str(ci.ambient_dim),
                    degrees,
                    str(ci.dimension),
                    _int_text(rec.middle_betti),
                    _gauss_text(rec.value_at_i),
                    _outcome_text(rec.case),
                ]

    def record_lines(self) -> Iterator[str]:
        for rec in self.records:
            yield rec.line()

    def summary_lines(self) -> list[str]:
        lines = [
            f"scan={self.kind} max_n={self.max_n} max_degree={self.max_degree}",
            f"types={len(self.records)}",
        ]
        lines.extend(f"{name}={count}" for name, count in self.counts.items())
        lines.append(f"violations={len(self.violations)}")
        lines.extend(f"violation: {v}" for v in self.violations)
        return lines

    def to_json_obj(self) -> dict:
        obj: dict = {
            "scan": self.kind,
            "max_n": str(self.max_n),
            "max_degree": str(self.max_degree),
            "types": str(len(self.records)),
            "counts": {name: str(count) for name, count in self.counts.items()},
            "violations": list(self.violations),
            "records": [],
        }
        for rec in self.records:
            ci = rec.ci
            entry = {
                "n": str(ci.ambient_dim),
                "degrees": [str(d) for d in ci.degrees],
                "dimension": str(ci.dimension),
            }
            if self.kind == "theorem":
                entry["total_degree"] = str(ci.total_degree)
                entry["verdict"] = _outcome_text(rec.verdict)
                entry["p_x_at_i"] = _gauss_json(rec.p_x_at_i)
                entry["p_f_at_i"] = _gauss_json(rec.p_f_at_i)
            else:
                entry["middle_betti"] = (
                    str(rec.middle_betti) if rec.middle_betti is not None else None
                )
                entry["p_at_i"] = _gauss_json(rec.value_at_i)
                entry["case"] = _outcome_text(rec.case)
            obj["records"].append(entry)
        return obj


def _gauss_json(g: GaussianInteger | None) -> dict[str, str] | None:
    if g is None:
        return None
    return {"re": str(g.re), "im": str(g.im)}


def _validate_bounds(max_n: int, max_degree: int) -> None:
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        return 1
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return threads


def _run_partitioned(worker, max_n: int, threads: int):
    ns = range(1, max_n + 1)
    if threads == 1:
        return [worker(n) for n in ns]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, ns))


def _scan_theorem_slice(n: int, max_degree: int):
    records: list[TheoremRecord] = []
    violations: list[str] = []
    for ci in _iter_types_for_n(n, max_degree):
        verdict_kind: VerdictKind | None = None
        p_x = p_f = None
        try:
            verdict = theorem_verdict(ci)
            verdict_kind = verdict.kind
            p_x, p_f = verdict.p_x_at_i, verdict.p_f_at_i
        except InternalCheckError as exc:
            violations.append(str(exc))
        records.append(TheoremRecord(ci, verdict_kind, p_x, p_f))

        # Finite-scale re-statement of the classification itself.
        passed = verdict_kind in (
            VerdictKind.HOMOGENEOUS_LINEAR,
            VerdictKind.HOMOGENEOUS_QUADRIC,
        )
        homogeneous = _is_homogeneous_shape(ci)
        rc = ci.total_degree <= n
        if passed and not homogeneous:
            violations.append(f"non-homogeneous type passed every gate: {ci}")
        if rc and ci.dimension >= 2 and homogeneous and not passed:
            violations.append(f"homogeneous type failed a gate: {ci}")
        if rc and ci.dimension <= 1 and not homogeneous:
            violations.append(
                f"dimension <= 1 rationally connected type is not a "
                f"point/line/conic: {ci}"
            )
    return records, violations


def scan_theorem(max_n: int, max_degree: int, threads: int | None = None) -> ScanReport:
    """Classify every type within the bounds and re-verify the survivor set.

    Survivors of all gates must reduce to () or (2); conversely every
    rationally connected homogeneous-shaped type of dimension >= 2 must
    survive.  (In dimension <= 1 points and conics have total degree n and
    stop at the normal-bundle gate; lines survive.)
    """
    _validate_bounds(max_n, max_degree)
    threads = _resolve_threads(threads)
    results = _run_partitioned(
        lambda n: _scan_theorem_slice(n, max_degree), max_n, threads
    )
    records: list[TheoremRecord] = []
    violations: list[str] = []
    for recs, viols in results:
        records.extend(recs)
        violations.extend(viols)
    tally = Counter(_outcome_text(rec.verdict) for rec in records)
    counts = {kind.value: tally.get(kind.value, 0) for kind in VerdictKind}
    if "internal_check_failed" in tally:
        counts["internal_check_failed"] = tally["internal_check_failed"]
    return ScanReport(
        kind="theorem",
        max_n=max_n,
        max_degree=max_degree,
        records=tuple(records),
        counts=counts,
        violations=tuple(violations),
    )


def _scan_lemma_slice(n: int, max_degree: int):
    records: list[LemmaRecord] = []
    violations: list[str] = []
    for ci in _iter_types_for_n(n, max_degree):
        betti: int | None = None
        value: GaussianInteger | None = None
        case: LemmaCase | None = None
        try:
            report = compute_invariants(ci)
            betti, value = report.middle_betti, report.value_at_i
            case = lemma_classify(ci, report)
        except InternalCheckError as exc:
            violations.append(str(exc))
        records.append(LemmaRecord(ci, betti, value, case))

        # No type with an entry >= 3, or with two entries >= 2, may vanish.
        reduced = _reduced(ci)
        excluded = bool(reduced) and (reduced[-1] >= 3 or len(reduced) >= 2)
        if excluded and value is not None and value.is_zero:
            violations.append(f"excluded shape vanishes at i: {ci}")
    return records, violations


def scan_lemma(max_n: int, max_degree: int, threads: int | None = None) -> ScanReport:
    """Evaluate p(i) for every type within the bounds and verify that it
    vanishes exactly on the three allowed shapes and nowhere else."""
    _validate_bounds(max_n, max_degree)
    threads = _resolve_threads(threads)
    results = _run_partitioned(
        lambda n: _scan_lemma_slice(n, max_degree), max_n, threads
    )
    records: list[LemmaRecord] = []
    violations: list[str] = []
    for recs, viols in results:
        records.extend(recs)
        violations.extend(viols)
    tally = Counter(_outcome_text(rec.case) for rec in records)
    counts = {case.value: tally.get(case.value, 0) for case in LemmaCase}
    if "internal_check_failed" in tally:
        counts["internal_check_failed"] = tally["internal_check_failed"]
    return ScanReport(
        kind="lemma",
        max_n=max_n,
        max_degree=max_degree,
        records=tuple(records),
        counts=counts,
        violations=tuple(violations),
    )
