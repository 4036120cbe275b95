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
everything within the bounds.  Each scan walks the types serially, in
canonical (n, l, degrees) order.  Degree-1 entries only lower the ambient
space, so the lemma scan keys its table by the reduced multiset D, the
degrees >= 2: one run of the recurrence per D gives a row of chi for
every dimension k, and the invariants and their cross-checks run once per
class (D, k), on that chi, not once per type.

Each scan makes two passes.  The first walks the types, runs every check
and keeps only the counts, the violations and a small table: the verdicts
not decided by the d > n gate, or the lemma scan's rows per D, holding
each class's fields.  A ``ScanReport`` is plain data: those results, the
number of types, and that table as its ``table`` field, whose layout is
not a contract.  The second pass, ``ScanReport.rows``, run each time the
scan is written or its records are read, re-walks the types and yields
one row per type, the type's n, k, degrees and degree strings with its
fields from the table; no check is re-run, so a scan's memory grows with
its classes and its d <= n verdicts, not with the types.

``write_scans`` is the one scan writer: it renders each row straight to
the stream, in exactly the layout of ``json.dump(..., indent=2)`` for
JSON, and builds no record.  Records, ``Verdict``s for the theorem scan
and ``LemmaRecord``s for the lemma scan, are built only by the generator
``ScanReport.records``, which wraps the same rows.  A record does not
render itself, except ``Verdict.csv_row``: the single-type ``classify
--format csv`` row, through the scan's CSV row renderer.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from enum import Enum
from itertools import chain, combinations_with_replacement, count, repeat, starmap
from typing import Iterator, Sequence, TextIO

from .exact import GaussianInteger
from .lines import ProductObstruction, product_obstruction
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
    _unchecked_type,
    compute_invariants,
    euler_characteristic_row,
)


class LemmaCase(Enum):
    """The only shapes whose Poincare polynomial can vanish at i."""

    LINEAR_ODD = "linear_odd"            # type (1,...,1), k odd
    QUADRIC_ODD = "quadric_odd"          # type (1,...,1,2), k odd
    QUADRIC_2_MOD_4 = "quadric_2_mod_4"  # type (1,...,1,2), k = 2 mod 4
    NONVANISHING = "nonvanishing"

    # Members are singletons; the lemma scan tallies one per type.
    __hash__ = object.__hash__


class VerdictKind(Enum):
    HOMOGENEOUS_LINEAR = "homogeneous_linear"
    HOMOGENEOUS_QUADRIC = "homogeneous_quadric"
    NOT_RATIONALLY_CONNECTED = "not_rationally_connected"
    NORMAL_BUNDLE_OBSTRUCTION = "normal_bundle_obstruction"
    POINCARE_OBSTRUCTION = "poincare_obstruction"

    # Members are singletons, looked up once per scanned type.
    __hash__ = object.__hash__


def _reduced(ci: CIType) -> tuple[int, ...]:
    # ``degrees`` is sorted ascending, so its degree-1 entries lead.
    return ci.degrees[ci.degrees.count(1):]


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


def theorem_verdict(ci: CIType, obstruction: ProductObstruction | None = None) -> Verdict:
    """Run the obstruction pipeline on one type and return the first gate's
    verdict.  The two degree gates carry no values at i; the Poincare gate
    and the survivors carry p_X(i) and p_F(i).  The verdict's ``reason`` is
    derived from these fields when it is read, so no text is built here.

    ``obstruction`` is the type's ``product_obstruction`` result when the
    caller already has it; otherwise the Poincare gate computes it.

    A survivor whose reduced type is neither () nor (2) would contradict the
    classification; that raises InternalCheckError and must never happen.
    """
    n = ci.ambient_dim
    if n < 1:
        raise ValueError("classification requires ambient dimension >= 1")
    d = ci.total_degree
    if d > n:
        return Verdict(ci, VerdictKind.NOT_RATIONALLY_CONNECTED)
    if d > n - 1:
        return Verdict(ci, VerdictKind.NORMAL_BUNDLE_OBSTRUCTION)
    if obstruction is None:
        obstruction = product_obstruction(ci)
    if not obstruction.passes:
        kind = VerdictKind.POINCARE_OBSTRUCTION
    else:
        reduced = _reduced(ci)
        if reduced == ():
            kind = VerdictKind.HOMOGENEOUS_LINEAR
        elif reduced == (2,):
            kind = VerdictKind.HOMOGENEOUS_QUADRIC
        else:
            raise InternalCheckError(
                f"{ci} passed every obstruction but does not reduce to () or (2)"
            )
    return Verdict(ci, kind, obstruction.p_x_at_i, obstruction.p_f_at_i)


class ParityOutcome(namedtuple("ParityOutcome", "p_x_at_i p_f_at_i x_vanishes f_vanishes")):
    """Which of p_X(i), p_F(i) vanish for a homogeneous type."""

    __slots__ = ()


def homogeneous_parity_report(
    ci: CIType, obstruction: ProductObstruction | None = None
) -> ParityOutcome:
    """Evaluate both polynomials for a homogeneous type and verify the
    parity pattern: for (1,...,1) exactly one of the two vanishes; for
    (1,...,1,2) both vanish iff the dimension n - l is odd.

    ``obstruction`` is the type's ``product_obstruction`` result when the
    caller already has it; otherwise it is computed here."""
    reduced = _reduced(ci)
    if reduced not in ((), (2,)):
        raise ValueError(f"{ci} is not a homogeneous (linear or quadric) type")
    if obstruction is None:
        obstruction = product_obstruction(ci)
    x_v = obstruction.p_x_at_i.is_zero
    f_v = obstruction.p_f_at_i.is_zero
    if reduced and ci.dimension % 2 == 1:
        ok = x_v and f_v
    else:
        ok = x_v != f_v
    if not ok:
        raise InternalCheckError(
            f"parity pattern violated for {ci}: p_X(i) = {obstruction.p_x_at_i}, "
            f"p_F(i) = {obstruction.p_f_at_i}"
        )
    return ParityOutcome(obstruction.p_x_at_i, obstruction.p_f_at_i, x_v, f_v)


def _type_pairs(max_n: int, max_degree: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The (n, degrees) of every type ``iter_types`` yields, in its order.
    The bounds are checked at the call, not at the first ``next()``."""
    for name, bound in (("max_n", max_n), ("max_degree", max_degree)):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {bound!r}")
    degree_range = range(1, max_degree + 1)
    return ((n, degrees)
            for n in range(1, max_n + 1)
            for l in range(n + 1)
            for degrees in combinations_with_replacement(degree_range, l))


def iter_types(max_n: int, max_degree: int) -> Iterator[CIType]:
    """All types with 1 <= n <= max_n, 0 <= l <= n and degrees in
    [1, max_degree], in canonical (n, l, lexicographic) order.  The bounds
    must be ints >= 1 and are checked at the call; the tuples generated are
    sorted, of ints >= 1 and of length l <= n, so they skip ``CIType``'s
    validation."""
    return starmap(_unchecked_type, _type_pairs(max_n, max_degree))


#: ``_NEWLINE[depth]`` starts a line at ``depth`` levels of the two-space
#: indentation that ``json.dump(..., indent=2)`` uses.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))

#: Depths of a scan object and of a record object in the scan document
#: {"scans": [{..., "records": [{...}]}]}.
_SCAN_DEPTH = 2
_RECORD_DEPTH = _SCAN_DEPTH + 2


def _json_container(open_: str, items: list[str], close: str, depth: int) -> str:
    """A JSON array or object of already rendered items, laid out exactly as
    ``json.dumps(..., indent=2)`` lays out a container at ``depth``."""
    if not items:
        return open_ + close
    inner = _NEWLINE[depth + 1]
    return open_ + inner + ("," + inner).join(items) + _NEWLINE[depth] + close


#: Pieces of a record's JSON text: each record object is one %-template,
#: and the arrays and objects nested in it sit one level deeper.
_DEGREES_OPEN = "[" + _NEWLINE[_RECORD_DEPTH + 2] + '"'
_DEGREES_SEP = '",' + _NEWLINE[_RECORD_DEPTH + 2] + '"'
_DEGREES_CLOSE = '"' + _NEWLINE[_RECORD_DEPTH + 1] + "]"
_GAUSS_JSON = _json_container(
    "{", ['"re": "%d"', '"im": "%d"'], "}", _RECORD_DEPTH + 1)
_VERDICT_JSON = _json_container("{", [
    '"n": "%d"', '"degrees": %s', '"dimension": "%d"', '"total_degree": "%d"',
    '"verdict": "%s"', '"p_x_at_i": %s', '"p_f_at_i": %s',
], "}", _RECORD_DEPTH)
_LEMMA_JSON = _json_container("{", [
    '"n": "%d"', '"degrees": %s', '"dimension": "%d"', '"middle_betti": %s',
    '"p_at_i": %s', '"case": "%s"',
], "}", _RECORD_DEPTH)


def _json_degrees(texts: tuple[str, ...]) -> str:
    if not texts:
        return "[]"
    return _DEGREES_OPEN + _DEGREES_SEP.join(texts) + _DEGREES_CLOSE


def _json_gauss(g: GaussianInteger | None) -> str:
    return "null" if g is None else _GAUSS_JSON % (g.re, g.im)


def _text(value: int | GaussianInteger | None) -> str:
    return str(value) if value is not None else "-"


#: The reason of each verdict kind, filled in from the type and the values
#: at i; ``None`` is the kind of a scan record whose internal check failed.
_REASONS = {
    VerdictKind.NOT_RATIONALLY_CONNECTED:
        "total degree {d} exceeds ambient dimension {n}",
    VerdictKind.NORMAL_BUNDLE_OBSTRUCTION:
        "line normal bundle has degree {normal} < 0, so a negative summand "
        "obstructs double covers of lines",
    VerdictKind.POINCARE_OBSTRUCTION:
        "p_X(i) = {p_x} and p_F(i) = {p_f} are both nonzero",
    VerdictKind.HOMOGENEOUS_LINEAR: "type reduces to a projective space",
    VerdictKind.HOMOGENEOUS_QUADRIC: "type reduces to a quadric",
    None: "an internal check failed for the type",
}

#: The text of each record outcome; ``None`` is a failed internal check.
_OUTCOME_TEXT = {
    None: "internal_check_failed",
    **{outcome: outcome.value for outcome in (*VerdictKind, *LemmaCase)},
}


# The renderers of a scan row ((n, k, degrees, texts), fields), with
# ``texts`` the degrees as decimal strings and ``fields`` the record's other
# fields.  A scan writes its rows through them, and ``Verdict.csv_row``
# renders a single verdict through ``_verdict_csv``.

def _verdict_line(row: tuple) -> str:
    (n, k, degrees, texts), (kind, p_x, p_f) = row
    return (f"n={n} type=({','.join(texts)}) d={sum(degrees)} k={k} "
            f"verdict={_OUTCOME_TEXT[kind]} p_X(i)={_text(p_x)} p_F(i)={_text(p_f)}")


def _verdict_csv(row: tuple) -> list[str]:
    (n, k, degrees, texts), (kind, p_x, p_f) = row
    return [str(n), " ".join(texts), str(sum(degrees)), str(k),
            _OUTCOME_TEXT[kind], _text(p_x), _text(p_f)]


def _verdict_json(row: tuple) -> str:
    (n, k, degrees, texts), (kind, p_x, p_f) = row
    return _VERDICT_JSON % (n, _json_degrees(texts), k, sum(degrees),
                            _OUTCOME_TEXT[kind], _json_gauss(p_x), _json_gauss(p_f))


def _lemma_line(row: tuple) -> str:
    (n, k, _, texts), (betti, value, case) = row
    return (f"n={n} type=({','.join(texts)}) k={k} b_k={_text(betti)} "
            f"p(i)={_text(value)} case={_OUTCOME_TEXT[case]}")


def _lemma_csv(row: tuple) -> list[str]:
    (n, k, _, texts), (betti, value, case) = row
    return [str(n), " ".join(texts), str(k), _text(betti), _text(value),
            _OUTCOME_TEXT[case]]


def _lemma_json(row: tuple) -> str:
    (n, k, _, texts), (betti, value, case) = row
    return _LEMMA_JSON % (n, _json_degrees(texts), k,
                          "null" if betti is None else f'"{betti}"',
                          _json_gauss(value), _OUTCOME_TEXT[case])


def _type_row(ci: CIType) -> tuple:
    return ci.ambient_dim, ci.dimension, ci.degrees, tuple(map(str, ci.degrees))


class Verdict(namedtuple("Verdict", "ci kind p_x_at_i p_f_at_i", defaults=(None, None))):
    """Classification outcome for one type, with the witnessing values at i,
    and the theorem scan's record of that type.  ``kind`` is None only in a
    scan record whose internal check failed (recorded as a violation)."""

    __slots__ = ()

    CSV_HEADER = (
        "n", "degrees", "total_degree", "dimension", "verdict", "p_x_at_i", "p_f_at_i",
    )

    @property
    def reason(self) -> str:
        n, d = self.ci.ambient_dim, self.ci.total_degree
        return _REASONS[self.kind].format(
            n=n, d=d, normal=n - d - 1, p_x=self.p_x_at_i, p_f=self.p_f_at_i
        )

    def csv_row(self) -> list[str]:
        return _verdict_csv((_type_row(self.ci), (self.kind, self.p_x_at_i, self.p_f_at_i)))


class LemmaRecord(namedtuple("LemmaRecord", "ci middle_betti value_at_i case")):
    """One scanned type with its middle Betti number, its Poincare value at
    i, and the vanishing case it falls in.  A field is None when an internal
    check failed before it was computed (recorded as a violation)."""

    __slots__ = ()

    CSV_HEADER = ("n", "degrees", "dimension", "middle_betti", "p_at_i", "case")


def _degree_cell(ci: CIType) -> str:
    return " ".join(map(str, ci.degrees))


_RECORD_TYPES = {"theorem": Verdict, "lemma": LemmaRecord}

#: The row renderers of each scan kind, by output format.
_RENDERERS = {
    "theorem": {"csv": _verdict_csv, "table": _verdict_line, "json": _verdict_json},
    "lemma": {"csv": _lemma_csv, "table": _lemma_line, "json": _lemma_json},
}


class ScanReport(namedtuple(
        "ScanReport", "kind max_n max_degree types counts violations table")):
    """Deterministic result of an exhaustive scan: the number of types
    walked, the outcome counts and any internal-check violations (always
    expected to be empty), all final when the report is built.  ``table`` is
    the first pass's state from which ``rows`` re-walks the types; its
    layout is not a contract.  Two reports of the same scan are equal."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        lines = [
            f"scan={self.kind} max_n={self.max_n} max_degree={self.max_degree}",
            f"types={self.types}",
        ]
        lines.extend(f"{name}={count}" for name, count in self.counts.items())
        lines.append(f"violations={len(self.violations)}")
        lines.extend(f"violation: {v}" for v in self.violations)
        return lines

    def rows(self) -> Iterator[tuple]:
        """One row ((n, k, degrees, texts), fields) per type, in canonical
        order, re-walked from ``table`` with no check re-run."""
        walk = _theorem_rows if self.kind == "theorem" else _lemma_rows
        return walk(self.max_n, self.max_degree, *self.table)

    def records(self) -> Iterator:
        """The scan's records, one per type in canonical order, each built
        from its row when the caller reaches it."""
        record_type = _RECORD_TYPES[self.kind]
        for (n, _, degrees, _), fields in self.rows():
            yield record_type(_unchecked_type(n, degrees), *fields)


def write_scans(reports: Sequence[ScanReport], fmt: str, stream: TextIO) -> None:
    """Write one document holding every report, each row rendered straight
    to ``stream`` with no record object: for ``json`` the object
    {"scans": [...]}, for ``csv`` one table (header and rows) per report
    separated by a blank line, for ``table`` one line per record of each
    report in turn.  An unknown ``fmt`` raises ValueError before anything
    is written."""
    if fmt not in ("csv", "table", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if fmt == "json":
        stream.write("{" + _NEWLINE[1] + '"scans": [')
    for idx, report in enumerate(reports):
        render, rows = _RENDERERS[report.kind][fmt], report.rows()
        if fmt == "csv":
            # Every cell is made of digits, spaces, "+", "-", "i" and "_",
            # so none needs quoting.
            stream.write(("\n" if idx else "")
                         + ",".join(_RECORD_TYPES[report.kind].CSV_HEADER) + "\n")
            stream.writelines(",".join(cells) + "\n" for cells in map(render, rows))
        elif fmt == "table":
            stream.writelines(line + "\n" for line in map(render, rows))
        else:
            field = _NEWLINE[_SCAN_DEPTH + 1]
            head = [
                f'"scan": {json.dumps(report.kind)}',
                f'"max_n": "{report.max_n}"',
                f'"max_degree": "{report.max_degree}"',
                f'"types": "{report.types}"',
                '"counts": ' + _json_container("{", [
                    f'{json.dumps(name)}: "{count}"'
                    for name, count in report.counts.items()
                ], "}", _SCAN_DEPTH + 1),
                '"violations": ' + _json_container(
                    "[", [json.dumps(v) for v in report.violations], "]",
                    _SCAN_DEPTH + 1),
                '"records": ',
            ]
            stream.write(("," if idx else "") + _NEWLINE[_SCAN_DEPTH]
                         + "{" + field + ("," + field).join(head))
            # A scan's bounds are >= 1, so it has at least one record.
            stream.write("[" + _NEWLINE[_RECORD_DEPTH] + render(next(rows)))
            stream.writelines(map(("," + _NEWLINE[_RECORD_DEPTH]).__add__,
                                  map(render, rows)))
            stream.write(_NEWLINE[_SCAN_DEPTH + 1] + "]" + _NEWLINE[_SCAN_DEPTH] + "}")
    if fmt == "json":
        stream.write((_NEWLINE[1] if reports else "") + "]" + _NEWLINE[0] + "}\n")


def _scan_report(
    kind: str,
    max_n: int,
    max_degree: int,
    table: tuple,
    violations: list[str],
    outcomes: type[Enum],
    tally: Counter,
) -> ScanReport:
    """The report of a finished scan.  ``tally`` counts the types by
    outcome, a member of ``outcomes`` or None for a failed internal check;
    the counts list every member of ``outcomes`` in order, then the failed
    checks if there were any."""
    counts = {outcome.value: tally[outcome] for outcome in outcomes}
    if tally[None]:
        counts["internal_check_failed"] = tally[None]
    return ScanReport(kind, max_n, max_degree, sum(tally.values()), counts,
                      tuple(violations), table)


def _type_rows(max_n: int, max_degree: int) -> Iterator[tuple]:
    """(n, k, degrees, texts) of every type ``iter_types`` yields, in its
    order, for bounds already checked.  ``texts`` holds the degrees as
    decimal strings: a second enumeration over the pre-rendered strings,
    zipped with the first, so that the two stay in one order."""
    degree_range = range(1, max_degree + 1)
    degree_texts = tuple(map(str, degree_range))
    return chain.from_iterable(
        zip(repeat(n), repeat(n - l),
            combinations_with_replacement(degree_range, l),
            combinations_with_replacement(degree_texts, l))
        for n in range(1, max_n + 1)
        for l in range(n + 1))


def scan_theorem(max_n: int, max_degree: int) -> ScanReport:
    """Classify every type within the bounds and re-verify the survivor set.

    Each record is the type's ``Verdict``, or ``Verdict(ci, None)`` when an
    internal check failed for it (recorded as a violation).
    Survivors of all gates must reduce to () or (2); conversely every
    rationally connected homogeneous-shaped type of dimension >= 2 must
    survive.  (In dimension <= 1 points and conics have total degree n and
    stop at the normal-bundle gate; lines survive.)

    ``theorem_verdict`` runs on every type.  A type with d > n whose verdict
    is ``NOT_RATIONALLY_CONNECTED`` is only counted, because its record is
    that verdict again; the fields of every other verdict are kept, by the
    type's position, for the second pass.
    """
    not_rc = VerdictKind.NOT_RATIONALLY_CONNECTED
    kept: dict[int, tuple] = {}
    skipped = 0
    violations: list[str] = []
    for index, ci in enumerate(iter_types(max_n, max_degree)):
        try:
            verdict = theorem_verdict(ci)
        except InternalCheckError as exc:
            violations.append(str(exc))
            verdict = Verdict(ci, None)
        n, d = ci.ambient_dim, sum(ci.degrees)
        if d > n and verdict.kind is not_rc:
            skipped += 1
            continue
        kept[index] = (verdict.kind, verdict.p_x_at_i, verdict.p_f_at_i)

        # Finite-scale re-statement of the classification itself.  Every
        # check below needs a type that passed or is rationally connected.
        passed = verdict.kind in (
            VerdictKind.HOMOGENEOUS_LINEAR,
            VerdictKind.HOMOGENEOUS_QUADRIC,
        )
        rc = d <= n
        if not (passed or rc):
            continue
        homogeneous = _is_homogeneous_shape(ci)
        if passed and not homogeneous:
            violations.append(f"non-homogeneous type passed every gate: {ci}")
        if rc and ci.dimension >= 2 and homogeneous and not passed:
            violations.append(f"homogeneous type failed a gate: {ci}")
        if rc and ci.dimension <= 1 and not homogeneous:
            violations.append(
                f"dimension <= 1 rationally connected type is not a "
                f"point/line/conic: {ci}"
            )
    tally = Counter(fields[0] for fields in kept.values())
    tally[not_rc] += skipped
    return _scan_report("theorem", max_n, max_degree, (kept,), violations,
                        VerdictKind, tally)


def _theorem_rows(max_n: int, max_degree: int, kept: dict[int, tuple]) -> Iterator[tuple]:
    not_rc = (VerdictKind.NOT_RATIONALLY_CONNECTED, None, None)
    return zip(_type_rows(max_n, max_degree), map(kept.get, count(), repeat(not_rc)))


def scan_lemma(max_n: int, max_degree: int) -> ScanReport:
    """Evaluate p(i) for every type within the bounds and verify that it
    vanishes exactly on the three allowed shapes and nowhere else.

    The class table holds one row per reduced multiset D, the degrees
    >= 2, indexed by the dimension k.  The first type scanned with D fills
    its row with chi for k = 0 .. max_n - |D|, from one run of the
    recurrence.  The first type scanned in a class (D, k) runs the checks
    on that chi and replaces its slot with the class's fields, which the
    rest of the class reuses; only that first type is built as a
    ``CIType``.  A class whose checks recorded a violation keeps its chi,
    so each of its types runs the checks and reports its own; their fields
    are kept by (n, degrees) for the second pass."""
    table: dict[tuple[int, ...], list] = {}
    failed: dict[tuple[int, tuple[int, ...]], tuple] = {}
    violations: list[str] = []
    tally: Counter = Counter()
    for n, degrees in _type_pairs(max_n, max_degree):
        reduced = degrees[degrees.count(1):]
        row = table.get(reduced)
        if row is None:
            row = table[reduced] = euler_characteristic_row(reduced, max_n - len(reduced))
        k = n - len(degrees)
        fields = row[k]
        if type(fields) is tuple:
            tally[fields[2]] += 1
            continue
        ci = _unchecked_type(n, degrees)
        seen = len(violations)
        betti = value = case = None
        try:
            report = compute_invariants(ci, fields)
            betti, value = report.middle_betti, report.value_at_i
            case = lemma_classify(ci, report)
        except InternalCheckError as exc:
            violations.append(str(exc))
        # No type with an entry >= 3, or with two entries >= 2, may
        # vanish: a vanishing p(i) needs a reduced type () or (2).
        if value is not None and value.is_zero and not _is_homogeneous_shape(ci):
            violations.append(f"excluded shape vanishes at i: {ci}")
        if len(violations) == seen:
            row[k] = (betti, value, case)
        else:
            failed[n, degrees] = (betti, value, case)
        tally[case] += 1
    return _scan_report("lemma", max_n, max_degree, (table, failed), violations,
                        LemmaCase, tally)


def _lemma_rows(
    max_n: int,
    max_degree: int,
    table: dict[tuple[int, ...], list],
    failed: dict[tuple[int, tuple[int, ...]], tuple],
) -> Iterator[tuple]:
    # A failed type's class may be kept later, by another of its types.
    for row in _type_rows(max_n, max_degree):
        n, k, degrees, _ = row
        if failed and (n, degrees) in failed:
            yield row, failed[n, degrees]
        else:
            yield row, table[degrees[degrees.count(1):]][k]
