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
     quadric: both are homogeneous, and their p_X(i), p_F(i) must vanish
     in the parity pattern that ``theorem_verdict`` checks.

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
not decided by the d > n gate, keyed by n and degrees, or the lemma scan's
rows per D, holding each class's fields.  A ``ScanReport`` is plain data:
those results, the number of types, and that table as its ``table`` field,
whose layout is not a contract.  The second pass, ``ScanReport.blocks``,
run each time the scan is written or its records are read, re-walks the
types one (n, l) block at a time and yields each block's fields from the
table as a C-level iterator; no check is re-run, so a scan's memory grows
with its classes and its d <= n verdicts, not with the types.

``write_scans`` is the one scan writer.  It fills a row template's n and k
once per block and joins each row, at C level, from constant pieces, the
degree list, the total degree and the text of the row's fields, rendered
on the first lookup of those fields, in exactly the layout of
``json.dump(..., indent=2)`` for JSON; it builds no record.  Records,
``Verdict``s for the theorem scan and ``LemmaRecord``s for the lemma scan,
are built only by the generator ``ScanReport.records``, which reads the
same blocks.  No record renders itself; the single-type documents are
rendered by the CLI.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from enum import Enum
from itertools import chain, combinations_with_replacement, repeat
from typing import Iterator, Sequence, TextIO

from .exact import GaussianInteger
from .lines import fiber_type
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
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


def theorem_verdict(ci: CIType, report: InvariantReport | None = None) -> Verdict:
    """Run the obstruction pipeline on one type and return the first gate's
    verdict.  The two degree gates carry no values at i; the Poincare gate
    and the survivors carry p_X(i) and p_F(i).  The verdict's ``reason`` is
    derived from these fields when it is read, so no text is built here.

    ``report`` is the type's ``compute_invariants`` result when the caller
    already has it; otherwise the Poincare gate computes it.

    The Poincare gate asks whether 1 + t^2 divides p_F * p_X.  It is monic
    and irreducible over the integers, with roots +-i, so it divides the
    product iff it divides a factor iff that factor vanishes at i; the
    values at i are ``compute_invariants``' closed forms and no polynomial
    is divided.  ``tests/test_lines.py`` checks the equivalence against
    long division of the dense product by 1 + t^2.

    A type that reaches the Poincare gate must pass it exactly when it
    reduces to () or (2), with the parity pattern of those homogeneous
    types: for (1,...,1) exactly one of p_X(i), p_F(i) vanishes; for
    (1,...,1,2) both vanish iff the dimension k is odd, otherwise exactly
    one.  Anything else contradicts the classification and raises
    InternalCheckError; it must never happen.
    """
    n = ci.ambient_dim
    if n < 1:
        raise ValueError("classification requires ambient dimension >= 1")
    d = ci.total_degree
    if d > n:
        return Verdict(ci, VerdictKind.NOT_RATIONALLY_CONNECTED)
    if d > n - 1:
        return Verdict(ci, VerdictKind.NORMAL_BUNDLE_OBSTRUCTION)
    if report is None:
        report = compute_invariants(ci)
    p_x = report.value_at_i
    p_f = compute_invariants(fiber_type(ci)).value_at_i
    reduced = _reduced(ci)
    if reduced not in ((), (2,)):
        if p_x.is_zero or p_f.is_zero:
            raise InternalCheckError(
                f"{ci} passed every obstruction but does not reduce to () or (2)"
            )
        kind = VerdictKind.POINCARE_OBSTRUCTION
    else:
        if reduced and ci.dimension % 2 == 1:
            ok = p_x.is_zero and p_f.is_zero
        else:
            ok = p_x.is_zero != p_f.is_zero
        if not ok:
            raise InternalCheckError(
                f"parity pattern violated for {ci}: p_X(i) = {p_x}, p_F(i) = {p_f}"
            )
        kind = VerdictKind.HOMOGENEOUS_QUADRIC if reduced else VerdictKind.HOMOGENEOUS_LINEAR
    return Verdict(ci, kind, p_x, p_f)


def _type_pairs(max_n: int, max_degree: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The (n, degrees) of every type ``iter_types`` yields, in its order.
    The bounds are checked at the call, not at the first ``next()``."""
    for name, bound in (("max_n", max_n), ("max_degree", max_degree)):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {bound!r}")
    degree_range = range(1, max_degree + 1)
    return chain.from_iterable(
        zip(repeat(n), combinations_with_replacement(degree_range, l))
        for n in range(1, max_n + 1) for l in range(n + 1))


def iter_types(max_n: int, max_degree: int) -> Iterator[CIType]:
    """All types with 1 <= n <= max_n, 0 <= l <= n and degrees in
    [1, max_degree], in canonical (n, l, lexicographic) order.  The bounds
    must be ints >= 1 and are checked at the call; the tuples generated are
    sorted, of ints >= 1 and of length l <= n, so they skip ``CIType``'s
    validation."""
    return map(tuple.__new__, repeat(CIType), _type_pairs(max_n, max_degree))


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


#: A row's degree list in each format: (open, separator, close, empty).
_DEGREE_LISTS = {"table": ("", ",", "", ""), "csv": ("", " ", "", ""), "json": (
    "[" + _NEWLINE[_RECORD_DEPTH + 2] + '"', '",' + _NEWLINE[_RECORD_DEPTH + 2] + '"',
    '"' + _NEWLINE[_RECORD_DEPTH + 1] + "]", "[]")}
_GAUSS_JSON = _json_container("{", ['"re": "%d"', '"im": "%d"'], "}", _RECORD_DEPTH + 1)
_FIELD_SEP = "," + _NEWLINE[_RECORD_DEPTH + 1]

#: A scan row's text, by scan kind and format.  "%(n)d" and "%(k)d" are
#: filled once per (n, l) block; each NUL is a slot filled per row: the
#: degree list, the total degree (theorem scan only) and the row's fields,
#: as text that fills ``_FIELD_TEMPLATES``.  A JSON row starts with the
#: separator from the record before it.
_ROW_TEMPLATES = {
    "theorem": {
        "table": "n=%(n)d type=(\0) d=\0 k=%(k)d \0\n",
        "csv": "%(n)d,\0,\0,%(k)d,\0\n",
        "json": "," + _NEWLINE[_RECORD_DEPTH] + _json_container("{", [
            '"n": "%(n)d"', '"degrees": \0', '"dimension": "%(k)d"',
            '"total_degree": "\0"', "\0"], "}", _RECORD_DEPTH),
    },
    "lemma": {
        "table": "n=%(n)d type=(\0) k=%(k)d \0\n",
        "csv": "%(n)d,\0,%(k)d,\0\n",
        "json": "," + _NEWLINE[_RECORD_DEPTH] + _json_container("{", [
            '"n": "%(n)d"', '"degrees": \0', '"dimension": "%(k)d"', "\0"],
            "}", _RECORD_DEPTH),
    },
}
_FIELD_TEMPLATES = {
    "theorem": {
        "table": "verdict=%s p_X(i)=%s p_F(i)=%s",
        "csv": "%s,%s,%s",
        "json": _FIELD_SEP.join(['"verdict": "%s"', '"p_x_at_i": %s', '"p_f_at_i": %s']),
    },
    "lemma": {
        "table": "b_k=%s p(i)=%s case=%s",
        "csv": "%s,%s,%s",
        "json": _FIELD_SEP.join(['"middle_betti": %s', '"p_at_i": %s', '"case": "%s"']),
    },
}


def _json_value(value: int | GaussianInteger | None) -> str:
    if value is None:
        return "null"
    if type(value) is GaussianInteger:
        return _GAUSS_JSON % value
    return '"%d"' % value


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


class _FieldTexts(dict):
    """The text of each fields tuple of one scan in one format, rendered on
    its first lookup: a later row with the same fields is a C-level hit.
    The theorem scan has few distinct fields (278 at 14/6); the lemma scan
    about one per class, so the memo is emptied when full, bounding it."""

    def __init__(self, kind: str, fmt: str):
        self.template = _FIELD_TEMPLATES[kind][fmt]
        value, out = _json_value if fmt == "json" else _text, _OUTCOME_TEXT.__getitem__
        # One cell per field: (kind, p_x, p_f) or (betti, value, case).
        self.cells = (out, value, value) if kind == "theorem" else (value, value, out)

    def __missing__(self, fields: tuple) -> str:
        if len(self) >= 1024:
            self.clear()
        (a, b, c), (cell_a, cell_b, cell_c) = fields, self.cells
        text = self[fields] = self.template % (cell_a(a), cell_b(b), cell_c(c))
        return text


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


class LemmaRecord(namedtuple("LemmaRecord", "ci middle_betti value_at_i case")):
    """One scanned type with its middle Betti number, its Poincare value at
    i, and the vanishing case it falls in.  A field is None when an internal
    check failed before it was computed (recorded as a violation)."""

    __slots__ = ()

    CSV_HEADER = ("n", "degrees", "dimension", "middle_betti", "p_at_i", "case")


_RECORD_TYPES = {"theorem": Verdict, "lemma": LemmaRecord}


class ScanReport(namedtuple(
        "ScanReport", "kind max_n max_degree types counts violations table")):
    """Deterministic result of an exhaustive scan: the number of types
    walked, the outcome counts and any internal-check violations (always
    expected to be empty), all final when the report is built.  ``table`` is
    the first pass's state, from which ``blocks`` re-walks the types; its
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

    def blocks(self) -> Iterator[tuple]:
        """One (n, l, fields) per block of the types in P^n with l degrees,
        in canonical order: ``fields`` is a C-level iterator over the block's
        fields, in lexicographic order of the degrees, read from ``table``
        with no check re-run."""
        walk = _theorem_blocks if self.kind == "theorem" else _lemma_blocks
        return walk(self.max_n, self.max_degree, *self.table)

    def records(self) -> Iterator:
        """The scan's records, one per type in canonical order, each built
        from its block's fields when the caller reaches it."""
        record_type = _RECORD_TYPES[self.kind]
        rows = chain.from_iterable(fields for _, _, fields in self.blocks())
        for ci, fields in zip(iter_types(self.max_n, self.max_degree), rows):
            yield record_type(ci, *fields)


def write_scans(reports: Sequence[ScanReport], fmt: str, stream: TextIO) -> None:
    """Write one document holding every report, with no record object: for
    ``json`` the object {"scans": [...]}, for ``csv`` one table (header and
    rows) per report separated by a blank line, for ``table`` one line per
    record of each report in turn.  Each (n, l) block fills its row
    template's n and k once; each row then joins, at C level, the template's
    pieces with the degree list, the total degree (theorem scan) and the
    text of its fields, rendered on their first lookup.  An unknown ``fmt``
    raises ValueError before anything is written."""
    if fmt not in _DEGREE_LISTS:
        raise ValueError(f"unknown output format {fmt!r}")
    open_, sep, close, empty = _DEGREE_LISTS[fmt]
    if fmt == "json":
        stream.write("{" + _NEWLINE[1] + '"scans": [')
    for idx, report in enumerate(reports):
        if fmt == "csv":
            # Every cell is made of digits, spaces, "+", "-", "i" and "_",
            # so none needs quoting.
            stream.write(("\n" if idx else "")
                         + ",".join(_RECORD_TYPES[report.kind].CSV_HEADER) + "\n")
        elif fmt == "json":
            # The scan object up to its records, moved to the scan's depth.
            head = json.dumps({
                "scan": report.kind, "max_n": str(report.max_n),
                "max_degree": str(report.max_degree), "types": str(report.types),
                "counts": {name: str(count) for name, count in report.counts.items()},
                "violations": list(report.violations), "records": 0}, indent=2)
            stream.write(("," if idx else "") + _NEWLINE[_SCAN_DEPTH]
                         + head[:-len("0\n}")].replace("\n", _NEWLINE[_SCAN_DEPTH]))
        template = _ROW_TEMPLATES[report.kind][fmt]
        texts = _FieldTexts(report.kind, fmt)
        degree_range = range(1, report.max_degree + 1)
        degree_texts = tuple(map(str, degree_range))
        for n, l, fields in report.blocks():
            pieces = (template % {"n": n, "k": n - l}).split("\0")
            before, after = (open_, close) if l else (empty, "")
            pieces[:2] = pieces[0] + before, after + pieces[1]
            if fmt == "json" and n == 1 and not l:  # the scan's first record
                pieces[0] = "[" + pieces[0][1:]
            slots = [map(sep.join, combinations_with_replacement(degree_texts, l)),
                     map(texts.__getitem__, fields)]
            if report.kind == "theorem":
                slots.insert(1, map(str, map(sum, combinations_with_replacement(
                    degree_range, l))))
            # Each row joins the pieces with the slots between them.
            stream.writelines(map("".join, zip(*chain.from_iterable(
                zip(map(repeat, pieces), slots)), repeat(pieces[-1]))))
        if fmt == "json":
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


def scan_theorem(max_n: int, max_degree: int) -> ScanReport:
    """Classify every type within the bounds and re-verify the survivor set.

    Each record is the type's ``Verdict``, or ``Verdict(ci, None)`` when an
    internal check failed for it (recorded as a violation), such as a
    homogeneous type whose values at i break the parity pattern.
    Survivors of all gates must reduce to () or (2); conversely every
    rationally connected homogeneous-shaped type of dimension >= 2 must
    survive.  (In dimension <= 1 points and conics have total degree n and
    stop at the normal-bundle gate; lines survive.)

    ``theorem_verdict`` runs on every type.  A type with d > n whose verdict
    is ``NOT_RATIONALLY_CONNECTED`` is only counted, because its record is
    that verdict again; the fields of every other verdict are kept, by n
    and then by degrees, for the second pass.
    """
    not_rc = VerdictKind.NOT_RATIONALLY_CONNECTED
    kept: dict[int, dict[tuple[int, ...], tuple]] = {}
    skipped = 0
    violations: list[str] = []
    for ci in iter_types(max_n, max_degree):
        try:
            verdict = theorem_verdict(ci)
        except InternalCheckError as exc:
            violations.append(str(exc))
            verdict = Verdict(ci, None)
        n, degrees = ci
        d = sum(degrees)
        if d > n and verdict.kind is not_rc:
            skipped += 1
            continue
        kept.setdefault(n, {})[degrees] = verdict[1:]

        # Finite-scale re-statement of the classification itself.  Every
        # check below needs a type that passed or is rationally connected.
        passed = verdict.kind in (VerdictKind.HOMOGENEOUS_LINEAR,
                                  VerdictKind.HOMOGENEOUS_QUADRIC)
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
    tally = Counter(fields[0] for by_n in kept.values() for fields in by_n.values())
    tally[not_rc] += skipped
    return _scan_report("theorem", max_n, max_degree, (kept,), violations,
                        VerdictKind, tally)


def _theorem_blocks(max_n: int, max_degree: int, kept: dict) -> Iterator:
    # P^n itself has d = 0 <= n, so every n has kept verdicts.
    not_rc = (VerdictKind.NOT_RATIONALLY_CONNECTED, None, None)
    degree_range = range(1, max_degree + 1)
    for n in range(1, max_n + 1):
        for l in range(n + 1):
            yield n, l, map(kept[n].get, combinations_with_replacement(degree_range, l),
                            repeat(not_rc))


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
        ci = tuple.__new__(CIType, (n, degrees))  # unchecked, as in iter_types
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


def _lemma_blocks(max_n: int, max_degree: int, table: dict, failed: dict) -> Iterator:
    """A block lists its types with m leading 1s, for m = l down to 0, each
    m in the order of their reduced multisets D: so its fields are the slots
    at k of the rows of every D with |D| <= l, by |D|, then D.  A failed
    type's entry replaces its slot, which holds the class's chi, or its
    fields when another type of the class passed the checks later."""
    by_length = [[table[reduced] for reduced in
                  combinations_with_replacement(range(2, max_degree + 1), length)]
                 for length in range(max_n + 1)]
    degree_range = range(1, max_degree + 1)
    for n in range(1, max_n + 1):
        for l in range(n + 1):
            fields = map(list.__getitem__, chain.from_iterable(by_length[:l + 1]),
                         repeat(n - l))
            if failed:
                fields = map(failed.get,
                             zip(repeat(n), combinations_with_replacement(degree_range, l)),
                             fields)
            yield n, l, fields
