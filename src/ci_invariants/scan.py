"""Exhaustive scans that re-verify the classification of ``classify`` over
finite ranges, and their one writer.

Scan bounds are a verification budget, not a completeness claim: the
classification holds for all types, the scans re-check it mechanically on
everything within the bounds.  Degree-1 entries only lower the ambient
space, so a type's lemma record depends only on its class (D, k): its
reduced multiset D, the degrees >= 2, and its dimension k.  The theorem
scan walks the types in canonical (n, l, degrees) order; the lemma scan
walks the classes, with one run of the recurrence per D for a row of chi
over every k, and runs the checks once per class, on that chi.

Each scan makes two passes, serially.  The first runs every check and
keeps only the counts, the violations and a small table: the verdicts not
decided by the d > n gate, keyed by n and degrees, or the lemma scan's
b_k, one row per dimension k listing its classes by |D|, then D.  A
class's p(i) and case follow from (D, k, b_k), so the lemma table holds
one int per class and no fields.  A ``ScanReport`` is plain data: those
results, the number of types, and that table as its ``table`` field, whose
layout is not a contract.  The second pass, run each time the scan is
written or its records are read, walks the types one (n, l) block at a
time and reads each block's fields from the table, a lemma block's as a
prefix of its row; no check is re-run, so a scan's memory grows with its
classes and its d <= n verdicts, not with the types.

``write_scans`` is the one scan writer.  It fills a row template's n and k
once per block and joins each row, at C level, from constant pieces, the
degree list, the total degree and the text of the row's fields, in
exactly the layout of ``json.dump(..., indent=2)`` for JSON; it builds no
record.  A theorem row's fields are rendered on their first lookup.  A
lemma block's rows past D = () and D = (2) cannot vanish, so their text is
one template per k mod 4, mapped over the block's b_k at C level.  Records,
``Verdict``s for the theorem scan and ``LemmaRecord``s for the lemma scan,
are built only by the generator ``ScanReport.records``, which walks the
same blocks.  No record renders itself; the single-type documents are
rendered by the CLI.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from itertools import chain, combinations_with_replacement, islice, repeat
from math import comb
from typing import Iterator, Sequence, TextIO

from .classify import (
    LemmaCase,
    Verdict,
    VerdictKind,
    _is_homogeneous_shape,
    _shape_case,
    lemma_classify,
    theorem_verdict,
)
from .topology import (
    CIType,
    GaussianInteger,
    InternalCheckError,
    _value_at_i,
    compute_invariants,
    euler_characteristic_row,
)


def _check_bounds(max_n: int, max_degree: int) -> None:
    for name, bound in (("max_n", max_n), ("max_degree", max_degree)):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {bound!r}")


def iter_types(max_n: int, max_degree: int) -> Iterator[CIType]:
    """All types with 1 <= n <= max_n, 0 <= l <= n and degrees in
    [1, max_degree], in canonical (n, l, lexicographic) order.  The bounds
    must be ints >= 1 and are checked at the call; the tuples generated are
    sorted, of ints >= 1 and of length l <= n, so they skip ``CIType``'s
    validation."""
    _check_bounds(max_n, max_degree)
    degree_range = range(1, max_degree + 1)
    return map(tuple.__new__, repeat(CIType), chain.from_iterable(
        zip(repeat(n), combinations_with_replacement(degree_range, l))
        for n in range(1, max_n + 1) for l in range(n + 1)))


#: ``_NEWLINE[depth]`` starts a line at ``depth`` levels of the two-space
#: indentation that ``json.dump(..., indent=2)`` uses.
_NEWLINE = tuple("\n" + "  " * depth for depth in range(8))

#: Depths of a scan object and of a record object in the scan document
#: {"scans": [{..., "records": [{...}]}]}.
_SCAN_DEPTH = 2
_RECORD_DEPTH = _SCAN_DEPTH + 2


def _json_container(open_: str, items: list[str], close: str, depth: int) -> str:
    """A non-empty JSON array or object of already rendered items, laid out
    exactly as ``json.dumps(..., indent=2)`` lays out a container at
    ``depth``."""
    inner = _NEWLINE[depth + 1]
    return open_ + inner + ("," + inner).join(items) + _NEWLINE[depth] + close


#: A row's degree list in each format: (open, separator, close, empty).
_DEGREE_LISTS = {"table": ("", ",", "", ""), "csv": ("", " ", "", ""), "json": (
    "[" + _NEWLINE[_RECORD_DEPTH + 2] + '"', '",' + _NEWLINE[_RECORD_DEPTH + 2] + '"',
    '"' + _NEWLINE[_RECORD_DEPTH + 1] + "]", "[]")}
_GAUSS_JSON = _json_container("{", ['"re": "%s"', '"im": "%s"'], "}", _RECORD_DEPTH + 1)
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


#: p(i) of a nonvanishing class by k mod 4, as a template for b_k (for
#: 2 - b_k when k = 2 mod 4): the text of its ``GaussianInteger`` and its
#: JSON (re, im).  Such a class has b_k != 0 for odd k and b_k != 2 for
#: k = 2 mod 4, so these equal the renderings of that ``GaussianInteger``.
_TAIL_VALUE_TEXT = ("%d+0i", "0+%di", "%d+0i", "0-%di")
_TAIL_VALUE_JSON = (("%d", "0"), ("0", "%d"), ("%d", "0"), ("0", "-%d"))


def _tail_templates(fmt: str) -> tuple[str, ...]:
    """The fields of a nonvanishing lemma class in ``fmt`` by k mod 4, as a
    template for (b_k, b_k), or (b_k, 2 - b_k) when k = 2 mod 4."""
    if fmt == "json":
        betti, values = '"%d"', [_GAUSS_JSON % pair for pair in _TAIL_VALUE_JSON]
    else:
        betti, values = "%d", _TAIL_VALUE_TEXT
    return tuple(_FIELD_TEMPLATES["lemma"][fmt] % (betti, value, LemmaCase.NONVANISHING.value)
                 for value in values)


def _json_value(value: int | GaussianInteger | None) -> str:
    if value is None:
        return "null"
    if type(value) is GaussianInteger:
        return _GAUSS_JSON % value
    return '"%d"' % value


def _text(value: int | GaussianInteger | None) -> str:
    return str(value) if value is not None else "-"

#: The text of each record outcome; ``None`` is a failed internal check.
_OUTCOME_TEXT = {
    None: "internal_check_failed",
    **{outcome: outcome.value for outcome in (*VerdictKind, *LemmaCase)},
}


class _FieldTexts(dict):
    """The text of each fields tuple of one scan in one format, rendered on
    its first lookup: a later row with the same fields is a C-level hit.
    The theorem scan has few distinct fields: 278 at 14/6, but 1,199 at
    20/6, where the bound of 1,024 entries is reached.  A lemma block comes
    here only for its first two rows, or for every row when it holds a
    failed class; ``lemma_block`` renders the rest from its prefix of b_k.
    The memo is emptied when full, bounding it."""

    def __init__(self, kind: str, fmt: str):
        self.template = _FIELD_TEMPLATES[kind][fmt]
        value, out = _json_value if fmt == "json" else _text, _OUTCOME_TEXT.__getitem__
        # One cell per field: (kind, p_x, p_f) or (betti, value, case).
        self.cells = (out, value, value) if kind == "theorem" else (value, value, out)
        self.tails = _tail_templates(fmt) if kind == "lemma" else None

    def __missing__(self, fields: tuple) -> str:
        if len(self) >= 1024:
            self.clear()
        (a, b, c), (cell_a, cell_b, cell_c) = fields, self.cells
        text = self[fields] = self.template % (cell_a(a), cell_b(b), cell_c(c))
        return text

    def lemma_block(self, k: int, block: tuple[list, int]) -> Iterator[str]:
        """The field texts of the lemma block (row, size) at dimension k.
        Only its first two classes, D = () and D = (2), can vanish, so the
        rest share one template, mapped over the prefix at C level; a block
        holding a failed class (None) is rendered per field."""
        row, size = block
        fields = map(self.__getitem__, _lemma_fields(k, block))
        if None in islice(row, size):
            return fields
        betti, second = islice(row, 2, size), islice(row, 2, size)
        if k % 4 == 2:
            second = map((2).__sub__, second)
        return chain(islice(fields, 2), map(self.tails[k % 4].__mod__, zip(betti, second)))



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
    the first pass's state, from which ``records`` and ``write_scans``
    re-walk the types; its layout is not a contract.  Two reports of the
    same scan are equal."""

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

    def records(self) -> Iterator:
        """The scan's records, one per type in canonical order, each built
        from its fields in ``table`` when the caller reaches it, with no
        check re-run; a lemma record's fields are rebuilt from k and b_k."""
        record_type = _RECORD_TYPES[self.kind]
        theorem = self.kind == "theorem"
        walk = _theorem_blocks if theorem else _lemma_blocks
        blocks = walk(self.max_n, self.max_degree, self.table)
        rows = chain.from_iterable(block if theorem else _lemma_fields(n - l, block)
                                   for n, l, block in blocks)
        for ci, fields in zip(iter_types(self.max_n, self.max_degree), rows):
            yield record_type(ci, *fields)


def write_scans(reports: Sequence[ScanReport], fmt: str, stream: TextIO) -> None:
    """Write one document holding every report, with no record object: for
    ``json`` the object {"scans": [...]}, for ``csv`` one table (header and
    rows) per report separated by a blank line, for ``table`` one line per
    record of each report in turn.  Each (n, l) block fills its row
    template's n and k once; each row then joins, at C level, the template's
    pieces with the degree list, the total degree (theorem scan) and the
    text of its fields: a theorem row's fields rendered on their first
    lookup, a lemma row's from its block's prefix of a row of b_k.  An
    unknown ``fmt`` raises ValueError before anything is written."""
    if fmt not in _DEGREE_LISTS:
        raise ValueError(f"unknown output format {fmt!r}")
    open_, sep, close, empty = _DEGREE_LISTS[fmt]
    if fmt == "json":
        import json  # only a JSON document loads it

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
        theorem = report.kind == "theorem"
        walk = _theorem_blocks if theorem else _lemma_blocks
        for n, l, block in walk(report.max_n, report.max_degree, report.table):
            pieces = (template % {"n": n, "k": n - l}).split("\0")
            before, after = (open_, close) if l else (empty, "")
            pieces[:2] = pieces[0] + before, after + pieces[1]
            if fmt == "json" and n == 1 and not l:  # the scan's first record
                pieces[0] = "[" + pieces[0][1:]
            slots = [map(sep.join, combinations_with_replacement(degree_texts, l)),
                     map(texts.__getitem__, block) if theorem else texts.lemma_block(n - l, block)]
            if theorem:
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
    table: dict | list,
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
    Each kept verdict must agree with the two degree gates: not rationally
    connected exactly when d > n, a normal-bundle obstruction exactly when
    d = n.  Survivors of all gates must reduce to () or (2); conversely
    every rationally connected homogeneous-shaped type of dimension >= 2
    must survive.  (In dimension <= 1 points and conics have total degree n
    and stop at the normal-bundle gate; lines survive.)

    ``theorem_verdict`` runs on every type.  A type with d > n whose verdict
    is ``NOT_RATIONALLY_CONNECTED`` is only counted, because its record is
    that verdict again; the fields of every other verdict are kept, by n
    and then by degrees, for the second pass.
    """
    not_rc, normal = VerdictKind.NOT_RATIONALLY_CONNECTED, VerdictKind.NORMAL_BUNDLE_OBSTRUCTION
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

        # Finite-scale re-statement of the classification itself, starting
        # with the two degree gates.
        kind = verdict.kind
        if kind is not None and ((kind is not_rc) != (d > n) or (kind is normal) != (d == n)):
            violations.append(f"{kind.value} verdict contradicts total degree {d}: {ci}")
        # Every check below needs a type that passed or is rationally connected.
        passed = kind in (VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC)
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
    return _scan_report("theorem", max_n, max_degree, kept, violations,
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

    The scan walks the classes (D, k), not the types: one run of the
    recurrence per D gives chi for k = 0 .. max_n - |D|, and the checks run
    once per class, on its first type in scan order, D in P^(k + |D|), or
    (1) in P^1 for the point.  The class is tallied once per type within
    the bounds.  A class whose checks fail is one violation, naming that
    first type, and each of its types is a failed record.

    The table keeps only b_k: ``table[k]`` lists the b_k of every class of
    dimension k, ordered by |D| and then D, None for a failed class.  A
    record's p(i) and case follow from (D, k, b_k), and k mod 4 fixes them
    for all D but () and (2)."""
    _check_bounds(max_n, max_degree)
    table: list[list] = [[] for _ in range(max_n + 1)]
    violations: list[str] = []
    tally: Counter = Counter()
    for length in range(max_n + 1):
        for reduced in combinations_with_replacement(range(2, max_degree + 1), length):
            row = euler_characteristic_row(reduced, max_n - length)
            for k, chi in enumerate(row):
                n = k + length
                ci = tuple.__new__(CIType, (n, reduced) if n else (1, (1,)))  # unchecked
                betti = value = case = None
                try:
                    report = compute_invariants(ci, chi)
                    betti, value = report.middle_betti, report.value_at_i
                    case = lemma_classify(ci, report)
                except InternalCheckError as exc:
                    violations.append(str(exc))
                # No type with an entry >= 3, or with two entries >= 2, may
                # vanish: a vanishing p(i) needs a reduced type () or (2).
                # Either violation makes the class a failed one.
                if value is not None and value.is_zero and not _is_homogeneous_shape(ci):
                    violations.append(f"excluded shape vanishes at i: {ci}")
                    case = None
                table[k].append(None if case is None else betti)
                tally[case] += max_n - n + 1 if n else max_n
    return _scan_report("lemma", max_n, max_degree, table, violations,
                        LemmaCase, tally)


def _lemma_blocks(max_n: int, max_degree: int, table: list) -> Iterator:
    """A block lists its types with m leading 1s, for m = l down to 0, each
    m in the order of their reduced multisets D: so its classes are the D
    with |D| <= l at k = n - l, by |D|, then D, which are the first
    C(l + max_degree - 1, l) entries of ``table[k]``.  Each block is one
    (n, l, (row, size)); the first two classes are D = () and D = (2)."""
    for n in range(1, max_n + 1):
        for l in range(n + 1):
            yield n, l, (table[n - l], comb(l + max_degree - 1, l))


def _class_fields(k: int, b: int | None, reduced: tuple[int, ...] | None) -> tuple:
    if b is None:
        return None, None, None
    return b, _value_at_i(k, b), _shape_case(reduced, k)


def _lemma_fields(k: int, block: tuple[list, int]) -> Iterator[tuple]:
    """The (b_k, p(i), case) of each class of the lemma block (row, size),
    rebuilt from k, b_k and the class's position in the prefix of ``row``:
    the first two are D = () and D = (2), and the rest are nonvanishing."""
    row, size = block
    return map(_class_fields, repeat(k), islice(row, size),
               chain(((), (2,)), repeat(None)))

