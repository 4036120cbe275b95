"""Exhaustive scans that re-verify the classification of ``classify`` over
finite ranges, and their one writer.

Scan bounds are a verification budget, not a completeness claim: the scans
re-check mechanically, within the bounds, a classification that holds for
all types.  Degree-1 entries only lower the ambient space, so a type's
verdict and its lemma record depend only on its class (D, k): D its
degrees >= 2, k its dimension.

Each scan makes two passes, serially.  The first runs every check and
keeps the violations and one class table: ``table[k]`` lists the classes
of dimension k by |D|, then D, each as its verdict's fields or as its
b_k, from which p(i) and the case follow.  The theorem scan checks
each type's verdict against its class's, at C level for the types of
known classes.  The lemma scan builds each level |D|'s column of b_k at
each k from its parent level's with a few C-level maps, and checks it at
C level in its slice of ``table[k]``; only the classes of () and (2), and
of a D that fails a column, run the checks once per class.  Every type of
a failed class is a failed record.  A ``ScanReport`` is plain data; its
table's layout is not a contract.  The second pass walks the (n, l)
blocks, whose types are the classes with |D| <= l at k = n - l: a prefix
of ``table[k]``.  It runs once to count the outcomes when the report is
built, and again each time a scan is written or its records are read.  No
check is re-run, so a scan's memory grows with its classes, not its types.

``write_scans`` is the one scan writer.  It fills a row template's n and k
once per block and joins each row, at C level, from constant pieces, the
degree list, the total degree and the text of the row's fields, in exactly
the layout of ``json.dump(..., indent=2)`` for JSON.  It writes a block's
rows in chunks of ``_CHUNK_ROWS`` = 128, one ``write`` per chunk, not one
per row.  Each distinct theorem fields tuple is rendered once per report;
a lemma row past D = () and D = (2) cannot vanish, so its text is one
template per k mod 4, filled from b_k at C level.  Degree multisets of
size 0 and 1 are walked with no pool of the degree range, so beside its
table a scan holds nothing that grows with max_degree.  Only
``ScanReport.records`` builds records, and no record renders itself.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from itertools import chain, combinations_with_replacement, islice, repeat
from math import comb
from operator import add, call, countOf, itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence, TextIO

from .classify import (
    LemmaCase,
    Verdict,
    VerdictKind,
    _NOT_RC_FIELDS,
    _is_homogeneous_shape,
    _shape_case,
    _verdict_fields,
    lemma_classify,
)
from .topology import (
    CIType,
    GaussianInteger,
    InternalCheckError,
    _chi_coefficients,
    _value_at_i,
    compute_invariants,
)


def _check_bounds(max_n: int, max_degree: int) -> None:
    for name, bound in (("max_n", max_n), ("max_degree", max_degree)):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {bound!r}")


#: The most types one ``scan`` may walk; the count grows as a high power of
#: both bounds, so a scan past this is a usage error, not a hang.  Memory
#: grows with the classes, so the worst case has one class per type: ``scan
#: --max-n 1 --max-degree 999999 --which both --format csv --quiet`` takes
#: 1.9-2.4 s at a peak RSS of 61 MB (lemma alone 0.8 s at 53 MB, theorem
#: 1.2 s at 23 MB), almost all of it the two tables and the interpreter.
#: ``--max-n 20 --max-degree 6 --which both --format json`` (888,029 types)
#: takes 2.1 s at 28 MB.  Three runs each on one CPU of a 2-vCPU Xeon VM,
#: Python 3.11.7, stdout to /dev/null.
MAX_SCAN_TYPES = 1_000_000


def _check_scan(max_n: int, max_degree: int) -> None:
    """Reject bad bounds, and bounds past ``MAX_SCAN_TYPES``, with ValueError."""
    _check_bounds(max_n, max_degree)
    if _scan_type_count(max_n, max_degree) > MAX_SCAN_TYPES:
        raise ValueError(f"--max-n {max_n} --max-degree {max_degree} spans more "
                         f"than MAX_SCAN_TYPES = {MAX_SCAN_TYPES:,} types")


def _scan_type_count(max_n: int, max_degree: int) -> int:
    """The number of types a scan walks, C(max_n + max_degree + 1, max_n) - 1,
    or MAX_SCAN_TYPES + 1 as soon as a partial product C(base + i, i) of
    the binomial shows it is larger, so no huge binomial is formed."""
    r = min(max_n, max_degree + 1)
    base = max_n + max_degree + 1 - r
    value = 1
    for i in range(1, r + 1):
        value = value * (base + i) // i
        if value - 1 > MAX_SCAN_TYPES:
            return MAX_SCAN_TYPES + 1
    return value - 1


def _multisets(items: Iterable, size: int) -> Iterator[tuple]:
    """The multisets of ``size`` elements of ``items``, as sorted tuples in
    lexicographic order.  Sizes 0 and 1 hold no pool of ``items``, so a
    lazy ``items`` is never materialized for them."""
    if size >= 2:
        return combinations_with_replacement(items, size)
    return zip(items) if size else iter(((),))


def iter_types(max_n: int, max_degree: int) -> Iterator[CIType]:
    """All types with 1 <= n <= max_n, 0 <= l <= n and degrees in
    [1, max_degree], in canonical (n, l, lexicographic) order.  The bounds
    must be ints >= 1 and are checked at the call; the tuples generated are
    sorted, of ints >= 1 and of length l <= n, so they skip ``CIType``'s
    validation."""
    _check_bounds(max_n, max_degree)
    degree_range = range(1, max_degree + 1)
    return chain.from_iterable(_block_types(n, l, degree_range)
                               for n in range(1, max_n + 1) for l in range(n + 1))


def _block_types(n: int, l: int, degree_range: range) -> Iterator[CIType]:
    """The types of the (n, l) block, unchecked, in canonical order."""
    return map(tuple.__new__, repeat(CIType), zip(repeat(n), _multisets(degree_range, l)))


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


def _field_renderer(kind: str, fmt: str):
    """The function that renders one fields tuple of a ``kind`` scan in
    ``fmt``: (kind, p_X(i), p_F(i)) or (b_k, p(i), case)."""
    template = _FIELD_TEMPLATES[kind][fmt]
    value, out = (_json_value if fmt == "json" else _text), _OUTCOME_TEXT.__getitem__
    cells = (out, value, value) if kind == "theorem" else (value, value, out)
    return lambda fields: template % tuple(map(call, cells, fields))


def _lemma_block(render, tails: tuple[str, ...], k: int,
                 block: tuple[list, int]) -> Iterator[str]:
    """The field texts of the lemma block (row, size) at dimension k.  Only
    its first two classes, D = () and D = (2), can vanish, so they go
    through ``render`` and the rest share ``tails[k % 4]``, mapped over the
    prefix at C level; a block holding a failed class (None) is rendered
    field by field."""
    row, size = block
    fields = map(render, _lemma_fields(k, block))
    if None in islice(row, size):
        return fields
    betti, second = islice(row, 2, size), islice(row, 2, size)
    if k % 4 == 2:
        second = map((2).__sub__, second)
    return chain(islice(fields, 2), map(tails[k % 4].__mod__, zip(betti, second)))


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
        return [f"scan={self.kind} max_n={self.max_n} max_degree={self.max_degree}",
                f"types={self.types}",
                *(f"{name}={count}" for name, count in self.counts.items()),
                f"violations={len(self.violations)}",
                *(f"violation: {v}" for v in self.violations)]

    def records(self) -> Iterator:
        """The scan's records, one per type in canonical order, each built
        from its fields in ``table`` when the caller reaches it, with no
        check re-run; a lemma record's fields are rebuilt from k and b_k."""
        record_type = _RECORD_TYPES[self.kind]
        theorem = self.kind == "theorem"
        rows = chain.from_iterable(
            islice(*block) if theorem else _lemma_fields(n - l, block)
            for n, l, block in _blocks(self.max_n, self.max_degree, self.table))
        for ci, fields in zip(iter_types(self.max_n, self.max_degree), rows):
            yield record_type(ci, *fields)


#: Rows per ``write``.  A text stream's ``write`` is a Python-level call
#: with its own bookkeeping, so one per row costs that per row; a chunk
#: costs it once per 128 rows, and a JSON chunk (about 54 KB) outgrows the
#: stream's 8 KiB buffer and goes straight through.
_CHUNK_ROWS = 128


def write_scans(reports: Sequence[ScanReport], fmt: str, stream: TextIO) -> None:
    """Write one document holding every report, with no record object: for
    ``json`` the object {"scans": [...]}, for ``csv`` one table (header and
    rows) per report separated by a blank line, for ``table`` one line per
    record of each report in turn, each row joined at C level from its
    (n, l) block's template and the prefix of the row of classes that the
    block reads.  A block's rows go out 128 at a time, joined into one
    ``stream.write`` per chunk.  Each distinct theorem fields tuple is
    rendered once per report.  An unknown ``fmt`` raises ValueError before
    anything is written."""
    if fmt not in _DEGREE_LISTS:
        raise ValueError(f"unknown output format {fmt!r}")
    open_, sep, close, empty = _DEGREE_LISTS[fmt]
    tails = _tail_templates(fmt)
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
        render = _field_renderer(report.kind, fmt)
        degree_range = range(1, report.max_degree + 1)
        theorem = report.kind == "theorem"
        if theorem:  # the first pass stored each distinct tuple once
            texts = {fields: render(fields) for fields in set(chain.from_iterable(report.table))}
        for n, l, block in _blocks(report.max_n, report.max_degree, report.table):
            pieces = (template % {"n": n, "k": n - l}).split("\0")
            before, after = (open_, close) if l else (empty, "")
            pieces[:2] = pieces[0] + before, after + pieces[1]
            if fmt == "json" and n == 1 and not l:  # the scan's first record
                pieces[0] = "[" + pieces[0][1:]
            slots = [map(sep.join, _multisets(map(str, degree_range), l)),
                     map(texts.__getitem__, islice(*block)) if theorem
                     else _lemma_block(render, tails, n - l, block)]
            if theorem:
                slots.insert(1, map(str, map(sum, _multisets(degree_range, l))))
            # Each row joins the pieces with the slots between them.
            rows = map("".join, zip(*chain.from_iterable(
                zip(map(repeat, pieces), slots)), repeat(pieces[-1])))
            while chunk := "".join(islice(rows, _CHUNK_ROWS)):
                stream.write(chunk)
        if fmt == "json":
            stream.write(_NEWLINE[_SCAN_DEPTH + 1] + "]" + _NEWLINE[_SCAN_DEPTH] + "}")
    if fmt == "json":
        stream.write((_NEWLINE[1] if reports else "") + "]" + _NEWLINE[0] + "}\n")


def _scan_report(kind: str, max_n: int, max_degree: int, table: list,
                 violations: list[str]) -> ScanReport:
    """The report of a finished scan, its counts read off ``table`` by one
    walk of its blocks, so they are the outcomes of ``records()`` by
    construction: a theorem block counts the kinds of its prefix, a lemma
    block the cases of D = () and D = (2), then its failed classes, and the
    rest as nonvanishing.  The counts list every outcome in order, then the
    failed internal checks (None) if there were any."""
    tally = Counter()
    for n, l, block in _blocks(max_n, max_degree, table):
        row, size = block
        if kind == "theorem":
            tally.update(map(itemgetter(0), islice(row, size)))
            continue
        tally.update(map(itemgetter(2), islice(_lemma_fields(n - l, block), 2)))
        failed = countOf(islice(row, 2, size), None)
        tally[None] += failed
        tally[LemmaCase.NONVANISHING] += max(size - 2, 0) - failed
    outcomes = VerdictKind if kind == "theorem" else LemmaCase
    counts = {outcome.value: tally[outcome] for outcome in outcomes}
    if tally[None]:
        counts["internal_check_failed"] = tally[None]
    return ScanReport(kind, max_n, max_degree, sum(tally.values()), counts,
                      tuple(violations), table)


def scan_theorem(max_n: int, max_degree: int) -> ScanReport:
    """Classify every type within the bounds and re-verify the survivor set.

    ``_verdict_fields``, the pipeline of ``theorem_verdict``, runs once on
    every type, in canonical order.  The table keeps one verdict per class
    (D, k), its fields (kind, p_X(i), p_F(i)) from the class's first type,
    D in P^(k + |D|) or (1) in P^1, each distinct tuple stored once.  Every
    later type of the class must have that verdict, which is invariant
    under hyperplane sections; a type that differs is a violation.  A class
    fails when one of its types differs or raises InternalCheckError
    (recorded as a violation), and each of its types is then the record
    ``Verdict(ci, None)``.

    In each (n, l) block the types with a 1 are those of the classes
    already in the table.  Their fields are mapped at C level into one list
    and compared with the class row at once; a type whose pipeline raises
    leaves its InternalCheckError in the list.  After a violation, or where
    the list differs, the block is walked type by type with the fields in
    the list.  The block's other types open new classes.

    Each class's first type, and each type that differs, must agree with
    the two degree gates: not rationally connected exactly when d > n, a
    normal-bundle obstruction exactly when d = n.  Survivors of all gates
    must reduce to () or (2); conversely every rationally connected
    homogeneous-shaped type of dimension >= 2 must survive.  (In dimension
    <= 1 points and conics have total degree n and stop at the
    normal-bundle gate; lines survive.)
    """
    _check_scan(max_n, max_degree)
    not_rc, normal = VerdictKind.NOT_RATIONALLY_CONNECTED, VerdictKind.NORMAL_BUNDLE_OBSTRUCTION
    table: list[list[tuple]] = [[] for _ in range(max_n + 1)]
    beyond = _NOT_RC_FIELDS  # the fields of every class with d > n
    shared = {beyond: beyond}  # one stored tuple per distinct fields
    failed = (None, None, None)  # the fields of a failed class
    violations: list[str] = []

    def check(ci: CIType, kind: VerdictKind | None) -> None:
        # Finite-scale re-statement of the classification itself, starting
        # with the two degree gates.
        n, degrees = ci
        d = sum(degrees)
        if kind is not None and ((kind is not_rc) != (d > n) or (kind is normal) != (d == n)):
            violations.append(f"{kind.value} verdict contradicts total degree {d}: {ci}")
        passed = kind in (VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC)
        rc = d <= n
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

    # A block's first len(row) types, those with a 1, are those of the
    # classes already in its row, in row order; the rest open new classes.
    degree_range = range(1, max_degree + 1)
    for n, l, (row, _) in _blocks(max_n, max_degree, table):
        known = len(row)
        types = _block_types(n, l, degree_range)
        fields = []  # a type whose pipeline raises holds its InternalCheckError
        while len(fields) < known:
            try:
                fields.extend(map(_verdict_fields, islice(types, known - len(fields))))
            except InternalCheckError as exc:
                fields.append(exc)
        # Only a violation fails a class, so with none yet an equal prefix
        # agrees with its classes type by type: the hot path.
        if violations or fields != row:
            types = _block_types(n, l, degree_range)
            for i, ci, got in zip(range(known), types, fields):
                if isinstance(got, InternalCheckError):
                    violations.append(str(got))
                    got = failed
                cls = row[i]
                if got == cls and cls is not failed:
                    continue  # the type agrees with its class
                if cls is not failed:  # the class fails at this type
                    if got is not failed:
                        violations.append(f"verdict differs from its class: {ci}")
                    row[i] = failed
                check(ci, got[0])
        for ci in types:  # the type opens a class
            try:
                got = _verdict_fields(ci)
            except InternalCheckError as exc:
                violations.append(str(exc))
                got = failed
            got = shared.setdefault(got, got)
            row.append(got)
            if got is beyond and sum(ci[1]) > n:
                continue  # the first pass's most common class: no check can fail
            check(ci, got[0])
    return _scan_report("theorem", max_n, max_degree, table, violations)


def _level_column(parent: list, counts: list, degrees: Iterable,
                  previous: list | None, k: int) -> Iterator:
    """Column k of a level, lazily: the b_k of each child D + (d,) of the
    parent level, from ``parent``, the parent level's column k, ``counts``,
    the number of children of each D, ``degrees``, each child's d, and
    ``previous``, this level's column k - 1.  Since chi_k(D + (d,)) =
    d chi_k(D) - (d - 1) chi_(k-1)(D + (d,)), and b_k is chi_k - k at even
    k and k + 1 - chi_k at odd k, b_k(D + (d,)) = d (b_k(D) + q) - q with
    q = b_(k-1)(D + (d,)), less 2 at odd k."""
    parent = chain.from_iterable(map(repeat, parent, counts))
    if not k:
        return map(mul, degrees, parent)
    if k % 2:
        previous = list(map((-2).__add__, previous))
    return map(sub, map(mul, degrees, map(add, parent, previous)), previous)


def _levels(max_n: int, max_degree: int) -> Iterator:
    """Each l = 0 .. max_n with its columns: for k = 0 .. max_n - l, the b_k
    of the D of length l in P^(k + l), D in lexicographic order.  Only a
    level and its parent are held, as lists of the ints the table keeps;
    the last level's one column is lazy."""
    chi = enumerate(_chi_coefficients((), range(1, max_n + 2)))
    columns = [[k + 1 - c if k % 2 else c - k] for k, c in chi]
    yield 0, columns
    top, degrees = max_degree + 1, [2]  # () has a child of each degree >= 2
    for l in range(1, max_n + 1):
        # The children of D are D + (d,) for d = D[-1] .. max_degree.
        counts = list(map(top.__sub__, degrees))
        degrees = chain.from_iterable(map(range, degrees, repeat(top)))
        if l < max_n:
            degrees = list(degrees)
        parent, columns = columns, []
        for k in range(max_n - l + 1):
            column = _level_column(parent[k], counts, degrees, columns[-1] if k else None, k)
            columns.append(column if l == max_n else list(column))
        yield l, columns


def scan_lemma(max_n: int, max_degree: int) -> ScanReport:
    """Evaluate p(i) for every type within the bounds and verify that it
    vanishes exactly on the three allowed shapes and nowhere else.

    Each column of ``_levels`` is written into its slice of ``table[k]``
    and checked there at C level: b_k >= delta_k, and, past D = () and (2),
    no b_k = 0 at odd k and no b_k = 2 at k = 2 mod 4, where p(i) would
    vanish.  The classes of () and (2), and of each D that fails a column,
    run the checks once per class, on its first type in scan order, D in
    P^(k + |D|) or (1) in P^1: one violation per failing check, naming that
    type, in class order (|D|, D, k).  The table keeps each class's b_k,
    which with k mod 4 fixes p(i) and the case past () and (2), or None for
    a failed class."""
    _check_scan(max_n, max_degree)
    # table[k] lists the D with |D| <= max_n - k by |D|, then D, so those
    # of length l fill the slice [C(l + m - 1, l - 1), C(l + m, l)) of
    # every row, with m = max_degree - 1.
    table = [[None] * comb(max_n - k + max_degree - 1, max_n - k) for k in range(max_n + 1)]
    violations = []
    stop = 0
    for l, columns in _levels(max_n, max_degree):
        start, stop = stop, comb(l + max_degree - 1, max_degree - 1)
        lo = max(start, 2)  # past D = () and D = (2), which can vanish
        failed = {start} if l < 2 else set()  # () and (2) run per class
        for k, column in enumerate(columns):
            row = table[k]
            deque(map(row.__setitem__, range(start, stop), column), 0)
            if (min(islice(row, lo, stop), default=1) < 1 - k % 2  # b_k >= delta_k
                    or k % 2 and 0 in islice(row, lo, stop)  # p(i) = b_k i^k at odd k
                    or k % 4 == 2 and 2 in islice(row, lo, stop)):  # p(i) = 2 - b_k
                failed.update(slot for slot in range(lo, stop)
                              if row[slot] < 1 or k % 4 == 2 and row[slot] == 2)
        # One walk of the level's multisets finds each failing D.
        for slot, reduced in zip(range(start, max(failed, default=0) + 1),
                                 _multisets(range(2, max_degree + 1), l)):
            if slot not in failed:
                continue
            for k, row in enumerate(table[:len(columns)]):
                n, b = k + l, row[slot]
                ci = tuple.__new__(CIType, (n, reduced) if n else (1, (1,)))  # unchecked
                value = case = None
                try:
                    report = compute_invariants(ci, k + 1 - b if k % 2 else b + k)  # chi
                    value = report.value_at_i
                    case = lemma_classify(ci, report)
                except InternalCheckError as exc:
                    violations.append(str(exc))
                # No type with an entry >= 3, or with two entries >= 2, may
                # vanish: a vanishing p(i) needs a reduced type () or (2).
                # Either violation makes the class a failed one.
                if value is not None and value.is_zero and not _is_homogeneous_shape(ci):
                    violations.append(f"excluded shape vanishes at i: {ci}")
                    case = None
                if case is None:  # else the row keeps b_k
                    row[slot] = None
    return _scan_report("lemma", max_n, max_degree, table, violations)


def _blocks(max_n: int, max_degree: int, table: list) -> Iterator:
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

