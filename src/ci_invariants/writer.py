"""The layout of a scan's class table, and the one writer of scan
documents.

A scan's ``table[k]`` lists the classes of dimension k by |D|, then D; the
(n, l) block reads its first ``_classes(l, max_degree)`` entries
(``_blocks``), and a lemma class's fields are rebuilt from k and b_k
(``_lemma_fields``).

``write_scans`` fills a row template's n and k once per block and joins
each row, at C level, from constant pieces, the degree list, the total
degree and the text of the row's fields, in exactly the layout of
``json.dump(..., indent=2)`` for JSON.  It writes a block's rows in chunks
of ``_CHUNK_ROWS`` = 128, one ``write`` per chunk, not one per row.  Each
distinct theorem fields tuple is rendered once per report; a lemma row
past D = () and D = (2) cannot vanish, so its text is one template per
k mod 4, rendered once from its p(i), ``_value_at_i``, and filled from b_k
at C level.  A theorem row's total degree is read off its level's sums,
each level built from the one before at C level (``_total_degrees``),
with no ``sum`` per row.  Degree multisets of size 0 and 1, and levels 0
and 1 of the sums, are walked with no pool or list of the degree range, so
beside its table a scan holds nothing that grows with max_degree.  Only
``ScanReport.records`` builds records, and no record renders itself.

``scan`` imports this module; this module imports nothing from ``scan``
at run time.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations_with_replacement, islice, repeat
from math import comb
from operator import call
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from .classify import LemmaCase, Verdict, VerdictKind, _shape_case
from .topology import GaussianInteger, _value_at_i

if TYPE_CHECKING:
    from .scan import ScanReport


def _multisets(items: Iterable, size: int) -> Iterator[tuple]:
    """The multisets of ``size`` elements of ``items``, as sorted tuples in
    lexicographic order.  Sizes 0 and 1 hold no pool of ``items``, so a
    lazy ``items`` is never materialized for them."""
    if size >= 2:
        return combinations_with_replacement(items, size)
    return zip(items) if size else iter(((),))


def _blocks(max_n: int, max_degree: int, table: list) -> Iterator:
    """A block lists its types with m leading 1s, for m = l down to 0, each
    m in the order of their reduced multisets D: so its classes are the D
    with |D| <= l at k = n - l, by |D|, then D, which are the first
    ``_classes(l, max_degree)`` entries of ``table[k]``.  Each block is one
    (n, l, (row, size)); the first two classes are D = () and D = (2)."""
    for n in range(1, max_n + 1):
        for l in range(n + 1):
            yield n, l, (table[n - l], _classes(l, max_degree))


def _classes(l: int, max_degree: int) -> int:
    """The number of classes (D, k) at one k with |D| <= l, D of degrees in
    [2, max_degree]: C(l + max_degree - 1, l), the multisets of at most l
    of those max_degree - 1 degrees."""
    return comb(l + max_degree - 1, l)


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


class LemmaRecord(namedtuple("LemmaRecord", "ci middle_betti value_at_i case")):
    """One scanned type with its middle Betti number, its Poincare value at
    i, and the vanishing case it falls in.  A field is None when an internal
    check failed before it was computed (recorded as a violation)."""

    __slots__ = ()

    CSV_HEADER = ("n", "degrees", "dimension", "middle_betti", "p_at_i", "case")


_RECORD_TYPES = {"theorem": Verdict, "lemma": LemmaRecord}


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


def _tail_templates(fmt: str) -> tuple[str, ...]:
    """The fields of a nonvanishing lemma class in ``fmt`` by k mod 4, as a
    template for (b_k, b_k), or (b_k, 2 - b_k) when k = 2 mod 4: the class
    rendered at a b whose text occurs nowhere else, with the texts of 2 - b
    and b made slots.  Filled with a b_k >= 1, as the scan checks, it is the
    text of the class's fields."""
    render, b = _field_renderer("lemma", fmt), 10**30 + 7
    return tuple(render((b, _value_at_i(k, b), LemmaCase.NONVANISHING)).replace(
        str(2 - b), "%d").replace(str(b), "%d") for k in range(4))


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


def _total_degrees(degree_range: range, n: int) -> Iterator[Iterable[int]]:
    """For l = 0 .. n, the total degrees of the multisets of l elements of
    ``degree_range``, in the order of ``_multisets``: the (n, l) blocks'
    total degrees.  Levels 0 and 1 are (0,) and the range itself; level l
    >= 2 is built from level l - 1 at C level, as a list only for l < n,
    so at most two levels are held."""
    yield (0,)
    level = degree_range
    for l in range(2, n + 1):
        yield level
        level = _level_sums(level, l, degree_range.stop)
        if l < n:
            level = list(level)
    yield level


def _level_sums(previous: Sequence[int], l: int, top: int) -> Iterator[int]:
    """Level l's total degrees from ``previous``, level l - 1's: the
    multisets that start with d are d and one of the last C(top - d + l - 2,
    l - 1) multisets of level l - 1, those of degrees d .. top - 1."""
    size = len(previous)
    return chain.from_iterable(
        map(d.__add__, islice(previous, size - comb(top - d + l - 2, l - 1), None))
        for d in range(1, top))


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
        if theorem:  # the set renders each distinct tuple once
            texts = {fields: render(fields) for fields in set(chain.from_iterable(report.table))}
            sums = chain.from_iterable(map(_total_degrees, repeat(degree_range),
                                           range(1, report.max_n + 1)))
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
                slots.insert(1, map(str, next(sums)))
            # Each row joins the pieces with the slots between them.
            rows = map("".join, zip(*chain.from_iterable(
                zip(map(repeat, pieces), slots)), repeat(pieces[-1])))
            while chunk := "".join(islice(rows, _CHUNK_ROWS)):
                stream.write(chunk)
        if fmt == "json":
            stream.write(_NEWLINE[_SCAN_DEPTH + 1] + "]" + _NEWLINE[_SCAN_DEPTH] + "}")
    if fmt == "json":
        stream.write((_NEWLINE[1] if reports else "") + "]" + _NEWLINE[0] + "}\n")
