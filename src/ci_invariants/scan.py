"""Exhaustive scans that re-verify the classification of ``classify`` over
finite ranges.

Scan bounds are a verification budget, not a completeness claim: the scans
re-check mechanically, within the bounds, a classification that holds for
all types.  Degree-1 entries only lower the ambient space, so a type's
verdict and its lemma record depend only on its class (D, k): D its
degrees >= 2, k its dimension.

Each scan makes two passes, serially.  The first runs every check and
keeps the violations and one class table: ``table[k]`` lists the classes
of dimension k by |D|, then D, each as its verdict's fields or as its
b_k, from which p(i) and the case follow.  The theorem scan maps the
pipeline over each block's plain (n, degrees) pairs at C level, with no
``CIType`` per type, and checks each type's verdict against its class's,
at C level for the types of known classes.  It walks every new class of
a block with 2l <= n, and of a block with 2l > n only those whose checks
can fail.  The lemma scan builds each level |D|'s column of b_k at each
k from its parent level's with a few C-level maps, and checks it at C
level in its slice of ``table[k]``; only the classes of () and (2), and
of a D that fails a column, run the checks once per class, and a class
whose column fails is a failed one even if no check of its own fails.
Every type of a failed class is a failed record.  A ``ScanReport`` is
plain data; its table's layout is not a contract.  The second pass walks
the (n, l) blocks, whose types are the classes with |D| <= l at
k = n - l: a prefix of ``table[k]``.  It runs once to count the outcomes
when the report is built, and again each time a scan is written or its
records are read.  No check is re-run, so a scan's memory grows with its
classes, not its types.

The blocks, the records' fields and ``write_scans``, the one scan writer,
are in ``writer``.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from itertools import chain, compress, islice, repeat
from math import comb
from operator import add, countOf, is_not, itemgetter, mul, sub
from typing import Iterable, Iterator

from .classify import (
    LemmaCase,
    VerdictKind,
    _NOT_RC_FIELDS,
    _is_homogeneous_shape,
    _verdict_fields,
    lemma_classify,
)
from .topology import CIType, InternalCheckError, compute_invariants
from .writer import _RECORD_TYPES, _blocks, _lemma_fields, _multisets


def _check_bounds(max_n: int, max_degree: int) -> None:
    for name, bound in (("max_n", max_n), ("max_degree", max_degree)):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {bound!r}")


#: The most types one ``scan`` may walk; the count grows as a high power of
#: both bounds, so a scan past this is a usage error, not a hang.  Memory
#: grows with the classes, so the worst case has one class per type: ``scan
#: --max-n 1 --max-degree 999999 --which both --format csv --quiet`` takes
#: 1.7-1.8 s at a peak RSS of 61 MB (lemma alone 0.8-0.9 s at 53 MB,
#: theorem 0.9 s at 23 MB), almost all of it the two tables and the
#: interpreter.  ``--max-n 20 --max-degree 6 --which both --format json``
#: (888,029 types) takes 1.8-1.9 s at 28-29 MB.  Three runs each on one CPU
#: of a 2-vCPU Xeon VM, Python 3.11.7, stdout to /dev/null.
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
    D in P^(k + |D|) or (1) in P^1.  Every later type of the class must
    have that verdict, which is invariant under hyperplane sections; a type
    that differs is a violation.  A class fails when one of its types
    differs or raises InternalCheckError (recorded as a violation), and each
    of its types is then the record ``Verdict(ci, None)``.

    The pipeline is mapped at C level over each (n, l) block's plain
    (n, degrees) pairs; only the types that reach the Poincare gate, and
    the types that the checks below name, become ``CIType``s.  In each
    block the types with a 1 are those of the classes already in the
    table.  Their fields are mapped into one list and compared with the
    class row at once; a type whose pipeline raises leaves its
    InternalCheckError in the list.  After a violation, or where the list
    differs, the block is walked type by type with the fields in the list.
    The block's other types open new classes, whose fields extend the row
    straight from the map.

    Each class's first type, and each type that differs, must agree with
    the two degree gates: not rationally connected exactly when d > n, a
    normal-bundle obstruction exactly when d = n.  Survivors of all gates
    must reduce to () or (2); conversely every rationally connected
    homogeneous-shaped type of dimension >= 2 must survive.  (In dimension
    <= 1 points and conics have total degree n and stop at the
    normal-bundle gate; lines survive.)  Where 2l > n, every new class but
    the block's first has d >= 2l > n, so with the d > n fields it passes
    every check and is not walked; the first, which at (1, 1) is the point
    (1) in P^1 with d = n, always is.
    """
    _check_scan(max_n, max_degree)
    not_rc, normal = VerdictKind.NOT_RATIONALLY_CONNECTED, VerdictKind.NORMAL_BUNDLE_OBSTRUCTION
    table: list[list[tuple]] = [[] for _ in range(max_n + 1)]
    beyond = _NOT_RC_FIELDS  # the fields of every class with d > n
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
        pairs = zip(repeat(n), _multisets(degree_range, l))
        fields = []  # a type whose pipeline raises holds its InternalCheckError
        while len(fields) < known:
            try:
                fields.extend(map(_verdict_fields, islice(pairs, known - len(fields))))
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
        while True:  # the block's other types open new classes
            try:
                row.extend(map(_verdict_fields, pairs))
                break
            except InternalCheckError as exc:
                violations.append(str(exc))
                row.append(failed)
        # The new classes' D have no 1; the row was empty only in the (k, 0)
        # blocks and in the point's (1, 1) block, whose classes all are new.
        new = zip(_multisets(range(2 if known else 1, max_degree + 1), l),
                  islice(row, known, None))
        if 2 * l > n:  # d > n past the first new class: the d > n fields pass
            new = compress(new, chain((True,), map(is_not, islice(row, known + 1, None),
                                                   repeat(beyond))))
        for degrees, got in new:
            check(tuple.__new__(CIType, (n, degrees)), got[0])
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
    columns = [[1 - k % 2] for k in range(max_n + 1)]  # b_k(P^k)
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
    type, in class order (|D|, D, k).  A class (D, k) whose column fails is
    a failed one even when no check of its own fails, with one violation
    that names its first type.  The table keeps each class's b_k, which
    with k mod 4 fixes p(i) and the case past () and (2), or None for a
    failed class."""
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
        # The slots that run per class, each with the k whose column it
        # fails: () and (2), and each D that fails a column.
        failed = {start: []} if l < 2 else {}
        for k, column in enumerate(columns):
            row = table[k]
            deque(map(row.__setitem__, range(start, stop), column), 0)
            if (min(islice(row, lo, stop), default=1) < 1 - k % 2  # b_k >= delta_k
                    or k % 2 and 0 in islice(row, lo, stop)  # p(i) = b_k i^k at odd k
                    or k % 4 == 2 and 2 in islice(row, lo, stop)):  # p(i) = 2 - b_k
                for slot in range(lo, stop):
                    if row[slot] < 1 or k % 4 == 2 and row[slot] == 2:
                        failed.setdefault(slot, []).append(k)
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
                # Any violation makes the class a failed one.
                if value is not None and value.is_zero and not _is_homogeneous_shape(ci):
                    violations.append(f"excluded shape vanishes at i: {ci}")
                    case = None
                if case is not None and k in failed[slot]:  # no check named it
                    violations.append(f"b_k = {b} fails its column check: {ci}")
                    case = None
                if case is None:  # else the row keeps b_k
                    row[slot] = None
    return _scan_report("lemma", max_n, max_degree, table, violations)


