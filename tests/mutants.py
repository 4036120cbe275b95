"""The mutant gate: every mutant of the package must fail the tier-1
suite, so no check or cross-check can turn into a tautology unnoticed.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Each check site has a removal mutant by construction: every ``if`` in
``src/ci_invariants/*.py`` whose body, at any depth, raises
``InternalCheckError(...)`` or calls ``violations.append(...)`` has its
condition replaced by ``False``, at the condition's source positions, so a
condition that spans lines is replaced whole.  Each is named
``file:line <condition>``.  The script exits 1 if it derives no site.  The
hand-written mutants below change what a removal cannot: gate arithmetic,
recurrences, the writer, and the parts of a compound condition.

For each mutant the script copies ``src/``, ``tests/`` and ``README.md``
to a temporary directory, requires the old text to occur exactly once in
its file (a stale mutant fails loudly), applies the change and runs the
whole suite there with ``pytest -x``.  The mutant is killed when pytest
reports a failed test; an error before any test runs does not count.
First the suite must pass on the unchanged copy.  The script prints one
line per mutant and exits 1 unless every mutant is killed.  Pytest does
not collect this file, whose name does not match ``test_*.py``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str


MUTANTS = [
    Mutant("gate 1 as d >= n", "src/ci_invariants/classify.py",
           "    if d > n:\n", "    if d >= n:\n"),
    Mutant("parity check always passes", "src/ci_invariants/classify.py",
           "            ok = p_x.is_zero != p_f.is_zero\n", "            ok = True\n"),
    Mutant("known prefix accepted without comparison", "src/ci_invariants/scan.py",
           "        if violations or fields != row:\n", "        if violations:\n"),
    Mutant("re-walk calls the pipeline again", "src/ci_invariants/scan.py",
           "zip(range(known), types, fields)",
           "zip(range(known), types, map(_verdict_fields, _block_types(n, l, degree_range)))"),
    Mutant("new classes of a 2l > n block accepted unchecked", "src/ci_invariants/scan.py",
           "chain((True,), map(is_not,", "chain((False,), repeat(False), map(is_not,"),
    Mutant("the point accepted unchecked with the d > n fields", "src/ci_invariants/scan.py",
           "chain((True,), map(is_not,", "chain((False,), map(is_not,"),
    Mutant("theorem counts of the whole row, not the block's prefix", "src/ci_invariants/scan.py",
           "tally.update(map(itemgetter(0), islice(row, size)))",
           "tally.update(map(itemgetter(0), row))"),
    Mutant("failed lemma tail classes counted as nonvanishing", "src/ci_invariants/scan.py",
           "        tally[LemmaCase.NONVANISHING] += max(size - 2, 0) - failed\n",
           "        tally[LemmaCase.NONVANISHING] += max(size - 2, 0)\n"),
    Mutant("multisets of sizes 0 and 1 from a pool", "src/ci_invariants/writer.py",
           "    if size >= 2:\n", "    if size >= 0:\n"),
    Mutant("writer drops a block's last partial chunk", "src/ci_invariants/writer.py",
           '            while chunk := "".join(islice(rows, _CHUNK_ROWS)):\n'
           "                stream.write(chunk)\n",
           "            while len(chunk := list(islice(rows, _CHUNK_ROWS))) == _CHUNK_ROWS:\n"
           '                stream.write("".join(chunk))\n'),
    Mutant("writer writes one row per call", "src/ci_invariants/writer.py",
           "islice(rows, _CHUNK_ROWS)", "islice(rows, 1)"),
    Mutant("total degrees from a suffix shifted by one", "src/ci_invariants/writer.py",
           "size - comb(top - d + l - 2, l - 1)", "size + 1 - comb(top - d + l - 2, l - 1)"),
    Mutant("lemma block prefix one class short per length", "src/ci_invariants/writer.py",
           "comb(l + max_degree - 1, l)", "comb(l + max_degree - 2, l)"),
    Mutant("lemma row check without b_k >= delta_k", "src/ci_invariants/scan.py",
           "min(islice(row, lo, stop), default=1) < 1 - k % 2", "False"),
    Mutant("lemma row check without 0 at odd k", "src/ci_invariants/scan.py",
           "or k % 2 and 0 in islice(row, lo, stop)", "or False"),
    Mutant("lemma row check without 2 at k = 2 mod 4", "src/ci_invariants/scan.py",
           "or k % 4 == 2 and 2 in islice(row, lo, stop)", "or False"),
    Mutant("leaf level without its b_k check", "src/ci_invariants/scan.py",
           "            if (min(islice(row, lo, stop)",
           "            if l < max_n and (min(islice(row, lo, stop)"),
    Mutant("level column written one slot off", "src/ci_invariants/scan.py",
           "map(row.__setitem__, range(start, stop), column)",
           "map(row.__setitem__, range(start + 1, stop + 1), column)"),
    Mutant("+b at k = 3 mod 4", "src/ci_invariants/topology.py",
           "b if k % 4 == 1 else -b)", "b if k % 4 == 1 else b)"),
    Mutant("b_k >= 0 for b_k >= delta_k", "src/ci_invariants/topology.py",
           "    if b < delta:\n", "    if b < 0:\n"),
    Mutant("Euler recurrence with + r", "src/ci_invariants/topology.py",
           "c -= r * outputs[f]", "c += r * outputs[f]"),
    Mutant("Euler recurrence with + r, in the lemma scan's rows", "src/ci_invariants/scan.py",
           "map(sub, map(mul, degrees, map(add, parent, previous)), previous)",
           "map(add, map(mul, degrees, map(sub, parent, previous)), previous)"),
    Mutant("Euler recurrence without its running values", "src/ci_invariants/topology.py",
           "            outputs[f] = c\n", ""),
    Mutant("poincare without b_k", "src/ci_invariants/topology.py",
           "        coeffs[k] = self.middle_betti\n", ""),
    Mutant("fiber without its hyperplanes", "src/ci_invariants/lines.py",
           "range(1, deg + 1)", "range(2, deg + 1)"),
    Mutant("polynomial text keeps zero terms", "src/ci_invariants/cli.py",
           "for j, c in enumerate(value) if c)", "for j, c in enumerate(value))"),
    Mutant("polynomial text writes coefficient 1", "src/ci_invariants/cli.py",
           'return power if c == 1 else f"{c}{power}"', 'return f"{c}{power}"'),
    Mutant("stderr write not best-effort", "src/ci_invariants/cli.py",
           "with contextlib.suppress(OSError):", "with contextlib.suppress():"),
    Mutant("eager scan import", "src/ci_invariants/cli.py",
           "from .lines import fiber_type, line_geometry\n",
           "from . import scan\nfrom .lines import fiber_type, line_geometry\n"),
]


def is_check(node: ast.AST) -> bool:
    """Whether ``node`` raises ``InternalCheckError(...)`` or calls
    ``violations.append(...)``."""
    if isinstance(node, ast.Raise):
        return isinstance(node.exc, ast.Call) and ast.unparse(node.exc.func) == "InternalCheckError"
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "violations.append"


def removals() -> list[Mutant]:
    """One mutant per check site of the package, in file and line order:
    the whole file, with the site's condition replaced by ``False``."""
    mutants = []
    for path in sorted((ROOT / "src" / "ci_invariants").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        data = text.encode()  # the node positions count UTF-8 bytes
        starts = list(accumulate(map(len, data.splitlines(keepends=True)), initial=0))
        sites = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.If)
                 and any(is_check(inner) for statement in node.body for inner in ast.walk(statement))]
        for node in sorted(sites, key=lambda node: node.lineno):
            test = node.test
            begin = starts[test.lineno - 1] + test.col_offset
            end = starts[test.end_lineno - 1] + test.end_col_offset
            mutants.append(Mutant(f"{path.name}:{node.lineno} {ast.unparse(test)}",
                                  path.relative_to(ROOT).as_posix(), text,
                                  (data[:begin] + b"False" + data[end:]).decode()))
    return mutants


def copy_checkout(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", into)


def run_tests(checkout: Path) -> int:
    """pytest's exit code for the tier-1 suite in ``checkout``, stopping at
    the first failure; the copy's ``src`` is the package imported."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    derived = removals()
    if not derived:
        print("no check site derived from src/ci_invariants")
        return 1
    print(f"{len(derived)} check sites derived")
    mutants = MUTANTS + derived
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline"
        copy_checkout(baseline)
        code = run_tests(baseline)
        if code != pytest.ExitCode.OK:
            print(f"tier-1 fails without a mutant (pytest exit {code})")
            return 1
        for i, mutant in enumerate(mutants):
            checkout = Path(tmp) / f"mutant{i}"
            copy_checkout(checkout)
            target = checkout / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"STALE     {mutant.name}: old text occurs {count} times in {mutant.path}")
                failures += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            code = run_tests(checkout)
            elapsed = time.perf_counter() - start
            if code == pytest.ExitCode.TESTS_FAILED:
                print(f"killed    {mutant.name} ({elapsed:.1f} s)")
            else:
                print(f"SURVIVED  {mutant.name}: pytest exit {code} ({elapsed:.1f} s)")
                failures += 1
            shutil.rmtree(checkout)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
