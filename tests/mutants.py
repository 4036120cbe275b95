"""The mutant gate: every listed change to the package must fail the tests
named with it, so no check or cross-check can turn into a tautology
unnoticed.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant the script copies ``src/`` and ``tests/`` to a temporary
directory, requires the old text to occur exactly once in its file (a
stale mutant fails loudly), applies the change and runs the mutant's tests
there with ``pytest -x``.  The mutant is killed when pytest reports a
failed test; an error before any test runs does not count.  First the
named tests must pass on the unchanged copy.  The script prints one line
per mutant and exits 1 unless every mutant is killed.  Pytest does not
collect this file, whose name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("gate 1 as d >= n", "src/ci_invariants/classify.py",
           "    if d > n:\n", "    if d >= n:\n",
           ("tests/test_classify.py",)),
    Mutant("parity check always passes", "src/ci_invariants/classify.py",
           "            ok = p_x.is_zero != p_f.is_zero\n", "            ok = True\n",
           ("tests/test_classify.py",)),
    Mutant("non-homogeneous survivor passes", "src/ci_invariants/classify.py",
           "        if p_x.is_zero or p_f.is_zero:\n", "        if False:\n",
           ("tests/test_classify.py::TestNonHomogeneousSurvivor",)),
    Mutant("no dimension <= 1 catalog check", "src/ci_invariants/scan.py",
           "        if rc and ci.dimension <= 1 and not homogeneous:\n", "        if False:\n",
           ("tests/test_classify.py::TestDimensionLeq1Catalog"
            "::test_non_homogeneous_curve_is_a_violation",)),
    Mutant("theorem scan without its degree-gate check", "src/ci_invariants/scan.py",
           "        if kind is not None and ((kind is not_rc) != (d > n) or (kind is normal) != (d == n)):\n",
           "        if False:\n",
           ("tests/test_classify.py::TestScanTheorem"
            "::test_verdicts_against_the_degree_gates_are_violations",)),
    Mutant("theorem scan without its class check", "src/ci_invariants/scan.py",
           "                if cls is not failed:  # the class fails at this type\n",
           "                if False:\n",
           ("tests/test_classify.py::TestScanTheorem"
            "::test_a_type_that_differs_from_its_class_fails_the_class",)),
    Mutant("known prefix accepted without comparison", "src/ci_invariants/scan.py",
           "        if violations or fields != row:\n", "        if violations:\n",
           ("tests/test_classify.py::TestScanTheorem"
            "::test_a_type_that_differs_from_its_class_fails_the_class",)),
    Mutant("re-walk calls the pipeline again", "src/ci_invariants/scan.py",
           "zip(range(known), types, fields)",
           "zip(range(known), types, map(_verdict_fields, _block_types(n, l, degree_range)))",
           ("tests/test_classify.py::TestScanTheorem::test_a_failure_inside_a_known_prefix",)),
    Mutant("theorem counts of the whole row, not the block's prefix", "src/ci_invariants/scan.py",
           "tally.update(map(itemgetter(0), islice(row, size)))",
           "tally.update(map(itemgetter(0), row))",
           ("tests/test_classify.py::TestScanRecords::test_counts_are_the_records_outcomes",)),
    Mutant("failed lemma tail classes counted as nonvanishing", "src/ci_invariants/scan.py",
           "        tally[LemmaCase.NONVANISHING] += max(size - 2, 0) - failed\n",
           "        tally[LemmaCase.NONVANISHING] += max(size - 2, 0)\n",
           ("tests/test_classify.py::TestScanLemma::test_internal_check_failure_is_a_violation",)),
    Mutant("multisets of sizes 0 and 1 from a pool", "src/ci_invariants/scan.py",
           "    if size >= 2:\n", "    if size >= 0:\n",
           ("tests/test_classify.py::TestScanRecords"
            "::test_one_class_per_type_peaks_at_its_table",)),
    Mutant("writer drops a block's last partial chunk", "src/ci_invariants/scan.py",
           '            while chunk := "".join(islice(rows, _CHUNK_ROWS)):\n'
           "                stream.write(chunk)\n",
           "            while len(chunk := list(islice(rows, _CHUNK_ROWS))) == _CHUNK_ROWS:\n"
           '                stream.write("".join(chunk))\n',
           ("tests/test_scan_output.py::test_scan_document_digest",)),
    Mutant("writer writes one row per call", "src/ci_invariants/scan.py",
           "islice(rows, _CHUNK_ROWS)", "islice(rows, 1)",
           ("tests/test_scan_output.py::test_rows_are_written_in_chunks",)),
    Mutant("lemma block prefix one class short per length", "src/ci_invariants/scan.py",
           "comb(l + max_degree - 1, l)", "comb(l + max_degree - 2, l)",
           ("tests/test_classify.py::TestScanLemma::test_records_equal_direct_computation",)),
    Mutant("lemma row check without b_k >= delta_k", "src/ci_invariants/scan.py",
           "min(islice(row, lo, stop), default=1) < 1 - k % 2", "False",
           ("tests/test_classify.py::TestScanLemma::test_internal_check_failure_is_a_violation",)),
    Mutant("lemma row check without 0 at odd k", "src/ci_invariants/scan.py",
           "or k % 2 and 0 in islice(row, lo, stop)", "or False",
           ("tests/test_classify.py::TestScanLemma"
            "::test_vanishing_excluded_shape_is_a_violation",)),
    Mutant("lemma row check without 2 at k = 2 mod 4", "src/ci_invariants/scan.py",
           "or k % 4 == 2 and 2 in islice(row, lo, stop)", "or False",
           ("tests/test_classify.py::TestScanLemma::test_vanishing_at_k_2_mod_4_is_a_violation",)),
    Mutant("leaf level without its b_k check", "src/ci_invariants/scan.py",
           "            if (min(islice(row, lo, stop)",
           "            if l < max_n and (min(islice(row, lo, stop)",
           ("tests/test_classify.py::TestScanLemma::test_failure_in_the_leaf_level",)),
    Mutant("level column written one slot off", "src/ci_invariants/scan.py",
           "map(row.__setitem__, range(start, stop), column)",
           "map(row.__setitem__, range(start + 1, stop + 1), column)",
           ("tests/test_classify.py::TestScanLemma::test_records_equal_direct_computation",)),
    Mutant("+b at k = 3 mod 4", "src/ci_invariants/topology.py",
           "b if k % 4 == 1 else -b)", "b if k % 4 == 1 else b)",
           ("tests/test_topology.py",)),
    Mutant("b_k >= 0 for b_k >= delta_k", "src/ci_invariants/topology.py",
           "    if b < delta:\n", "    if b < 0:\n",
           ("tests/test_topology.py",)),
    Mutant("Euler recurrence with + r", "src/ci_invariants/topology.py",
           "c -= r * outputs[f]", "c += r * outputs[f]",
           ("tests/test_topology.py",)),
    Mutant("Euler recurrence with + r, in the lemma scan's rows", "src/ci_invariants/scan.py",
           "map(sub, map(mul, degrees, map(add, parent, previous)), previous)",
           "map(add, map(mul, degrees, map(sub, parent, previous)), previous)",
           ("tests/test_classify.py::TestScanLemma::test_small_scan_clean",)),
    Mutant("Euler recurrence without its running values", "src/ci_invariants/topology.py",
           "            outputs[f] = c\n", "",
           ("tests/test_topology.py",)),
    Mutant("poincare without b_k", "src/ci_invariants/topology.py",
           "        coeffs[k] = self.middle_betti\n", "",
           ("tests/test_topology.py",)),
    Mutant("fiber without its hyperplanes", "src/ci_invariants/lines.py",
           "range(1, deg + 1)", "range(2, deg + 1)",
           ("tests/test_lines.py",)),
    Mutant("polynomial text keeps zero terms", "src/ci_invariants/cli.py",
           "for j, c in enumerate(value) if c)", "for j, c in enumerate(value))",
           ("tests/test_cli.py::TestInvariantsCommand",)),
    Mutant("polynomial text writes coefficient 1", "src/ci_invariants/cli.py",
           'return power if c == 1 else f"{c}{power}"', 'return f"{c}{power}"',
           ("tests/test_cli.py::TestInvariantsCommand",)),
    Mutant("stderr write not best-effort", "src/ci_invariants/cli.py",
           "with contextlib.suppress(OSError):", "with contextlib.suppress():",
           ("tests/test_cli.py::TestUsage",)),
    Mutant("eager scan import", "src/ci_invariants/cli.py",
           "from .lines import fiber_type, line_geometry\n",
           "from . import scan\nfrom .lines import fiber_type, line_geometry\n",
           ("tests/test_cli.py::TestUsage::test_import_footprint",)),
]


def copy_checkout(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__"))


def run_tests(checkout: Path, tests) -> int:
    """pytest's exit code for ``tests`` in ``checkout``, stopping at the
    first failure; the copy's ``src`` is the package imported."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp) / "baseline"
        copy_checkout(baseline)
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = run_tests(baseline, tests)
        if code != pytest.ExitCode.OK:
            print(f"the named tests fail without a mutant (pytest exit {code})")
            return 1
        for i, mutant in enumerate(MUTANTS):
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
            code = run_tests(checkout, mutant.tests)
            elapsed = time.perf_counter() - start
            if code == pytest.ExitCode.TESTS_FAILED:
                print(f"killed    {mutant.name} ({elapsed:.1f} s)")
            else:
                print(f"SURVIVED  {mutant.name}: pytest exit {code} ({elapsed:.1f} s)")
                failures += 1
            shutil.rmtree(checkout)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
