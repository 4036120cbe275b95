"""Benchmark of the ci-invariants command line, run as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every timed CLI call is a fresh process, because the package's caches are
process-wide: a repeat inside one process would time cache hits.

Workloads:

* ``scan-lemma``: ``scan --max-n 12 --max-degree 6 --which lemma --format
  csv`` (50,387 types).  Every type goes through compute_invariants and
  lemma_classify: the chi engine in topology/exact, with almost no line
  geometry.
* ``scan-theorem-json``: ``scan --max-n 14 --max-degree 6 --which theorem
  --format json`` (116,279 types).  98.7% of
  types stop at the d > n gate, so this exercises enumeration, record
  building and JSON serialization, and bypasses the chi engine.
* ``query-large-n``: a seeded batch of single-type ``invariants``,
  ``classify`` and ``fiber`` calls at 177 <= n <= 873: big-integer series
  arithmetic, the product obstruction and process start-up, with no scan
  and little serialization.

One benchmark process runs the calls one after another (a closed loop of
one client).  Scans keep the CLI's default thread count; every call runs on
one CPU (see bench/launch.py for why).

With ``--trace 0`` the benchmark repeats the workload's unit (one scan, or
the whole query batch) while another unit fits in ``--seconds`` and prints
the end-to-end metrics.  With ``--trace 1`` it runs each call of one unit
twice, plain and under ``bench/tracer.py``, and prints the per-layer
metrics; ``trace.overhead_s`` is the traced minus the plain wall time.

Every output is checked against ``bench/reference.py``, outside the timed
part.  The last line of stdout is the JSON result; the full record (calls,
queries, trace spans, machine) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import reference  # noqa: E402

#: Scan bounds (max n, max degree).  The lemma scan costs about 90 us per
#: type against the theorem scan's 40 us, so its bounds are smaller: a run
#: then holds enough scans for their median to ride out the host's
#: slow moments.
LEMMA_BOUNDS = (12, 6)
THEOREM_BOUNDS = (14, 6)
#: Set-up spawns before every unit.
SAMPLES_PER_UNIT = 5
#: The host's speed drifts by up to a half within minutes (identical lemma
#: scans took 2.9 to 4.8 s of CPU within four minutes).  So every timed run
#: also times bench/probe.py, a fixed pure-Python job, at least every
#: PROBE_EVERY_S seconds, and the end-to-end times are scaled to a host on
#: which the probe takes PROBE_REF_S.  Across a drifting stretch, medians of
#: seven lemma scans spread by 19% raw and by 7% scaled.
PROBE_EVERY_S = 4.0
PROBE_REF_S = 0.75
#: A run must end within 180 s; calls still running at this point are killed.
RUN_DEADLINE_S = 165.0

SUBCOMMANDS = ("invariants", "classify", "fiber")
FORMATS = ("table", "json", "csv")
#: Query strata: (centre of the n bucket, number of degrees, total degree).
#: A query's cost is set by n and by how many series products its type and
#: its fiber need (the number of degrees, and the total degree), so fixing
#: these per stratum keeps the batch's cost alike across seeds.  The seed
#: picks n within N_JITTER of the centre and the degrees among all tuples in
#: 2..6 with that count and total.  Each run of three strata gives each
#: subcommand every format once, in a seeded order, so that output size too
#: stays alike across seeds.
QUERY_STRATA = [(192, 3, 12), (275, 3, 10), (358, 1, 6),
                (442, 2, 9), (525, 3, 8), (608, 2, 8),
                (692, 2, 7), (775, 1, 4), (858, 2, 6)]
N_JITTER = 15


@dataclass
class Call:
    """One CLI invocation and how to check what it wrote."""

    args: list[str]
    check: Callable[[Path], list[str]]
    out: Path | None = None  # the scan's --out file; stdout otherwise


@dataclass
class Workload:
    units: list[Call]
    items: int  # types or queries completed by one unit
    inputs: list


@dataclass
class Outcome:
    args: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    output_bytes: int
    exit_code: int
    problems: list[str] = field(default_factory=list)
    traced: bool = False

    def record(self) -> dict:
        return {"args": self.args, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "rss_mb": self.rss_mb, "output_bytes": self.output_bytes,
                "exit_code": self.exit_code, "traced": self.traced,
                "problems": [problem[:300] for problem in self.problems[:3]]}


def scan_workload(which: str, fmt: str, bounds: tuple[int, int], work: Path) -> Workload:
    out = work / f"scan.{fmt}"
    checker = {"lemma": check.check_scan_lemma_csv,
               "theorem": check.check_scan_theorem_json}[which]
    max_n, max_degree = bounds
    args = ["scan", "--max-n", str(max_n), "--max-degree", str(max_degree),
            "--which", which, "--format", fmt, "--out", str(out), "--quiet"]
    types = sum(1 for _ in reference.scan_types(max_n, max_degree))
    return Workload([Call(args, lambda path: checker(path, max_n, max_degree), out)],
                    types, [args])


def make_queries(seed: int) -> list[tuple[str, int, tuple[int, ...], str]]:
    """The seeded query batch: one query per (subcommand, stratum)."""
    rng = random.Random(seed)
    queries = []
    for command in SUBCOMMANDS:
        formats = [f for _ in range(0, len(QUERY_STRATA), len(FORMATS))
                   for f in rng.sample(FORMATS, len(FORMATS))]
        for (centre, count, total), fmt in zip(QUERY_STRATA, formats):
            n = rng.randint(centre - N_JITTER, centre + N_JITTER)
            choices = [c for c in combinations_with_replacement(range(2, 7), count)
                       if sum(c) == total]
            degrees = tuple(rng.sample(rng.choice(choices), count))
            queries.append((command, n, degrees, fmt))
    rng.shuffle(queries)
    return queries


def query_workload(seed: int) -> Workload:
    calls = []
    queries = make_queries(seed)
    for command, n, degrees, fmt in queries:
        args = [command, "--n", str(n), "--type", ",".join(map(str, degrees)), "--format", fmt]

        def checker(path, command=command, n=n, degrees=degrees, fmt=fmt):
            return check.check_query(command, n, degrees, fmt, path.read_text())

        calls.append(Call(args, checker))
    return Workload(calls, len(calls), [list(q) for q in queries])


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "scan-lemma": lambda seed, work: scan_workload("lemma", "csv", LEMMA_BOUNDS, work),
    "scan-theorem-json": lambda seed, work: scan_workload("theorem", "json", THEOREM_BOUNDS,
                                                          work),
    "query-large-n": lambda seed, work: query_workload(seed),
}


class Runner:
    """Runs CLI processes one at a time through bench/launch.py, which
    measures each from outside, and checks outputs against the reference."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("CI_INVARIANTS_THREADS", None)
        self.verified: dict[str, list[str]] = {}
        self.traces: list[dict] = []
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def close(self, abort: bool = False) -> None:
        """Let the launcher exit at end of input; on `abort` it first kills
        the call it is running."""
        if abort:
            self._launcher.terminate()
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()
        self._launcher.stdout.close()

    def spawn(self, command: list[str], stdout: Path) -> tuple[dict, str]:
        """Run one process to completion; returns the launcher's report and
        the process's stderr."""
        stderr = stdout.with_suffix(".err")
        request = {"argv": command, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        report = json.loads(reply)
        text = stderr.read_text(errors="replace")
        stderr.unlink()
        if report["killed"]:
            text += "\nkilled at the run deadline"
        return report, text

    def run(self, call: Call, index: int, traced: bool = False) -> Outcome:
        stdout = self.work / f"call{index}.out"
        command = [sys.executable, "-m", "ci_invariants", *call.args]
        trace_file = self.work / f"call{index}.trace.json"
        if traced:
            command = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), *call.args]
        report, err = self.spawn(command, stdout)
        code = report["exit_code"]
        produced = call.out if call.out else stdout
        size = produced.stat().st_size if produced.exists() else 0
        if call.out:
            size += stdout.stat().st_size
        outcome = Outcome(call.args, report["wall_s"], report["cpu_s"], report["rss_mb"], size,
                          code, traced=traced)
        if code != 0:
            outcome.problems.append(f"exit code {code}: {err.strip()[-300:]}")
        if "Traceback" in err:
            outcome.problems.append("traceback on stderr")
        if not outcome.problems:
            outcome.problems += self._verify(call, produced)
        if traced and trace_file.exists():
            self.traces.append(json.loads(trace_file.read_text()))
        elif traced:
            outcome.problems.append("the traced process wrote no trace")
        for path in (stdout, trace_file, call.out):
            if path and path.exists():
                path.unlink()
        return outcome

    def _verify(self, call: Call, produced: Path) -> list[str]:
        """Check an output against the reference; an output byte-identical
        to one already checked shares its verdict."""
        digest = hashlib.sha256(produced.read_bytes()).hexdigest()
        if digest not in self.verified:
            self.verified[digest] = call.check(produced)
        return self.verified[digest]


def measure_setup(runner: Runner, count: int) -> list[float]:
    """Spawn-to-exit times of `--help`: interpreter, package import and
    parser, which every call pays."""
    walls = []
    for _ in range(count):
        report, err = runner.spawn([sys.executable, "-m", "ci_invariants", "--help"],
                                   runner.work / "help.out")
        if report["exit_code"] != 0:
            raise SystemExit(f"error: `ci_invariants --help` failed with exit code "
                             f"{report['exit_code']}: {err}")
        walls.append(report["wall_s"])
    return walls


def measure_probe(runner: Runner) -> float:
    """Wall time of bench/probe.py, run the same way as the CLI calls."""
    report, err = runner.spawn([sys.executable, str(BENCH / "probe.py")],
                               runner.work / "probe.out")
    if report["exit_code"] != 0:
        raise SystemExit(f"error: bench/probe.py failed with exit code "
                         f"{report['exit_code']}: {err}")
    return report["wall_s"]


def run_plain(runner: Runner, workload: Workload,
              seconds: int) -> tuple[list[list[Outcome]], list[float], list[float]]:
    """Repeat the unit while another one is predicted to fit in `seconds`.
    Set-up is sampled before every unit, and the probe between calls, so
    that both see the same machine as the units do."""
    units: list[list[Outcome]] = []
    setup: list[float] = []
    probes: list[float] = []
    start = last_probe = time.monotonic()
    while True:
        setup += measure_setup(runner, SAMPLES_PER_UNIT)
        unit = []
        for i, call in enumerate(workload.units):
            if not probes or time.monotonic() - last_probe >= PROBE_EVERY_S:
                probes.append(measure_probe(runner))
                last_probe = time.monotonic()
            unit.append(runner.run(call, i))
        units.append(unit)
        typical = statistics.median(sum(o.wall_s for o in unit) for unit in units)
        now = time.monotonic()
        if now - start + typical > seconds or now + 2 * typical > runner.deadline:
            probes.append(measure_probe(runner))
            return units, setup, probes


def end_to_end(units: list[list[Outcome]], workload: Workload, setup: list[float],
               scale: float) -> dict:
    """Each call's wall and CPU time is its median over the repeated units,
    so a slow moment in one repeat moves only the calls it hit; a unit's
    time is the sum over its calls.  Times are multiplied by `scale`."""
    per_call = list(zip(*units))
    wall = [scale * statistics.median(o.wall_s for o in repeats) for repeats in per_call]
    cpu = [scale * statistics.median(o.cpu_s for o in repeats) for repeats in per_call]
    calls = [o for unit in units for o in unit]
    return {
        "setup_s": (scale * statistics.median(setup), "s"),
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "items_per_s": (workload.items / sum(wall), "1/s"),
        "query_p50_s": (statistics.median(wall), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in calls), "MB"),
        "output_bytes": (statistics.median(sum(o.output_bytes for o in u) for u in units),
                         "bytes"),
    }


TIMED_SPANS = ["exact.series_mul", "exact.eval_gaussian", "exact.poly_divmod",
               "topology.euler_characteristic", "topology.vanishes_at_i",
               "topology.compute_invariants", "lines.product_obstruction",
               "classify.scan", "classify.theorem_verdict", "classify.lemma_classify"]
COUNTED_SPANS = ["exact.series_mul", "exact.eval_gaussian", "exact.poly_divmod",
                 "topology.euler_characteristic", "topology.middle_betti",
                 "topology.poincare_polynomial", "topology.vanishes_at_i",
                 "topology.compute_invariants", "lines.product_obstruction", "lines.fiber_type",
                 "classify.theorem_verdict", "classify.lemma_classify"]
PER_TYPE_SPANS = ["topology.euler_characteristic", "topology.middle_betti",
                  "topology.poincare_polynomial", "topology.vanishes_at_i",
                  "topology.compute_invariants"]
OUTCOME_COUNTS = ["classify.gate.not_rc", "classify.gate.normal_bundle",
                  "classify.gate.poincare", "classify.gate.homogeneous",
                  "classify.lemma_case.linear_odd", "classify.lemma_case.quadric_odd",
                  "classify.lemma_case.quadric_2_mod_4", "classify.lemma_case.nonvanishing"]


def merge_traces(traces: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-span totals over every traced process: {name: [calls, self_s]},
    the counters, and the targets the tracer could not find."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    absent: set[str] = set()
    for doc in traces:
        for span in doc["spans"]:
            agg = spans.setdefault(span["name"], [0, 0.0])
            agg[0] += span["calls"]
            agg[1] += span["self_s"]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        absent.update(doc["absent"])
    return spans, counts, sorted(absent)


def per_layer(spans: dict, counts: dict, items: int, overhead: float) -> dict:
    metrics = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = (spans.get(name, [0, 0.0])[0], "count")
    for name in TIMED_SPANS:
        metrics[f"{name}.self_s"] = (spans.get(name, [0, 0.0])[1], "s")
    for name in PER_TYPE_SPANS:
        metrics[f"{name}.calls_per_type"] = (spans.get(name, [0, 0.0])[0] / items, "calls/type")
    metrics["exact.binomial.calls"] = (counts.get("exact.binomial", 0), "count")
    for name in OUTCOME_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["cli.self_s"] = (spans.get("cli.main", [0, 0.0])[1], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as stream:
            model = next(line.split(":", 1)[1].strip() for line in stream
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit()}


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, stop)  # so that the launcher and its call stop too
    args = parse_args(argv)
    if not (SRC / "ci_invariants" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ci_invariants'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference.self_check()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    try:
        measure_setup(runner, 1)  # untimed: lets the interpreter write bytecode caches
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            plain, traced = [], []
            for i, call in enumerate(workload.units):
                plain.append(runner.run(call, i))
                traced.append(runner.run(call, i, traced=True))
            calls = plain + traced
            overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
            spans, counts, absent = merge_traces(runner.traces)
            metrics = per_layer(spans, counts, workload.items, overhead)
            detail = {"spans": runner.traces, "absent": absent}
        else:
            units, setup, probes = run_plain(runner, workload, args.seconds)
            calls = [o for unit in units for o in unit]
            scale = PROBE_REF_S / statistics.median(probes)
            metrics = end_to_end(units, workload, setup, scale)
            detail = {"units": len(units), "setup_walls_s": setup, "probe_walls_s": probes,
                      "scale": scale,
                      "unscaled": {name: value for name, (value, _) in
                                   end_to_end(units, workload, setup, 1.0).items()}}
    except BaseException:
        runner.close(abort=True)
        raise
    runner.close()
    shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in calls if o.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "inputs": workload.inputs,
        "error_rate": failed / len(calls),
        "calls": [o.record() for o in calls], **detail, **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for o in calls:
        for problem in o.problems[:3]:
            print(f"FAILED {' '.join(o.args)}: {problem[:300]}", file=sys.stderr)
    print(f"{tag}: {len(calls)} calls, {failed} failed; record in "
          f"{(results / f'{tag}.json').relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
