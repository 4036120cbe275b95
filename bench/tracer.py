"""Run the ci-invariants CLI with outside-in tracing and write the trace.

    python3 bench/tracer.py TRACE.json ARG...

runs ``ci_invariants.cli.main([ARG...])`` after wrapping the public
functions and methods named in TARGETS, then writes one JSON document with
an aggregate per (span, parent): calls, total and self seconds.  Nothing
inside the package changes; each wrapper replaces the target in every
package module namespace that holds it, because ``classify`` and ``cli``
bind names with ``from .topology import ...``.

Times are CPU seconds.  A scan runs its slices on worker threads that hold
the interpreter lock in turn, so wall-clock spans on two threads overlap
and would count the same second twice.  A span on a worker thread is timed
with that thread's CPU clock; a span on the main thread with the process
CPU clock, so that a span waiting for workers (``classify.scan``) includes
their work.  A worker's outermost span is the child of the main thread's
innermost open span, and the part of a worker's time outside any span
(enumerating types, building records) is self time of that parent.

``exact.binomial`` is called millions of times per scan: timing it would
add more than the whole lemma scan's own cost, so it is counted only.
A target missing from the package is reported under "absent".
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

TIME, COUNT = "time", "count"

#: (span, module, attribute path, mode)
TARGETS = [
    ("exact.binomial", "exact", "binomial", COUNT),
    ("exact.series_mul", "exact", "TruncatedSeries.__mul__", TIME),
    ("exact.eval_gaussian", "exact", "IntPolynomial.eval_gaussian", TIME),
    ("exact.poly_divmod", "exact", "IntPolynomial.__divmod__", TIME),
    ("topology.euler_characteristic", "topology", "euler_characteristic", TIME),
    ("topology.middle_betti", "topology", "middle_betti", TIME),
    ("topology.poincare_polynomial", "topology", "poincare_polynomial", TIME),
    ("topology.vanishes_at_i", "topology", "vanishes_at_i", TIME),
    ("topology.compute_invariants", "topology", "compute_invariants", TIME),
    ("lines.fiber_type", "lines", "fiber_type", TIME),
    ("lines.product_obstruction", "lines", "product_obstruction", TIME),
    ("classify.theorem_verdict", "classify", "theorem_verdict", TIME),
    ("classify.lemma_classify", "classify", "lemma_classify", TIME),
    ("classify.scan", "classify", "scan_theorem", TIME),
    ("classify.scan", "classify", "scan_lemma", TIME),
    ("cli.main", "cli", "main", TIME),
]

MODULES = ["", "exact", "topology", "lines", "classify", "cli"]

#: Which gate decided a verdict, by the verdict's kind.
GATES = {
    "not_rationally_connected": "not_rc",
    "normal_bundle_obstruction": "normal_bundle",
    "poincare_obstruction": "poincare",
    "homogeneous_linear": "homogeneous",
    "homogeneous_quadric": "homogeneous",
}


def _verdict_outcome(result) -> str:
    kind = getattr(getattr(result, "kind", None), "value", None)
    return "classify.gate." + GATES.get(kind, "unknown")


def _case_outcome(result) -> str:
    return "classify.lemma_case." + str(getattr(result, "value", "unknown"))


OUTCOMES = {"classify.theorem_verdict": _verdict_outcome,
            "classify.lemma_classify": _case_outcome}


class _ThreadState:
    __slots__ = ("stack", "spans", "outcomes", "clock", "main")

    def __init__(self, main: bool):
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str | None], list] = {}
        self.outcomes: dict[str, int] = {}
        self.main = main
        self.clock = time.process_time if main else time.thread_time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._counters: dict[str, itertools.count] = {}
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread() is threading.main_thread())
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def timed(self, name: str, fn):
        outcome = OUTCOMES.get(name)

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            foreign = False
            if stack:
                parent = stack[-1]
            elif not state.main and self._main.stack:
                parent, foreign = self._main.stack[-1], True
            else:
                parent = None
            frame = [name, 0.0]
            stack.append(frame)
            clock = state.clock
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                agg = state.spans.get(key)
                if agg is None:
                    agg = state.spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if foreign:
                    with self._lock:
                        parent[1] += elapsed
                elif parent:
                    parent[1] += elapsed
            if outcome:
                label = outcome(result)
                state.outcomes[label] = state.outcomes.get(label, 0) + 1
            return result

        return wrapper

    def counted(self, name: str, fn):
        counter = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)  # atomic under the interpreter lock
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str) -> None:
        found = (sys.modules.get(f"{package}.{m}" if m else package) for m in MODULES)
        modules = [m for m in found if m is not None]
        for name, module, path, mode in TARGETS:
            owner = sys.modules.get(f"{package}.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{path}")
                continue
            wrapper = (self.timed if mode == TIME else self.counted)(name, original)
            # Rebind every name holding the original: module-level imports
            # for functions, class attributes (and aliases) for methods.
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def report(self) -> dict:
        spans: dict[tuple[str, str | None], list] = {}
        outcomes: dict[str, int] = {}
        for state in self._states:
            for key, (calls, total, own) in state.spans.items():
                agg = spans.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
            for label, count in state.outcomes.items():
                outcomes[label] = outcomes.get(label, 0) + count
        counts = {name: next(counter) for name, counter in self._counters.items()}
        counts.update(outcomes)
        return {
            "spans": [{"name": name, "parent": parent, "calls": calls, "total_s": total,
                       "self_s": own} for (name, parent), (calls, total, own) in sorted(
                           spans.items(), key=lambda item: (item[0][0], str(item[0][1])))],
            "counts": counts,
            "absent": self.absent,
        }


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import ci_invariants.cli as cli

    tracer = Tracer()
    tracer.install("ci_invariants")
    start = time.process_time()
    code = cli.main(argv)
    doc = tracer.report()
    doc["traced_cpu_s"] = time.process_time() - start
    with open(out, "w") as stream:
        json.dump(doc, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
