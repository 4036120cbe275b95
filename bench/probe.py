"""A fixed piece of pure-Python work that measures how fast the host runs
Python right now.

    python3 bench/probe.py

computes the reference invariants of every type up to n = 11 and degree 6
(about 0.8 s on a 2-vCPU Xeon VM) and prints nothing.  It imports only the
standard library and bench/reference.py, never the package under test, so
its time moves with the host and not with the code being measured.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402

PROBE_BOUNDS = (11, 6)


def main() -> None:
    for n, degrees in reference.scan_types(*PROBE_BOUNDS):
        reference.invariants(n, degrees)


if __name__ == "__main__":
    main()
