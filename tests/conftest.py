"""Shared test configuration.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with a bounded example count and no
example database, so the suite is reproducible and its run time bounded.

The ``plant_chi`` fixture plants faults where the lemma scan reads chi.
"""

from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

settings.register_profile(
    "ci-invariants",
    derandomize=True,
    max_examples=150,
    database=None,
    deadline=None,
)
settings.load_profile("ci-invariants")


@pytest.fixture
def plant_chi(monkeypatch):
    """A function that makes the lemma scan read chi = ``chi[D, k]`` for
    each class (D, k) in the dict ``chi``: the fault sits in the copy of
    D's level column that the scan stores and checks, not in the columns
    that the walk builds D's own later columns and its children from.  A
    later call replaces the faults of an earlier one."""
    from ci_invariants import scan

    real = scan._levels

    def plant(chi):
        def levels(max_n, max_degree):
            for l, columns in real(max_n, max_degree):
                columns = [list(column) for column in columns]
                reduced = list(combinations_with_replacement(range(2, max_degree + 1), l))
                for (d, k), value in chi.items():
                    if len(d) == l and k < len(columns):
                        columns[k][reduced.index(d)] = k + 1 - value if k % 2 else value - k
                yield l, columns

        monkeypatch.setattr(scan, "_levels", levels)

    return plant
