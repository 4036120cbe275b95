"""Shared test configuration.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with a bounded example count and no
example database, so the suite is reproducible and its run time bounded.

The ``plant_chi`` fixture plants faults where the lemma scan reads chi.
"""

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
    each class (D, k) in the dict ``chi``: the fault sits in D's chi row
    only, not in the rows of its children, which the walk divides from its
    own.  A later call replaces the faults of an earlier one."""
    from ci_invariants import scan

    real = scan._chi_rows

    def plant(chi):
        def rows(max_n, max_degree):
            for reduced, row in real(max_n, max_degree):
                yield reduced, [chi.get((reduced, k), c) for k, c in enumerate(row)]

        monkeypatch.setattr(scan, "_chi_rows", rows)

    return plant
