"""Shared test configuration.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with a bounded example count and no
example database, so the suite is reproducible and its run time bounded.
"""

from hypothesis import settings

settings.register_profile(
    "ci-invariants",
    derandomize=True,
    max_examples=150,
    database=None,
    deadline=None,
)
settings.load_profile("ci-invariants")
