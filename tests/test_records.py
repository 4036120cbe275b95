"""The record contract: every record is an immutable named tuple, with the
tuple's equality and hashing and the dataclass-style repr."""

from __future__ import annotations

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    compute_invariants,
    line_geometry,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
)


def test_records_are_immutable_tuples_with_tuple_equality():
    quadric = CIType(5, (2,))
    records = [
        GaussianInteger(1, -2),
        quadric,
        compute_invariants(quadric),
        line_geometry(quadric),
        theorem_verdict(quadric),
        next(scan_lemma(3, 2).records()),
        scan_theorem(3, 2),
    ]
    assert len({type(record).__name__ for record in records}) == len(records)
    for record in records:
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    assert repr(quadric) == "CIType(ambient_dim=5, degrees=(2,))"
    assert repr(GaussianInteger(1, -2)) == "GaussianInteger(re=1, im=-2)"

    # Equality and hashing are the tuple's: a documented contract.
    assert quadric == (5, (2,)) and hash(quadric) == hash((5, (2,)))
    assert GaussianInteger(0, 0) == (0, 0) and hash(GaussianInteger(3, 4)) == hash((3, 4))
    assert compute_invariants(quadric) == tuple(compute_invariants(quadric))
    # The Poincare polynomial is no record: its coefficients, a plain tuple
    # indexed by degree, built on each read.
    poincare = compute_invariants(quadric).poincare
    assert poincare == (1, 0, 1, 0, 2, 0, 1, 0, 1) and type(poincare) is tuple
    # A Gaussian integer is true iff nonzero, not iff its tuple is nonempty.
    assert not GaussianInteger(0, 0) and GaussianInteger(0, 1)
