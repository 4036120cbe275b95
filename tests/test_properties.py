"""Property tests for the Euler-characteristic engine and the invariants
derived from it, against the independent truncated-series route."""

from __future__ import annotations

from hypothesis import given, strategies as st

from ci_invariants import (
    CIType,
    compute_invariants,
    euler_characteristic,
    reduce_type,
    series_coefficient,
)


@st.composite
def degree_lists(draw, max_n=40, max_l=5, max_d=8):
    """An ambient dimension n <= max_n and an unsorted list of at most
    min(n, max_l) degrees in [1, max_d]."""
    n = draw(st.integers(0, max_n))
    degrees = draw(st.lists(st.integers(1, max_d), max_size=min(n, max_l)))
    return n, degrees


@given(degree_lists())
def test_generating_function_equals_series_route(case):
    n, degrees = case
    assert euler_characteristic(CIType(n, tuple(degrees))) == series_coefficient(degrees, n)


@given(degree_lists(), st.data())
def test_invariant_under_permutation(case, data):
    n, degrees = case
    permuted = data.draw(st.permutations(degrees))
    sorted_type = CIType(n, tuple(sorted(permuted)))
    assert CIType(n, tuple(permuted)) == sorted_type
    assert series_coefficient(permuted, n) == euler_characteristic(sorted_type)


@given(degree_lists())
def test_invariant_under_reduce_type(case):
    n, degrees = case
    ci = CIType(n, tuple(degrees))
    full, reduced = compute_invariants(ci), compute_invariants(reduce_type(ci))
    assert reduced.euler_char == full.euler_char
    assert reduced.middle_betti == full.middle_betti
    assert reduced.poincare == full.poincare
    assert reduced.value_at_i == full.value_at_i


@given(degree_lists())
def test_poincare_polynomial_at_plus_and_minus_one(case):
    n, degrees = case
    ci = CIType(n, tuple(degrees))
    report = compute_invariants(ci)
    k, b = ci.dimension, report.middle_betti
    delta = 1 if k % 2 == 0 else 0
    assert report.poincare(-1) == series_coefficient(degrees, n)
    assert report.poincare(1) == (k + 1) + b - delta
