"""Tests for line geometry and the fiber-of-lines construction."""

from __future__ import annotations

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    VerdictKind,
    compute_invariants,
    euler_characteristic,
    fiber_type,
    iter_types,
    line_geometry,
    theorem_verdict,
)
from reference import divisible_by_one_plus_t_squared, reduce_type, truncated_product


def middle_betti(ci: CIType) -> int:
    return compute_invariants(ci).middle_betti


def poincare_polynomial(ci: CIType) -> tuple[int, ...]:
    return compute_invariants(ci).poincare


def reduced(ci: CIType) -> CIType:
    return CIType(*reduce_type(ci.ambient_dim, ci.degrees))


class TestLineGeometry:
    def test_cubic_threefold(self):
        g = line_geometry(CIType(4, (3,)))
        assert g.moduli_dim == 2
        assert g.fiber_dim == 0
        assert g.normal_degree == 0
        assert g.rationally_connected

    def test_projective_space(self):
        g = line_geometry(CIType(3))
        assert g.moduli_dim == 4  # Grassmannian of lines in P^3
        assert g.fiber_dim == 2
        assert g.normal_degree == 2
        assert g.rationally_connected

    def test_quintic_threefold(self):
        g = line_geometry(CIType(4, (5,)))
        assert g.moduli_dim == 0
        assert g.fiber_dim == -2
        assert g.normal_degree == -2
        assert not g.rationally_connected

    def test_rejects_point_ambient(self):
        with pytest.raises(ValueError):
            line_geometry(CIType(0))


class TestFiberType:
    def test_cubic_threefold_six_lines(self):
        fiber = fiber_type(CIType(4, (3,)))
        assert fiber == CIType(3, (1, 2, 3))
        assert fiber.dimension == 0
        assert middle_betti(fiber) == 6  # six lines through a general point

    def test_linear_blocks(self):
        assert fiber_type(CIType(5, (1, 1))) == CIType(4, (1, 1))

    def test_quadric_block(self):
        fiber = fiber_type(CIType(5, (1, 2)))
        assert fiber == CIType(4, (1, 1, 2))
        assert fiber.dimension == 1
        assert poincare_polynomial(fiber) == (1, 0, 1)  # a conic

    def test_negative_fiber_dimension_rejected(self):
        with pytest.raises(ValueError):
            fiber_type(CIType(4, (2, 2)))

    def test_dimension_consistency(self):
        for n in range(1, 10):
            for degrees in [(), (2,), (1, 2), (3,), (2, 2), (1, 1, 1)]:
                if len(degrees) > n or n - 1 - sum(degrees) < 0:
                    continue
                ci = CIType(n, degrees)
                assert fiber_type(ci).dimension == n - 1 - ci.total_degree

    def test_commutes_with_degree_one_reduction(self):
        # reducing before or after taking fibers yields identical invariants
        cases = [CIType(6, (1, 2)), CIType(7, (1, 1, 3)), CIType(8, (1, 2, 2))]
        for ci in cases:
            a = reduced(fiber_type(ci))
            b = fiber_type(reduced(ci))
            assert euler_characteristic(a) == euler_characteristic(b)
            assert middle_betti(a) == middle_betti(b)
            assert poincare_polynomial(a) == poincare_polynomial(b)


class TestPoincareGate:
    """The Poincare gate of ``theorem_verdict``: p_X(i) and p_F(i), and
    whether at least one vanishes."""

    def test_cubic_threefold_fails(self):
        verdict = theorem_verdict(CIType(4, (3,)))
        assert verdict.p_x_at_i == GaussianInteger(0, -10)
        assert verdict.p_f_at_i == GaussianInteger(6, 0)
        assert verdict.kind is VerdictKind.POINCARE_OBSTRUCTION

    def test_quadric_threefold_passes_doubly(self):
        verdict = theorem_verdict(CIType(5, (1, 2)))
        assert verdict.p_x_at_i == GaussianInteger(0, 0)
        assert verdict.p_f_at_i == GaussianInteger(0, 0)
        assert verdict.kind is VerdictKind.HOMOGENEOUS_QUADRIC

    def test_linear_type_passes_on_one_side(self):
        verdict = theorem_verdict(CIType(5, (1, 1)))
        assert verdict.p_x_at_i.is_zero          # X = P^3, odd-dimensional
        assert verdict.p_f_at_i == GaussianInteger(1, 0)  # F = P^2
        assert verdict.kind is VerdictKind.HOMOGENEOUS_LINEAR

    def test_negative_fiber_dimension_rejected(self):
        # No fiber of lines: the normal-bundle gate decides before p(i).
        verdict = theorem_verdict(CIType(4, (2, 2)))
        assert verdict.kind is VerdictKind.NORMAL_BUNDLE_OBSTRUCTION
        assert (verdict.p_x_at_i, verdict.p_f_at_i) == (None, None)

    def test_passes_iff_product_divisible(self):
        # The gate decides on the factors alone; the dense product p_F * p_X
        # is formed only here, for every type with a fiber.
        checked = 0
        for ci in iter_types(12, 6):
            if ci.ambient_dim - 1 - ci.total_degree < 0:
                continue
            verdict = theorem_verdict(ci)
            passes = verdict.p_x_at_i.is_zero or verdict.p_f_at_i.is_zero
            p_x = poincare_polynomial(ci)
            p_f = poincare_polynomial(fiber_type(ci))
            product = truncated_product(p_x, p_f, len(p_x) + len(p_f) - 2)
            assert passes == divisible_by_one_plus_t_squared(product)
            checked += 1
        assert checked == 567

    def test_empty_type_exactly_one_side_vanishes(self):
        for n in range(1, 13):
            verdict = theorem_verdict(CIType(n))
            assert verdict.p_x_at_i.is_zero != verdict.p_f_at_i.is_zero
            assert verdict.kind is VerdictKind.HOMOGENEOUS_LINEAR


def test_fiber_report_values():
    report = compute_invariants(fiber_type(CIType(4, (3,))))
    assert report.euler_char == 6
    assert report.poincare == (6,)
    assert report.value_at_i == GaussianInteger(6, 0)
