"""Tests for the invariant computations.

Classical anchor values (cubic surface, quadrics, quintic threefold, cubic
threefold) were derived with the independent series oracle before the main
build and are frozen here as literals.
"""

from __future__ import annotations

import math
import random

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    I,
    IntPolynomial,
    chi22,
    compute_invariants,
    euler_characteristic,
    hypersurface_middle_betti,
    middle_betti,
    poincare_polynomial,
    reduce_type,
    series_coefficient,
    vanishes_at_i,
    verify_expansion_identity,
)


class TestCIType:
    def test_degrees_sorted(self):
        assert CIType(5, (3, 1, 2)).degrees == (1, 2, 3)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        degrees = [2, 2, 3, 1, 4]
        base = CIType(9, tuple(degrees))
        for _ in range(10):
            rng.shuffle(degrees)
            other = CIType(9, tuple(degrees))
            assert other == base
            assert hash(other) == hash(base)
            assert euler_characteristic(other) == euler_characteristic(base)

    def test_derived_quantities(self):
        ci = CIType(5, (1, 2))
        assert ci.codimension == 2
        assert ci.dimension == 3
        assert ci.total_degree == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CIType(3, (0,))
        with pytest.raises(ValueError):
            CIType(2, (1, 1, 1))
        with pytest.raises(ValueError):
            CIType(-1)

    @pytest.mark.parametrize(
        "n, degrees", [(3, (2.7,)), (True, ()), (3, ("2",)), (3, (True,))]
    )
    def test_rejects_non_int_values(self, n, degrees):
        with pytest.raises(ValueError):
            CIType(n, degrees)

    def test_empty_type_is_projective_space(self):
        ci = CIType(4)
        assert ci.dimension == 4
        assert euler_characteristic(ci) == 5

    def test_str(self):
        assert str(CIType(4, (3,))) == "(3) in P^4"
        assert str(CIType(3)) == "() in P^3"


class TestEulerCharacteristic:
    def test_examples(self):
        assert euler_characteristic(CIType(3)) == 4
        assert euler_characteristic(CIType(3, (2, 2))) == 0  # genus-1 curve
        assert euler_characteristic(CIType(4, (5,))) == -200

    def test_matches_series_oracle(self):
        for n in range(1, 9):
            for degrees in [(), (2,), (3,), (2, 2), (1, 2), (1, 1, 3), (4,), (2, 3)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                assert euler_characteristic(ci) == series_coefficient(ci.degrees, n)

    def test_dimension_zero_is_point_count(self):
        assert euler_characteristic(CIType(2, (2, 2))) == 4  # Bezout
        assert euler_characteristic(CIType(3, (1, 2, 3))) == 6

    @staticmethod
    def _all_quadrics(n, l):
        # 2^l [z^m] (1 - z)^-2 (1 + z)^-l with m = n - l
        m = n - l
        return 2 ** l * sum(
            (j + 1) * (-1) ** (m - j) * math.comb(l - 1 + m - j, m - j)
            for j in range(m + 1)
        )

    def test_all_quadrics_closed_form(self):
        for n in range(1, 13):
            for l in range(1, n + 1):
                ci = CIType(n, (2,) * l)
                expected = self._all_quadrics(n, l)
                assert euler_characteristic(ci) == expected
                assert series_coefficient(ci.degrees, n) == expected

    def test_long_degree_list(self):
        ci = CIType(2000, (2,) * 1500)
        assert euler_characteristic(ci) == self._all_quadrics(2000, 1500)


class TestMiddleBetti:
    def test_examples(self):
        assert middle_betti(CIType(4, (5,))) == 204
        assert middle_betti(CIType(3, (3,))) == 7

    def test_two_quadrics_odd_dimension(self):
        for k in (1, 3, 5, 7, 9):
            assert middle_betti(CIType(k + 2, (2, 2))) == k + 1

    def test_dimension_zero(self):
        assert middle_betti(CIType(3, (1, 2, 3))) == 6
        assert middle_betti(CIType(2, (2, 2))) == 4

    def test_closed_form_equals_chi_route(self):
        for e in range(1, 7):
            for k in range(0, 13):
                via_chi = middle_betti(CIType(k + 1, (e,)))
                assert hypersurface_middle_betti(e, k) == via_chi


class TestHypersurfaceClosedForm:
    def test_examples(self):
        assert hypersurface_middle_betti(2, 3) == 0
        assert hypersurface_middle_betti(5, 3) == 204

    def test_degree_one_is_projective_space(self):
        for k in range(0, 20):
            assert hypersurface_middle_betti(1, k) == (1 if k % 2 == 0 else 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hypersurface_middle_betti(0, 3)
        with pytest.raises(ValueError):
            hypersurface_middle_betti(2, -1)


class TestPoincarePolynomial:
    def test_examples(self):
        assert poincare_polynomial(CIType(1)) == IntPolynomial([1, 0, 1])
        assert poincare_polynomial(CIType(3, (2,))) == IntPolynomial([1, 0, 2, 0, 1])
        assert poincare_polynomial(CIType(4, (3,))) == IntPolynomial([1, 0, 1, 10, 1, 0, 1])

    def test_dimension_zero_is_constant(self):
        assert poincare_polynomial(CIType(3, (1, 2, 3))) == IntPolynomial([6])

    def test_evaluations(self):
        # p(-1) = chi and p(1) = Betti sum for a spread of types
        for n in range(1, 9):
            for degrees in [(), (2,), (3,), (2, 2), (1, 3), (4,)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                p = poincare_polynomial(ci)
                assert p(-1) == euler_characteristic(ci)
                k, b = ci.dimension, middle_betti(ci)
                delta = 1 if k % 2 == 0 else 0
                assert p(1) == (k + 1) + b - delta


class TestVanishesAtI:
    def test_examples(self):
        assert vanishes_at_i(CIType(4, (2,)))   # quadric threefold, b3 = 0
        assert vanishes_at_i(CIType(3, (2,)))   # quadric surface, k = 2 mod 4
        assert not vanishes_at_i(CIType(5, (2,)))  # quadric fourfold, p(i) = 2

    def test_agrees_with_direct_evaluation(self):
        for n in range(1, 10):
            for degrees in [(), (2,), (3,), (1, 2), (2, 2), (1, 1)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                direct = poincare_polynomial(ci).eval_gaussian(I).is_zero
                assert vanishes_at_i(ci) == direct


class TestChi22:
    def test_examples(self):
        assert chi22(0) == 4
        assert chi22(1) == 0
        assert chi22(2) == 8

    def test_matches_series_route(self):
        for k in range(0, 11):
            assert chi22(k) == euler_characteristic(CIType(k + 2, (2, 2)))

    def test_closed_form_shape(self):
        for k in range(0, 30):
            assert chi22(k) == (0 if k % 2 else 2 * (k + 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi22(-1)


class TestExpansionIdentity:
    def test_k0_both_sides(self):
        # hand expansion: 3(t-1)^2 - (t-1)^3 - 1 = -t^3 + 6t^2 - 9t + 3
        t_minus_1 = IntPolynomial([-1, 1])
        lhs = 3 * t_minus_1 ** 2 - t_minus_1 ** 3 + IntPolynomial([-1])
        assert lhs == IntPolynomial([3, -9, 6, -1])
        assert verify_expansion_identity(0)

    def test_small_and_large(self):
        assert verify_expansion_identity(1)
        assert verify_expansion_identity(100)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_expansion_identity(-1)


class TestReduceType:
    def test_drops_ones(self):
        assert reduce_type(CIType(5, (1, 1, 2))) == CIType(3, (2,))
        assert reduce_type(CIType(4, (1, 1))) == CIType(2)

    def test_invariants_unchanged(self):
        cases = [CIType(5, (1, 2)), CIType(6, (1, 1, 3)), CIType(7, (1, 2, 2)),
                 CIType(9, (1, 1, 1, 4))]
        for ci in cases:
            red = reduce_type(ci)
            assert euler_characteristic(red) == euler_characteristic(ci)
            assert middle_betti(red) == middle_betti(ci)
            assert poincare_polynomial(red) == poincare_polynomial(ci)


class TestInvariantReport:
    def test_cubic_surface(self):
        report = compute_invariants(CIType(3, (3,)))
        assert report.euler_char == 9
        assert report.middle_betti == 7
        assert report.value_at_i == GaussianInteger(-5, 0)

    def test_quintic_threefold(self):
        report = compute_invariants(CIType(4, (5,)))
        assert report.dimension == 3
        assert report.euler_char == -200
        assert report.middle_betti == 204
        assert report.value_at_i == GaussianInteger(0, -204)

    def test_projective_line(self):
        report = compute_invariants(CIType(1))
        assert report.poincare == IntPolynomial([1, 0, 1])
        assert report.value_at_i.is_zero


class TestMonotonicityAnchors:
    def test_surfaces_in_p3(self):
        values = [middle_betti(CIType(3, (e,))) for e in (2, 3, 4)]
        assert values == [2, 7, 22]
        assert values == sorted(values)


class TestLargeMagnitudes:
    def test_no_overflow_at_extreme_sizes(self):
        # degrees up to 64 and ambient dimension up to 256 stay exact
        assert euler_characteristic(CIType(256)) == 257
        via_chi = middle_betti(CIType(64, (64,)))
        assert via_chi == hypersurface_middle_betti(64, 63)
        assert via_chi == (63 * (63 ** 64 - 1)) // 64
        report = compute_invariants(CIType(64, (64,)))
        assert report.poincare(-1) == report.euler_char
