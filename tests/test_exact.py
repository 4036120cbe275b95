"""Tests for the exact arithmetic layer, and for the building blocks of the
test-side reference route that shares no code with the package.

Expected values are either hand expansions or come from ``reference``.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import product, zip_longest
from math import comb, prod

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    IntPolynomial,
    ONE_PLUS_T_SQUARED,
    compute_invariants,
    fiber_type,
)
from reference import horner, horner_at_i, series_coefficient, truncated_product

#: i^j for j = 0, 1, 2, 3, as (real part, imaginary part).
POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


def random_poly(rng, max_degree=12, max_coeff=50):
    return IntPolynomial(
        rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_degree + 1))
    )


def poly_product(p, q):
    """p * q, by the reference route's convolution taken to full order."""
    a, b = p.coefficients, q.coefficients
    return IntPolynomial(truncated_product(a, b, len(a) + len(b) - 2))


def poly_sum(p, q):
    """p + q, coefficient by coefficient."""
    return IntPolynomial(
        x + y for x, y in zip_longest(p.coefficients, q.coefficients, fillvalue=0))


class TestIntPolynomial:
    def test_canonical_form(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0, 0]).coefficients == ()
        assert IntPolynomial().is_zero
        assert IntPolynomial([0]).coefficients == ()
        assert IntPolynomial([5]).coefficients == (5,)
        assert IntPolynomial([0, 0, 3]).coefficients == (0, 0, 3)

    def test_eval_gaussian_examples(self):
        assert horner_at_i(ONE_PLUS_T_SQUARED.coefficients) == (0, 0)
        assert horner_at_i(IntPolynomial([1, 0, 1, 0, 1, 0, 1]).coefficients) == (0, 0)
        cubic_threefold = IntPolynomial([1, 0, 1, 10, 1, 0, 1])
        assert horner_at_i(cubic_threefold.coefficients) == (0, -10)

    def test_horner_matches_power_summation(self):
        rng = random.Random(4711)
        for _ in range(100):
            coeffs = random_poly(rng).coefficients
            x = rng.randint(-9, 9)
            assert horner(coeffs, x) == sum(c * x ** j for j, c in enumerate(coeffs))
            naive = [0, 0]
            for j, c in enumerate(coeffs):
                re, im = POWERS_OF_I[j % 4]
                naive[0] += c * re
                naive[1] += c * im
            assert horner_at_i(coeffs) == tuple(naive)

    def test_divisible_examples(self):
        assert IntPolynomial([1, 0, 2, 0, 1]).divisible_by(ONE_PLUS_T_SQUARED)
        assert not IntPolynomial([1, 0, 1, 0, 1]).divisible_by(ONE_PLUS_T_SQUARED)
        assert IntPolynomial().divisible_by(ONE_PLUS_T_SQUARED)

    def test_division_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            IntPolynomial([1, 1]).divisible_by(IntPolynomial())

    def test_division_rejects_non_monic(self):
        with pytest.raises(ValueError):
            IntPolynomial([1, 1]).divisible_by(IntPolynomial([1, 2]))

    def test_divisible_by_exact_multiples_only(self):
        # D = t^3 - 2t^2 + 3, and -D for a leading coefficient of -1.
        rng = random.Random(99)
        for divisor in (IntPolynomial([3, 0, -2, 1]), IntPolynomial([-3, 0, 2, -1])):
            for _ in range(50):
                p = random_poly(rng)
                r = IntPolynomial(rng.randint(-9, 9) for _ in range(3))
                assert poly_product(p, divisor).divisible_by(divisor)
                if r:
                    assert not poly_sum(poly_product(p, divisor), r).divisible_by(divisor)

    @staticmethod
    def long_division_divisible(p, divisor):
        """The remainder loop that ``divisible_by`` ran on every coefficient
        before wide coefficients were reduced on their own."""
        *lower, lead = divisor.coefficients
        m = len(lower)
        rem = list(p.coefficients)
        while len(rem) > m:
            factor = rem.pop() * lead
            if factor:
                base = len(rem) - m
                for j, c in enumerate(lower):
                    rem[base + j] -= factor * c
        return not any(rem)

    @pytest.mark.parametrize("divisor", [
        ONE_PLUS_T_SQUARED,
        IntPolynomial([-1, 0, -1]),            # -(1 + t^2)
        IntPolynomial([-2, 1]),                # t - 2: t^j mod it is 2^j
        IntPolynomial([3, 0, -2, 1]),          # t^3 - 2t^2 + 3
        IntPolynomial([-7, 5, 0, 0, -1]),      # -t^4 + 5t - 7
        IntPolynomial([1, 1, 1, 1, 1, 0, 1]),  # t^6 + t^4 + t^3 + t^2 + t + 1
        IntPolynomial([1]),
    ])
    def test_matches_long_division_on_huge_coefficients(self, divisor):
        # Coefficients from a few bits to thousands, so that the narrow ones
        # ride the loop and the wide ones are reduced on their own.
        rng = random.Random(1618)

        def huge_poly(length):
            return IntPolynomial(
                rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 60, 300, 3000)))
                for _ in range(length))

        divisible = 0
        for _ in range(40):
            p = huge_poly(rng.randint(0, 40))
            if rng.random() < 0.5:
                p = poly_product(p, divisor)
            if rng.random() < 0.3:
                p = poly_sum(p, huge_poly(len(divisor.coefficients) - 1))
            expected = self.long_division_divisible(p, divisor)
            assert p.divisible_by(divisor) == expected
            divisible += expected
        assert divisible

    def test_divisibility_memory_is_linear(self):
        # The quotient of long division held about k/2 coefficients of O(k)
        # bits: 60.5 MB for this fiber's p (k = 19,986).
        p = compute_invariants(fiber_type(CIType(20000, (2, 5, 6)))).poincare
        tracemalloc.start()
        try:
            p.divisible_by(ONE_PLUS_T_SQUARED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_divisibility_iff_vanishing_at_i(self):
        # 1+t^2 is monic, so remainder zero and p(i) = 0 are the same thing
        rng = random.Random(314159)
        for _ in range(500):
            p = random_poly(rng, max_degree=20)
            if rng.random() < 0.5:
                p = poly_product(p, ONE_PLUS_T_SQUARED)
            assert p.divisible_by(ONE_PLUS_T_SQUARED) == (horner_at_i(p.coefficients) == (0, 0))

    def test_str_ascending(self):
        assert str(IntPolynomial()) == "0"
        assert str(IntPolynomial([3, -9, 6, -1])) == "3 - 9t + 6t^2 - t^3"
        assert str(IntPolynomial([1, 0, 2, 0, 1])) == "1 + 2t^2 + t^4"
        assert str(IntPolynomial([-1, 1])) == "-1 + t"


class TestGaussianInteger:
    def test_i_squared(self):
        # t^2 at i, by the reference's Horner rule on plain ints
        assert horner_at_i([0, 0, 1]) == (-1, 0)
        assert GaussianInteger(*horner_at_i([0, 0, 1])) == GaussianInteger(-1, 0)

    def test_str(self):
        assert str(GaussianInteger(0, -10)) == "0-10i"
        assert str(GaussianInteger(6, 0)) == "6+0i"
        assert str(GaussianInteger(-2, 5)) == "-2+5i"


class TestTruncatedSeries:
    """The reference series route: truncated products of coefficient lists."""

    def test_inverse_is_alternating_geometric(self):
        # (1 + d H) * sum_j (-d)^j H^j = 1 up to the truncation order
        for d in (1, 2, 3, 5):
            geometric = [(-d) ** j for j in range(11)]
            assert truncated_product([1, d], geometric, 10) == [1] + [0] * 10

    def test_mul_truncates_exactly(self):
        assert truncated_product([1, 1, 1, 1], [1, 1, 1, 1], 3) == [1, 2, 3, 4]

    def test_full_order_is_the_product(self):
        # the hand expansions the divisibility tests' poly_product relies on
        assert poly_product(ONE_PLUS_T_SQUARED, ONE_PLUS_T_SQUARED) == IntPolynomial([1, 0, 2, 0, 1])
        t_minus_1 = IntPolynomial([-1, 1])
        cube = poly_product(poly_product(t_minus_1, t_minus_1), t_minus_1)
        assert cube == IntPolynomial([-1, 3, -3, 1])  # t^3 - 3t^2 + 3t - 1
        assert poly_product(IntPolynomial(), ONE_PLUS_T_SQUARED).is_zero
        assert poly_sum(IntPolynomial([1, 2, 3]), IntPolynomial([0, 0, -3])) == IntPolynomial([1, 2])


class TestSeriesCoefficient:
    def test_projective_space(self):
        # chi(P^m) = m + 1
        for m in range(65):
            assert series_coefficient((), m) == m + 1

    def test_examples(self):
        assert series_coefficient((), 2) == 3
        assert series_coefficient((2, 2), 4) == 8
        assert series_coefficient((3,), 3) == 9

    def test_matches_brute_force_oracle(self):
        # the same coefficient from the expanded product, term by term
        cases = [
            ((2,), 3), ((3,), 4), ((5,), 4), ((2, 2), 5), ((1, 2, 3), 6),
            ((4, 4), 8), ((1, 1, 1), 7), ((6,), 10), ((2, 3, 4), 12),
        ]
        for degrees, n in cases:
            assert series_coefficient(degrees, n) == expanded_coefficient(degrees, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            series_coefficient((2,), -1)
        with pytest.raises(ValueError):
            series_coefficient((0,), 3)


def expanded_coefficient(degrees, n):
    """[H^n] of (1+H)^(n+1) prod_d d H sum_j (-d)^j H^j, summed over every
    choice of one term per factor: C(n+1, a) prod_d d (-d)^(j_d), over all
    a + sum_d (1 + j_d) = n."""
    l = len(degrees)
    total = 0
    for js in product(range(n + 1), repeat=l):
        a = n - l - sum(js)
        if a >= 0:
            total += comb(n + 1, a) * prod(d * (-d) ** j for d, j in zip(degrees, js))
    return total
