"""The test-side reference stays independent of the package it checks,
and its building blocks hold: Horner's rule, the division by 1 + t^2, the
truncated series product and the series coefficient of chi.

Expected values are either hand expansions or come from ``reference``.
"""

from __future__ import annotations

import ast
import random
from itertools import product
from math import comb, prod
from pathlib import Path

import pytest

from reference import (
    divisible_by_one_plus_t_squared,
    horner,
    horner_at_i,
    series_coefficient,
    truncated_product,
)

REFERENCE = Path(__file__).with_name("reference.py")


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(REFERENCE.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
    assert imported, "the parse found no imports at all"
    assert [name for name in imported
            if name.split(".")[0] == "ci_invariants"] == []


def test_reference_holds_only_plain_functions():
    tree = ast.parse(REFERENCE.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


#: i^j for j = 0, 1, 2, 3, as (real part, imaginary part).
POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))

#: 1 + t^2, the Poincare polynomial of the projective line.
ONE_PLUS_T_SQUARED = (1, 0, 1)


def random_poly(rng, max_degree=12, max_coeff=50):
    return tuple(
        rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_degree + 1))
    )


def poly_product(a, b):
    """a * b, by the reference route's convolution taken to full order."""
    return tuple(truncated_product(a, b, len(a) + len(b) - 2))


class TestHornerAndDivisibility:
    """The reference route on polynomials as plain coefficient tuples, the
    form ``InvariantReport.poincare`` returns: Horner's rule and the
    division by 1 + t^2."""

    def test_horner_at_i_examples(self):
        assert horner_at_i(ONE_PLUS_T_SQUARED) == (0, 0)
        assert horner_at_i((1, 0, 1, 0, 1, 0, 1)) == (0, 0)
        cubic_threefold = (1, 0, 1, 10, 1, 0, 1)
        assert horner_at_i(cubic_threefold) == (0, -10)

    def test_horner_matches_power_summation(self):
        rng = random.Random(4711)
        for _ in range(100):
            coeffs = random_poly(rng)
            x = rng.randint(-9, 9)
            assert horner(coeffs, x) == sum(c * x ** j for j, c in enumerate(coeffs))
            naive = [0, 0]
            for j, c in enumerate(coeffs):
                re, im = POWERS_OF_I[j % 4]
                naive[0] += c * re
                naive[1] += c * im
            assert horner_at_i(coeffs) == tuple(naive)

    def test_divisible_examples(self):
        assert divisible_by_one_plus_t_squared([1, 0, 2, 0, 1])
        assert not divisible_by_one_plus_t_squared([1, 0, 1, 0, 1])
        assert divisible_by_one_plus_t_squared([])

    def test_divisibility_iff_vanishing_at_i(self):
        # 1+t^2 is monic, so remainder zero and p(i) = 0 are the same thing
        rng = random.Random(314159)
        for _ in range(500):
            p = random_poly(rng, max_degree=20)
            if rng.random() < 0.5:
                p = poly_product(p, ONE_PLUS_T_SQUARED)
            assert divisible_by_one_plus_t_squared(p) == (horner_at_i(p) == (0, 0))


class TestTruncatedProduct:
    """The reference series route: truncated products of coefficient lists."""

    def test_inverse_is_alternating_geometric(self):
        # (1 + d H) * sum_j (-d)^j H^j = 1 up to the truncation order
        for d in (1, 2, 3, 5):
            geometric = [(-d) ** j for j in range(11)]
            assert truncated_product([1, d], geometric, 10) == [1] + [0] * 10

    def test_mul_truncates_exactly(self):
        assert truncated_product([1, 1, 1, 1], [1, 1, 1, 1], 3) == [1, 2, 3, 4]

    def test_full_order_is_the_product(self):
        # the hand expansions the divisibility test's poly_product relies on
        assert poly_product(ONE_PLUS_T_SQUARED, ONE_PLUS_T_SQUARED) == (1, 0, 2, 0, 1)
        t_minus_1 = (-1, 1)
        cube = poly_product(poly_product(t_minus_1, t_minus_1), t_minus_1)
        assert cube == (-1, 3, -3, 1)  # t^3 - 3t^2 + 3t - 1
        assert not any(poly_product((), ONE_PLUS_T_SQUARED))


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
