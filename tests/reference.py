"""Independent cross-checks for the test suite.

The package computes the Euler characteristic with Hirzebruch's
generating-function recurrence and reads every other invariant from it.
The functions here reach the same numbers by other routes, so that a test
comparing the two catches a mistake in either.  This module imports nothing
from ``ci_invariants`` (``tests/test_reference.py`` enforces that) and holds
only plain functions on ints, tuples and lists.
"""

from __future__ import annotations

from math import comb


def truncated_product(a: list[int], b: list[int], order: int) -> list[int]:
    """The coefficients of a * b up to H^order, by plain convolution."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def series_coefficient(degrees, n: int) -> int:
    """[H^n] (1 + H)^(n+1) * prod_d (d H / (1 + d H)), the Euler
    characteristic of a complete intersection of these degrees in P^n
    (Hirzebruch, Topological Methods in Algebraic Geometry, section 22).

    Each 1 / (1 + d H) is the alternating geometric series sum_j (-d)^j H^j.
    """
    if n < 0:
        raise ValueError(f"series order must be >= 0, got {n}")
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be >= 1, got {list(degrees)}")
    acc = [comb(n + 1, j) for j in range(n + 1)]
    for d in degrees:
        acc = truncated_product(acc, [(-d) ** j for j in range(n + 1)], n)
        acc = [0] + [d * c for c in acc[:n]]
    return acc[n]


def chi_structure_sheaf(n: int, degrees) -> int:
    """chi(O_X) of a complete intersection of these degrees in P^n, as
    [z^n] (1 - z)^-1 * prod_d (1 - (1 - z)^d): Hirzebruch's chi_y
    generating function at y = 0.  Each factor 1 - (1 - z)^d has the
    coefficients (-1)^(j+1) C(d, j) for j >= 1, and (1 - z)^-1 sums the
    coefficients up to z^n."""
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be >= 1, got {list(degrees)}")
    acc = [1] * (n + 1)
    for d in degrees:
        factor = [0] + [(-1) ** (j + 1) * comb(d, j) for j in range(1, n + 1)]
        acc = truncated_product(acc, factor, n)
    return acc[n]


def hypersurface_middle_betti(e: int, k: int) -> int:
    """Middle Betti number of a degree-e hypersurface in P^(k+1), in closed
    form:  b_k = delta_k + (e-1)/e * ((e-1)^(k+1) - (-1)^(k+1)),
    with delta_k = 1 for even k and 0 for odd k."""
    if e < 1 or k < 0:
        raise ValueError(f"need e >= 1 and k >= 0, got e={e}, k={k}")
    numerator = (e - 1) * ((e - 1) ** (k + 1) - (-1) ** (k + 1))
    if numerator % e:
        raise AssertionError(f"closed-form numerator {numerator} is not divisible by {e}")
    return (1 if k % 2 == 0 else 0) + numerator // e


def chi22_terms(k: int) -> int:
    """Euler characteristic of a type-(2,2) complete intersection in
    P^(k+2), as the binomial sum with each term built anew:
    sum_{i=0}^{k} 2^(k+2-i) (-1)^(k-i) (k+1-i) C(k+3, i)."""
    return sum(
        2 ** (k + 2 - i) * (-1) ** (k - i) * (k + 1 - i) * comb(k + 3, i)
        for i in range(k + 1)
    )


def horner(coeffs, x: int) -> int:
    """The polynomial with these coefficients, lowest degree first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_at_i(coeffs) -> tuple[int, int]:
    """The polynomial with these coefficients, lowest degree first, at the
    imaginary unit, as (real part, imaginary part)."""
    re = im = 0
    for c in reversed(coeffs):
        re, im = c - im, re  # (re + im i) * i + c
    return re, im


def reduce_type(n: int, degrees) -> tuple[int, tuple[int, ...]]:
    """Drop the degree-1 entries: a hyperplane section only lowers the
    ambient space, so (n, degrees) and the result have the same invariants."""
    ones = list(degrees).count(1)
    return n - ones, tuple(sorted(d for d in degrees if d > 1))


def divisible_by_one_plus_t_squared(coeffs) -> bool:
    """Whether 1 + t^2 divides the polynomial with these coefficients,
    lowest degree first, by the plain remainder loop of long division:
    each step pops the top coefficient c of t^j and subtracts c t^(j-2)
    (1 + t^2), until the remainder has degree < 2."""
    rem = list(coeffs)
    while len(rem) > 2:
        c = rem.pop()
        rem[-2] -= c
    return not any(rem)


def poincare_coefficients(k: int, b: int) -> list[int]:
    """The Poincare polynomial of a k-dimensional complete intersection with
    middle Betti number b, lowest degree first: by the Lefschetz hyperplane
    theorem and Poincare duality, 1 in each even degree 0 .. 2k and 0 in
    each odd one, except b in degree k."""
    return [b if j == k else (j + 1) % 2 for j in range(2 * k + 1)]


def polynomial_text(coeffs) -> str:
    """The polynomial with these coefficients, all >= 0, lowest degree
    first, as the table prints it: ``1 + 2t + t^2``, zero terms left out."""
    terms = []
    for j, c in enumerate(coeffs):
        if c:
            coefficient = str(c) if c != 1 or j == 0 else ""
            power = "" if j == 0 else "t" if j == 1 else "t^" + str(j)
            terms.append(coefficient + power)
    return " + ".join(terms)
