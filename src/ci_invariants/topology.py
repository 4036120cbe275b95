"""Topological invariants of smooth complete intersections in projective
space, computed exactly from the type alone.

A complete intersection of type (d_1, ..., d_l) in P^n is cut out
transversally by l hypersurfaces of the listed degrees and has dimension
k = n - l.  Its Euler characteristic is read off Hirzebruch's generating
function (Topological Methods in Algebraic Geometry, section 22)

    sum_n chi(D in P^n) z^n = (1 - z)^-2 * prod_i d_i z / (1 + (d_i - 1) z),

which expands with one first-order integer recurrence per degree, in
O(k * l) exact steps.  Degree-1 entries only shift n, so one run of the
recurrence for the degrees >= 2 gives chi at every k up to its length:
``euler_characteristic`` reads one value off it, and
``euler_characteristic_row`` the whole row.  The tests compare both with
the coefficient of H^n in (1 + H)^(n+1) * prod_i (d_i H / (1 + d_i H)),
an independent route kept in ``tests/reference.py``, outside the package.

Every Betti number except the middle one is forced by the Lefschetz
hyperplane theorem together with Poincare duality: rank 1 in each even
degree, 0 in each odd degree.  The middle Betti number b_k therefore
follows from the Euler characteristic, and the Poincare polynomial is

    p(t) = sum_{q=0}^{k} t^(2q) + (b_k - delta_k) t^k,

with delta_k = 1 for even k and 0 for odd k.  ``compute_invariants`` is the
one place that derives b_k, p(t) and p(i) from chi, and it runs the
built-in cross-checks once per type; read the invariants from its report.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator

from .exact import GaussianInteger, IntPolynomial


class InternalCheckError(RuntimeError):
    """A built-in cross-check failed; this signals an implementation bug,
    never a property of the input."""


class CIType(namedtuple("CIType", "ambient_dim degrees")):
    """A complete intersection type: ambient projective dimension plus a
    multiset of hypersurface degrees, stored sorted ascending.

    The empty degree multiset means the ambient space itself.  Permuting
    the input degrees never changes the value: construction canonicalizes.
    A type is an immutable named tuple (n, degrees), with the tuple's
    equality and hashing.  ``__new__`` validates, and ``_make``,
    ``_replace``, pickling and copying all go through it.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, degrees: Iterable[int] = ()) -> CIType:
        # Exact type tests: coercing 2.7 or "2" would change the type
        # silently, and bool is an int subclass that is no dimension or degree.
        n = ambient_dim
        if type(n) is not int or n < 0:
            raise ValueError(f"ambient dimension must be an integer >= 0, got {n!r}")
        degs = tuple(degrees)
        for d in degs:
            if type(d) is not int:
                raise ValueError(f"degrees must be integers, got {d!r}")
            if d < 1:
                raise ValueError(f"degrees must be >= 1, got {d}")
        if len(degs) > n:
            raise ValueError(
                f"{len(degs)} hypersurfaces in P^{n} would have negative dimension"
            )
        return tuple.__new__(cls, (n, tuple(sorted(degs))))

    @classmethod
    def _make(cls, iterable: Iterable) -> CIType:
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def dimension(self) -> int:
        """k = n - l, the dimension of the intersection."""
        return self.ambient_dim - len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    def __str__(self) -> str:
        inner = ",".join(str(d) for d in self.degrees)
        return f"({inner}) in P^{self.ambient_dim}"


def _unchecked_type(n: int, degrees: tuple[int, ...]) -> CIType:
    """A ``CIType`` built without the validation in ``CIType.__new__``, for
    a caller that generates sorted tuples of ints >= 1, of length <= n,
    itself."""
    return tuple.__new__(CIType, (n, degrees))


#: The Euler characteristic's recurrence runs over blocks of this many
#: coefficients, so it holds one block plus one carry per degree >= 2, not
#: k + 1 growing coefficients per degree.
_CHI_BLOCK = 512


def _divide_series(coeffs: list[int], ratios: list[int], carries: list[int]) -> None:
    """Divide a block of series coefficients in place by each 1 + r z, for
    r in ``ratios``: c_j <- c_j - r c_{j-1}, where ``carries`` holds, per
    ratio, the c_{j-1} of the block's first coefficient and, on return,
    the block's last c_j, to carry into the next block."""
    for f, r in enumerate(ratios):
        prev = carries[f]
        for j, c in enumerate(coeffs):
            prev = c - r * prev
            coeffs[j] = prev
        carries[f] = prev


def euler_characteristic(ci: CIType) -> int:
    """Euler characteristic of a nonsingular complete intersection of the
    given type; the ambient space itself gives n + 1.

    chi = prod(d_i) * [z^k] (1 - z)^-2 * prod_{d_i >= 2} 1 / (1 + (d_i - 1) z):
    the coefficients 1, 2, ..., k + 1 of (1 - z)^-2 go through
    ``_divide_series`` in blocks of ``_CHI_BLOCK``, so memory is linear in
    k.  Degree-1 entries only shift n, so they skip the recurrence.
    """
    k = ci.dimension
    ratios = [d - 1 for d in ci.degrees if d > 1]
    carries = [0] * len(ratios)
    for start in range(0, k + 1, _CHI_BLOCK):
        coeffs = list(range(start + 1, min(start + _CHI_BLOCK, k + 1) + 1))
        _divide_series(coeffs, ratios, carries)
    return math.prod(ci.degrees) * coeffs[-1]


def euler_characteristic_row(reduced: tuple[int, ...], max_k: int) -> list[int]:
    """The Euler characteristics of every type whose degrees >= 2 are
    ``reduced``, indexed by its dimension k = 0 .. max_k: the degree-1
    entries change neither the product of the degrees nor the series, so
    one run of ``euler_characteristic``'s recurrence, over one block of
    max_k + 1 coefficients, gives the whole row."""
    coeffs = list(range(1, max_k + 2))
    _divide_series(coeffs, [d - 1 for d in reduced], [0] * len(reduced))
    scale = math.prod(reduced)
    return [scale * c for c in coeffs]


def chi22(k: int) -> int:
    """Euler characteristic of a type-(2,2) complete intersection in
    P^(k+2), via the binomial sum

        sum_{i=0}^{k} 2^(k+2-i) (-1)^(k-i) (k+1-i) C(k+3, i),

    checked on every call against the closed form (k+2)(1 + (-1)^k).

    Since 2^(k+2-i) (-1)^(k-i) = 4 (-2)^(k-i), the sum is 4 times a
    polynomial in -2, evaluated by Horner's rule, with C(k+3, i) carried
    from one term to the next."""
    if k < 0:
        raise ValueError(f"dimension must be >= 0, got {k}")
    total, binomial = 0, 1
    for i in range(k + 1):
        total = -2 * total + (k + 1 - i) * binomial
        binomial = binomial * (k + 3 - i) // (i + 1)
    total *= 4
    closed = ((-1) ** k) * ((k + 2) + ((-1) ** k) * (k + 2))
    if total != closed:
        raise InternalCheckError(
            f"binomial sum {total} != closed form {closed} at k={k}"
        )
    return total


def verify_expansion_identities(max_k: int) -> Iterator[bool]:
    """For each k = 0 .. max_k in turn, whether the exact polynomial identity

        (k+3)(t-1)^(k+2) - (t-1)^(k+3) + (-1)^(k+3)
            = sum_{i=0}^{k+2} t^(k+2-i) (-1)^i (k+3-i-t) C(k+3, i)

    holds.  Both sides are coefficient lists built by multiplication:
    (t-1)^(k+2) is carried from one k to the next by one multiplication by
    t - 1, and row k+3 of Pascal's triangle by one multiplication by t + 1
    (Pascal's rule).  ``max_k`` is checked here, not at the first value.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    return _expansion_identities(max_k)


def _times_t_plus(p: list[int], c: int) -> list[int]:
    """The coefficients of p(t) (t + c), lowest degree first."""
    return [a + c * b for a, b in zip([0] + p, p + [0])]


def _expansion_identities(max_k: int) -> Iterator[bool]:
    power = [1, -2, 1]  # (t-1)^(k+2)
    row = [1, 3, 3, 1]  # C(k+3, i), i = 0 .. k+3
    for k in range(max_k + 1):
        n = k + 3
        higher = _times_t_plus(power, -1)
        lhs = [n * a - b for a, b in zip(power + [0], higher)]
        lhs[0] += (-1) ** n
        rhs = [0] * (n + 1)
        for i, c in enumerate(row[:n]):
            c = -c if i % 2 else c
            rhs[n - 1 - i] += c * (n - i)
            rhs[n - i] -= c
        yield lhs == rhs
        power = higher
        row = _times_t_plus(row, 1)


class InvariantReport(namedtuple(
        "InvariantReport", "ci euler_char middle_betti poincare value_at_i")):
    """All computed invariants of one complete intersection type: its Euler
    characteristic and middle Betti number (ints), its Poincare polynomial
    (an ``IntPolynomial``) and that polynomial's ``GaussianInteger`` value
    at i."""

    __slots__ = ()


def _values_at_units(p: IntPolynomial) -> tuple[int, int, GaussianInteger]:
    """p(-1), p(1) and p(i), each an exact sum of strided coefficients.

    The cost is linear in the size of the coefficients.  Horner's rule would
    carry one large coefficient through every later step and be quadratic.
    """
    c = p.coefficients
    even, odd = sum(c[::2]), sum(c[1::2])
    at_i = GaussianInteger(sum(c[::4]) - sum(c[2::4]), sum(c[1::4]) - sum(c[3::4]))
    return even - odd, even + odd, at_i


def compute_invariants(ci: CIType, chi: int | None = None) -> InvariantReport:
    """Bundle every invariant of a type from one Euler characteristic.

    Runs each built-in cross-check once: b_k >= 0, p(-1) equals chi, p(1)
    equals the total Betti sum, and p(i) vanishes exactly when k is odd
    with b_k = 0 or k = 2 mod 4 with b_k = 2.  The three values come from
    ``_values_at_units``, in time linear in the size of p.

    ``chi`` is the type's Euler characteristic when the caller already has
    it, as the lemma scan does from ``euler_characteristic_row``; otherwise
    it is computed here.
    """
    k = ci.dimension
    if chi is None:
        chi = euler_characteristic(ci)
    b = (k + 1) - chi if k % 2 else chi - k
    if b < 0:
        raise InternalCheckError(f"negative middle Betti number {b} for {ci}")
    delta = 1 if k % 2 == 0 else 0
    coeffs = [0] * (2 * k + 1)
    coeffs[::2] = [1] * (k + 1)
    coeffs[k] += b - delta
    p = IntPolynomial(coeffs)
    at_minus_1, at_1, value = _values_at_units(p)
    if at_minus_1 != chi:
        raise InternalCheckError(f"p(-1) = {at_minus_1} != chi = {chi} for {ci}")
    if at_1 != (k + 1) + b - delta:
        raise InternalCheckError(f"p(1) = {at_1} is not the Betti sum for {ci}")
    expected = (k % 2 == 1 and b == 0) or (k % 4 == 2 and b == 2)
    if value.is_zero != expected:
        raise InternalCheckError(
            f"evaluation at i ({value}) disagrees with the parity "
            f"characterization for {ci} (k={k}, b_k={b})"
        )
    return InvariantReport(
        ci=ci,
        euler_char=chi,
        middle_betti=b,
        poincare=p,
        value_at_i=value,
    )
