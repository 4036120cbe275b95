"""Topological invariants of smooth complete intersections in projective
space, computed exactly from the type alone.

A complete intersection of type (d_1, ..., d_l) in P^n is cut out
transversally by l hypersurfaces of the listed degrees and has dimension
k = n - l.  Its Euler characteristic is read off Hirzebruch's generating
function (Topological Methods in Algebraic Geometry, section 22)

    sum_n chi(D in P^n) z^n = (1 - z)^-2 * prod_i d_i z / (1 + (d_i - 1) z),

which expands with one first-order integer recurrence per degree, in
O(k * l) exact steps.  The coefficient of H^n in
(1 + H)^(n+1) * prod_i (d_i H / (1 + d_i H)), computed from truncated
series by ``exact.series_coefficient``, is the same number by an
independent route and is kept as the cross-check that tests compare with.

Every Betti number except the middle one is forced by the Lefschetz
hyperplane theorem together with Poincare duality: rank 1 in each even
degree, 0 in each odd degree.  The middle Betti number b_k therefore
follows from the Euler characteristic, and the Poincare polynomial is

    p(t) = sum_{q=0}^{k} t^(2q) + (b_k - delta_k) t^k,

with delta_k = 1 for even k and 0 for odd k.  ``compute_invariants`` is the
one place that derives b_k, p(t) and p(i) from chi, and it runs the
built-in cross-checks once per type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import GaussianInteger, I, IntPolynomial, binomial


class InternalCheckError(RuntimeError):
    """A built-in cross-check failed; this signals an implementation bug,
    never a property of the input."""


@dataclass(frozen=True)
class CIType:
    """A complete intersection type: ambient projective dimension plus a
    multiset of hypersurface degrees, stored sorted ascending.

    The empty degree multiset means the ambient space itself.  Permuting
    the input degrees never changes the value: construction canonicalizes.
    """

    ambient_dim: int
    degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Exact type tests: coercing 2.7 or "2" would change the type
        # silently, and bool is an int subclass that is no dimension or degree.
        n = self.ambient_dim
        if type(n) is not int or n < 0:
            raise ValueError(f"ambient dimension must be an integer >= 0, got {n!r}")
        degs = tuple(self.degrees)
        for d in degs:
            if type(d) is not int:
                raise ValueError(f"degrees must be integers, got {d!r}")
            if d < 1:
                raise ValueError(f"degrees must be >= 1, got {d}")
        object.__setattr__(self, "degrees", tuple(sorted(degs)))
        if len(degs) > n:
            raise ValueError(
                f"{len(degs)} hypersurfaces in P^{n} would have negative dimension"
            )

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


def reduce_type(ci: CIType) -> CIType:
    """Drop degree-1 entries: a hyperplane section just lowers the ambient
    space, so the reduced type has the same invariants."""
    ones = ci.degrees.count(1)
    return CIType(ci.ambient_dim - ones, tuple(d for d in ci.degrees if d > 1))


def euler_characteristic(ci: CIType) -> int:
    """Euler characteristic of a nonsingular complete intersection of the
    given type; the ambient space itself gives n + 1.

    chi = prod(d_i) * [z^k] (1 - z)^-2 * prod_{d_i >= 2} 1 / (1 + (d_i - 1) z):
    the coefficients 1, 2, ..., k + 1 of (1 - z)^-2 are divided by each
    1 + (d - 1) z in place, c_j <- c_j - (d - 1) c_{j-1}.  Degree-1 entries
    only shift n, so they skip the loop.
    """
    k = ci.dimension
    coeffs = list(range(1, k + 2))
    for d in ci.degrees:
        if d > 1:
            r = d - 1
            prev = 0
            for j in range(k + 1):
                prev = coeffs[j] - r * prev
                coeffs[j] = prev
    return math.prod(ci.degrees) * coeffs[k]


def middle_betti(ci: CIType) -> int:
    """Middle Betti number b_k, recovered from the Euler characteristic.

    The ranks away from the middle degree are forced (1 in each even
    degree, 0 in each odd one), so for odd k the alternating sum gives
    b_k = (k+1) - chi and for even k it gives b_k = chi - k.  In dimension 0
    the intersection is prod(d_i) points.
    """
    return compute_invariants(ci).middle_betti


def poincare_polynomial(ci: CIType) -> IntPolynomial:
    """Poincare polynomial sum_q b_q t^q of the given type."""
    return compute_invariants(ci).poincare


def vanishes_at_i(ci: CIType) -> bool:
    """True iff the Poincare polynomial vanishes at the imaginary unit:
    exactly when k is odd with b_k = 0, or k = 2 mod 4 with b_k = 2."""
    return compute_invariants(ci).value_at_i.is_zero


def hypersurface_middle_betti(e: int, k: int) -> int:
    """Closed form for the middle Betti number of a degree-e hypersurface
    in P^(k+1):  b_k = delta_k + (e-1)/e * ((e-1)^(k+1) - (-1)^(k+1)).

    The division by e is exact; a non-exact division can only mean a bug.
    """
    if e < 1:
        raise ValueError(f"hypersurface degree must be >= 1, got {e}")
    if k < 0:
        raise ValueError(f"dimension must be >= 0, got {k}")
    delta = 1 if k % 2 == 0 else 0
    numerator = (e - 1) * ((e - 1) ** (k + 1) - (-1) ** (k + 1))
    if numerator % e:
        raise InternalCheckError(
            f"closed-form numerator {numerator} is not divisible by e={e}"
        )
    return delta + numerator // e


def chi22(k: int) -> int:
    """Euler characteristic of a type-(2,2) complete intersection in
    P^(k+2), via the binomial sum

        sum_{i=0}^{k} 2^(k+2-i) (-1)^(k-i) (k+1-i) C(k+3, i),

    checked on every call against the closed form (k+2)(1 + (-1)^k)."""
    if k < 0:
        raise ValueError(f"dimension must be >= 0, got {k}")
    total = sum(
        2 ** (k + 2 - i) * (-1) ** (k - i) * (k + 1 - i) * binomial(k + 3, i)
        for i in range(k + 1)
    )
    closed = ((-1) ** k) * ((k + 2) + ((-1) ** k) * (k + 2))
    if total != closed:
        raise InternalCheckError(
            f"binomial sum {total} != closed form {closed} at k={k}"
        )
    return total


def verify_expansion_identity(k: int) -> bool:
    """Check, as exact polynomial equality, that

        (k+3)(t-1)^(k+2) - (t-1)^(k+3) + (-1)^(k+3)
            = sum_{i=0}^{k+2} t^(k+2-i) (-1)^i (k+3-i-t) C(k+3, i).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    t_minus_1 = IntPolynomial([-1, 1])
    base = t_minus_1 ** (k + 2)
    lhs = (k + 3) * base - base * t_minus_1 + IntPolynomial([(-1) ** (k + 3)])
    rhs_coeffs = [0] * (k + 4)
    for i in range(k + 3):
        c = (-1) ** i * binomial(k + 3, i)
        rhs_coeffs[k + 2 - i] += c * (k + 3 - i)
        rhs_coeffs[k + 3 - i] -= c
    return lhs == IntPolynomial(rhs_coeffs)


@dataclass(frozen=True)
class InvariantReport:
    """All computed invariants of one complete intersection type."""

    ci: CIType
    dimension: int
    euler_char: int
    middle_betti: int
    poincare: IntPolynomial
    value_at_i: GaussianInteger


def compute_invariants(ci: CIType) -> InvariantReport:
    """Bundle every invariant of a type from one Euler characteristic.

    Runs each built-in cross-check once: b_k >= 0, p(-1) equals chi, p(1)
    equals the total Betti sum, and the Horner value p(i) vanishes exactly
    when k is odd with b_k = 0 or k = 2 mod 4 with b_k = 2.
    """
    k = ci.dimension
    chi = euler_characteristic(ci)
    b = (k + 1) - chi if k % 2 else chi - k
    if b < 0:
        raise InternalCheckError(f"negative middle Betti number {b} for {ci}")
    delta = 1 if k % 2 == 0 else 0
    coeffs = [0] * (2 * k + 1)
    coeffs[::2] = [1] * (k + 1)
    coeffs[k] += b - delta
    p = IntPolynomial(coeffs)
    if p(-1) != chi:
        raise InternalCheckError(f"p(-1) = {p(-1)} != chi = {chi} for {ci}")
    if p(1) != (k + 1) + b - delta:
        raise InternalCheckError(f"p(1) = {p(1)} is not the Betti sum for {ci}")
    value = p.eval_gaussian(I)
    expected = (k % 2 == 1 and b == 0) or (k % 4 == 2 and b == 2)
    if value.is_zero != expected:
        raise InternalCheckError(
            f"evaluation at i ({value}) disagrees with the parity "
            f"characterization for {ci} (k={k}, b_k={b})"
        )
    return InvariantReport(
        ci=ci,
        dimension=k,
        euler_char=chi,
        middle_betti=b,
        poincare=p,
        value_at_i=value,
    )
