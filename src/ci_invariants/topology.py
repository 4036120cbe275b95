"""Topological invariants of smooth complete intersections in projective
space, computed exactly from the type alone.

A complete intersection of type (d_1, ..., d_l) in P^n is cut out
transversally by l hypersurfaces of the listed degrees and has dimension
k = n - l.  Its Euler characteristic is read off Hirzebruch's generating
function (Topological Methods in Algebraic Geometry, section 22)

    sum_n chi(D in P^n) z^n = (1 - z)^-2 * prod_i d_i z / (1 + (d_i - 1) z),

which expands with one first-order integer recurrence per degree, in
O(k * l) exact steps.  Degree-1 entries only shift n, so one run of the
recurrence for the degrees >= 2 gives chi at every k up to its length.
``euler_characteristic`` runs it as one loop that divides (1 - z)^-2 by
1 + (d - 1) z for each degree d and holds one running value per degree.
The tests compare it with the coefficient of H^n in (1 + H)^(n+1) *
prod_i (d_i H / (1 + d_i H)), an independent route kept in
``tests/reference.py``, outside the package.

Every Betti number except the middle one is forced by the Lefschetz
hyperplane theorem together with Poincare duality: rank 1 in each even
degree, 0 in each odd degree.  The middle Betti number b_k therefore
follows from the Euler characteristic, and the Poincare polynomial is

    p(t) = sum_{q=0}^{k} t^(2q) + (b_k - delta_k) t^k,

with delta_k = 1 for even k and 0 for odd k.  So p is fixed by (k, b_k),
and so are p(-1) = chi, p(1) and p(i), in closed form.
``compute_invariants`` is the one place that derives b_k and p(i) from
chi; read the invariants from its report.  The report's ``poincare``
builds the dense coefficient tuple of p from (k, b_k) only when it is
read, so no scan builds it.  The tests evaluate those coefficients by
Horner's rule, in ``tests/reference.py``, as the independent route.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Iterator


class GaussianInteger(namedtuple("GaussianInteger", "re im", defaults=(0, 0))):
    """Complex number with exact integer real and imaginary parts: the
    named tuple (re, im), true iff nonzero."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


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


def _reduced(ci: CIType) -> tuple[int, ...]:
    # ``degrees`` is sorted ascending, so its degree-1 entries lead.
    return ci.degrees[ci.degrees.count(1):]


def euler_characteristic(ci: CIType) -> int:
    """Euler characteristic of a nonsingular complete intersection of the
    given type; the ambient space itself gives n + 1.

    chi = prod(d_i) * [z^k] (1 - z)^-2 * prod_{d_i >= 2} 1 / (1 + (d_i - 1) z).
    Each coefficient 1 .. k + 1 of (1 - z)^-2 goes through every division
    by 1 + r z in turn, c <- c - r c', where c' is that division's previous
    output; those outputs, one per degree >= 2, are the only state held.
    Degree-1 entries only shift n, so they skip the recurrence.
    """
    ratios = [d - 1 for d in _reduced(ci)]
    outputs = [0] * len(ratios)
    for c in range(1, ci.dimension + 2):
        for f, r in enumerate(ratios):
            c -= r * outputs[f]
            outputs[f] = c
    return math.prod(ci.degrees) * c


def chi22(k: int) -> int:
    """Euler characteristic of a type-(2,2) complete intersection in
    P^(k+2), via the binomial sum

        sum_{i=0}^{k} 2^(k+2-i) (-1)^(k-i) (k+1-i) C(k+3, i),

    checked on every call against the closed form (k+2)(1 + (-1)^k)."""
    if k < 0:
        raise ValueError(f"dimension must be >= 0, got {k}")
    total = _chi22_sum(k)
    closed = ((-1) ** k) * ((k + 2) + ((-1) ** k) * (k + 2))
    if total != closed:
        raise InternalCheckError(
            f"binomial sum {total} != closed form {closed} at k={k}"
        )
    return total


def _chi22_sum(k: int) -> int:
    """The binomial sum of ``chi22``.  Since 2^(k+2-i) (-1)^(k-i) =
    4 (-2)^(k-i), it is 4 times a polynomial in -2, evaluated by Horner's
    rule, with C(k+3, i) carried from one term to the next."""
    total, binomial = 0, 1
    for i in range(k + 1):
        total = -2 * total + (k + 1 - i) * binomial
        binomial = binomial * (k + 3 - i) // (i + 1)
    return 4 * total


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
        "InvariantReport", "ci euler_char middle_betti value_at_i")):
    """All computed invariants of one complete intersection type: its Euler
    characteristic and middle Betti number (ints) and its Poincare
    polynomial's ``GaussianInteger`` value at i.  The polynomial itself is
    ``poincare``, built on each read."""

    __slots__ = ()

    @property
    def poincare(self) -> tuple[int, ...]:
        """The coefficients of p(t), indexed by degree: 1 at each even
        degree 0 .. 2k, and b_k at degree k."""
        k = self.ci.dimension
        coeffs = [0] * (2 * k + 1)
        coeffs[::2] = [1] * (k + 1)
        coeffs[k] = self.middle_betti
        return tuple(coeffs)


def compute_invariants(ci: CIType, chi: int | None = None) -> InvariantReport:
    """Bundle every invariant of a type from one Euler characteristic, in
    O(1) steps past chi.

    p(i) is read off (k, b_k) in closed form: the even powers of t sum to
    1 at i for even k and to 0 for odd k, so p(i) is b i^k for odd k,
    b for k = 0 mod 4 and 2 - b for k = 2 mod 4.  It vanishes exactly when
    k is odd with b_k = 0 or k = 2 mod 4 with b_k = 2.  No coefficient list
    is built here: the report's ``poincare`` builds one, in time linear in
    k, each time it is read.

    The one built-in check is b_k >= delta_k: b_k is never negative, and
    for even k the k/2-th power of the hyperplane class lies in H^k, so
    b_k >= 1.

    ``chi`` is the type's Euler characteristic when the caller already has
    it, as the lemma scan does from its columns of b_k; otherwise it is
    computed here.
    """
    k = ci.dimension
    if chi is None:
        chi = euler_characteristic(ci)
    b = (k + 1) - chi if k % 2 else chi - k
    delta = 1 if k % 2 == 0 else 0
    if b < delta:
        raise InternalCheckError(f"middle Betti number {b} < {delta} for {ci}")
    return InvariantReport(ci=ci, euler_char=chi, middle_betti=b, value_at_i=_value_at_i(k, b))


def _value_at_i(k: int, b: int) -> GaussianInteger:
    """p(i) of a k-dimensional type with middle Betti number b: b i^k for
    odd k, b for k = 0 mod 4 and 2 - b for k = 2 mod 4."""
    if k % 2:
        return GaussianInteger(0, b if k % 4 == 1 else -b)
    return GaussianInteger(b if k % 4 == 0 else 2 - b, 0)
