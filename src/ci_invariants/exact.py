"""Exact arithmetic building blocks: dense integer polynomials, Gaussian
integers, and truncated integer power series.

A polynomial is a tuple of coefficients indexed by degree, trimmed of
trailing zeros so that equality and hashing are structural; the zero
polynomial is the empty tuple.  Everything is built on Python's
arbitrary-precision ``int``, so results are exact at any magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0; zero whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True, slots=True)
class GaussianInteger:
    """Complex number with exact integer real and imaginary parts."""

    re: int = 0
    im: int = 0

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> GaussianInteger:
        return GaussianInteger(-self.re, -self.im)

    def __add__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, GaussianInteger):
            return GaussianInteger(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return GaussianInteger(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, GaussianInteger):
            return GaussianInteger(self.re - other.re, self.im - other.im)
        if isinstance(other, int):
            return GaussianInteger(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other: int) -> GaussianInteger:
        if isinstance(other, int):
            return GaussianInteger(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, GaussianInteger):
            return GaussianInteger(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> GaussianInteger:
        if exponent < 0:
            raise ValueError("negative powers are not defined for Gaussian integers")
        result = GaussianInteger(1, 0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


#: The imaginary unit; I*I == GaussianInteger(-1, 0).
I = GaussianInteger(0, 1)


class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are indexed by degree.  Instances are immutable and kept
    in canonical form (no trailing zero coefficients), so ``==`` and
    ``hash`` are structural.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> IntPolynomial:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * degree + [coeff])

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, degree: int) -> int:
        if degree < 0:
            raise ValueError("coefficient index must be >= 0")
        return self._coeffs[degree] if degree < len(self._coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self._coeffs)

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> IntPolynomial:
        return (-self) + other

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IntPolynomial:
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPolynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def eval_gaussian(self, z: GaussianInteger) -> GaussianInteger:
        """Exact Horner evaluation at a Gaussian integer point, on two plain
        integer accumulators for the real and imaginary parts."""
        zr, zi = z.re, z.im
        re = im = 0
        for c in reversed(self._coeffs):
            re, im = re * zr - im * zi + c, re * zi + im * zr
        return GaussianInteger(re, im)

    def __divmod__(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Exact long division; the divisor's leading coefficient must be +-1."""
        if not isinstance(divisor, IntPolynomial):
            return NotImplemented
        if divisor.is_zero:
            raise ValueError("division by the zero polynomial")
        lead = divisor._coeffs[-1]
        if lead not in (1, -1):
            raise ValueError(
                "divisor leading coefficient must be +1 or -1 for exact integer division"
            )
        m = divisor.degree
        rem = list(self._coeffs)
        if len(rem) <= m:
            return IntPolynomial(), self
        quo = [0] * (len(rem) - m)
        for top in range(len(rem) - 1, m - 1, -1):
            factor = rem[top] * lead  # lead is its own inverse
            quo[top - m] = factor
            if factor:
                for j, c in enumerate(divisor._coeffs):
                    rem[top - m + j] -= factor * c
        return IntPolynomial(quo), IntPolynomial(rem[:m])

    def __floordiv__(self, divisor: IntPolynomial) -> IntPolynomial:
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: IntPolynomial) -> IntPolynomial:
        return divmod(self, divisor)[1]

    def divisible_by(self, divisor: IntPolynomial) -> bool:
        """True iff exact division over the integers leaves zero remainder."""
        return divmod(self, divisor)[1].is_zero

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for j, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "t" if j == 1 else f"t^{j}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


#: 1 + t^2, the Poincare polynomial of the projective line; irreducible over
#: the integers, and monic, so divisibility by it is decidable exactly.
ONE_PLUS_T_SQUARED = IntPolynomial([1, 0, 1])


class TruncatedSeries:
    """Integer power series with coefficients known exactly up to a fixed
    truncation order.

    Construction discards coefficients beyond the order and zero-pads up to
    it, so every instance stores exactly ``order + 1`` coefficients.
    Multiplication and inversion are exact in all retained coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int], order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = list(coeffs)[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
        self._coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls((1,), order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def coefficient(self, j: int) -> int:
        if not 0 <= j <= self.order:
            raise ValueError(f"coefficient {j} is beyond truncation order {self.order}")
        return self._coeffs[j]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self.order
        if other.order != n:
            raise ValueError("cannot multiply series with different truncation orders")
        out = [0] * (n + 1)
        bs = other._coeffs
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = bs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    def scaled(self, c: int) -> TruncatedSeries:
        return TruncatedSeries((c * a for a in self._coeffs), self.order)

    def shifted(self, k: int = 1) -> TruncatedSeries:
        """Multiply by H^k; the top k coefficients fall off the truncation."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return TruncatedSeries((0,) * k + self._coeffs, self.order)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("series inversion requires constant term +1 or -1")
        n = self.order
        inv = [0] * (n + 1)
        inv[0] = c0  # c0 is its own inverse
        for m in range(1, n + 1):
            s = 0
            for j in range(1, m + 1):
                a = self._coeffs[j]
                if a:
                    s += a * inv[m - j]
            inv[m] = -c0 * s
        return TruncatedSeries(inv, n)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)!r}, order={self.order})"


def series_coefficient(degrees: Sequence[int], n: int) -> int:
    """Coefficient of H^n in (1 + H)^(n+1) * prod_i (d_i H / (1 + d_i H)).

    Each 1/(1 + d H) is expanded as the alternating geometric series
    sum_j (-d)^j H^j truncated at order n; all arithmetic is exact.  With no
    degrees at all the result is C(n+1, n) = n + 1.
    """
    if n < 0:
        raise ValueError(f"series order must be >= 0, got {n}")
    for d in degrees:
        if d < 1:
            raise ValueError(f"degrees must be >= 1, got {d}")
    acc = TruncatedSeries((binomial(n + 1, j) for j in range(n + 1)), n)
    for d in degrees:
        geometric = TruncatedSeries((1, d), n).inverse()
        acc = (acc * geometric).shifted(1).scaled(d)
    return acc.coefficient(n)
