"""Exact arithmetic building blocks: dense integer polynomials and Gaussian
integers.

A polynomial is a tuple of coefficients indexed by degree, trimmed of
trailing zeros so that equality and hashing are structural; the zero
polynomial is the empty tuple.  ``IntPolynomial`` holds what the engine
needs of a Poincare polynomial and no more: its coefficients, the test for
divisibility by a monic divisor such as 1 + t^2, and its printed form.  It
has no ring arithmetic; a caller that multiplies polynomials does so on
coefficient lists.  Everything is built on Python's arbitrary-precision
``int``, so results are exact at any magnitude.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable


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

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def divisible_by(self, divisor: IntPolynomial) -> bool:
        """True iff exact division over the integers leaves zero remainder;
        the divisor's leading coefficient must be +-1.  Only the remainder
        is kept, and no quotient is built.

        The usual remainder loop would carry a coefficient wider than
        ``_LOOP_BITS`` bits down through every later step, in quadratic
        time.  So the loop runs on the narrow coefficients alone, and each
        wide one, c t^j, is added at the end as c (t^j mod divisor), with
        t^j reduced by square-and-multiply.  For a divisor such as 1 + t^2,
        whose powers of t reduce to small coefficients, the cost is linear
        in the coefficients' total size."""
        if divisor.is_zero:
            raise ValueError("division by the zero polynomial")
        *lower, lead = divisor._coeffs
        if lead not in (1, -1):
            raise ValueError(
                "divisor leading coefficient must be +1 or -1 for exact integer division"
            )
        m = len(lower)
        terms = [(j, c) for j, c in enumerate(lower) if c]
        rem = list(self._coeffs)
        wide = [(j, c) for j, c in enumerate(rem) if c.bit_length() > _LOOP_BITS]
        for j, _ in wide:
            rem[j] = 0
        _reduce(rem, m, terms, lead)
        rem += [0] * (m - len(rem))
        for j, c in wide:
            for i, r in enumerate(_power_of_t_mod(j, m, terms, lead)):
                rem[i] += c * r
        return not any(rem)

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


#: A coefficient at most this wide rides down the remainder loop of
#: ``IntPolynomial.divisible_by``; a wider one is reduced on its own.
_LOOP_BITS = 256


def _reduce(rem: list[int], m: int, terms: list[tuple[int, int]], lead: int) -> None:
    """Reduce ``rem`` in place modulo a divisor of degree m with leading
    coefficient ``lead`` = +-1 and nonzero lower coefficients ``terms``:
    each step pops the top coefficient and subtracts its multiple of the
    lower terms, until at most m coefficients are left."""
    while len(rem) > m:
        factor = rem.pop() * lead  # lead is its own inverse
        if factor:
            base = len(rem) - m
            for j, c in terms:
                rem[base + j] -= factor * c


def _power_of_t_mod(e: int, m: int, terms: list[tuple[int, int]], lead: int) -> list[int]:
    """The m coefficients of t^e modulo the divisor ``_reduce`` describes,
    by square-and-multiply."""

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (2 * m)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        _reduce(out, m, terms, lead)
        return out

    result = [1] + [0] * m
    base = [0, 1] + [0] * m
    _reduce(result, m, terms, lead)
    _reduce(base, m, terms, lead)
    while e:
        if e & 1:
            result = mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return result


#: 1 + t^2, the Poincare polynomial of the projective line; irreducible over
#: the integers, and monic, so divisibility by it is decidable exactly.
ONE_PLUS_T_SQUARED = IntPolynomial([1, 0, 1])
