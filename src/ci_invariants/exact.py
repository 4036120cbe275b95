"""Exact arithmetic building blocks: dense integer polynomials and Gaussian
integers.

A polynomial is a tuple of coefficients indexed by degree, trimmed of
trailing zeros so that equality and hashing are structural; the zero
polynomial is the empty tuple.  ``IntPolynomial`` holds what the engine
needs of a Poincare polynomial and no more: its coefficients and its
printed form.  It has no arithmetic: the engine reads a Poincare
polynomial's values off (k, b_k), and a test that multiplies, divides or
evaluates polynomials does so on coefficient lists.  Everything is built
on Python's arbitrary-precision ``int``, so results are exact at any
magnitude.
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
