"""Exact arithmetic building blocks: dense integer polynomials and Gaussian
integers.

``IntPolynomial`` holds what the engine needs of a Poincare polynomial and
no more: the named tuple of its coefficient tuple, indexed by degree, and
its printed form.  Equality and hashing are the tuple's.  It has no
arithmetic: the engine reads a Poincare polynomial's values off (k, b_k),
and a test that multiplies, divides or evaluates polynomials does so on
coefficient lists.  Everything is built on Python's arbitrary-precision
``int``, so results are exact at any magnitude.
"""

from __future__ import annotations

from collections import namedtuple


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


class IntPolynomial(namedtuple("IntPolynomial", "coefficients")):
    """Dense univariate polynomial with exact integer coefficients: the
    named tuple (coefficients,), a tuple indexed by degree, kept as given.
    A Poincare polynomial has no trailing zero: its top coefficient is 1,
    or b_0 >= 1 in dimension 0."""

    __slots__ = ()

    def __str__(self) -> str:
        parts: list[str] = []
        for j, c in enumerate(self.coefficients):
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
        return " ".join(parts) or "0"
