"""Line geometry of complete intersections: moduli dimension, normal-bundle
degree, the fiber of lines through a general point, and the Poincare
product obstruction.

For type (d_1, ..., d_l) in P^n with total degree d:

  * the space of lines contained in a generic member has dimension
    2n - 2 - d - l;
  * the lines through a fixed general point form a complete intersection of
    type (1, 2, ..., d_1, 1, 2, ..., d_2, ..., 1, 2, ..., d_l) in P^(n-1),
    of dimension n - 1 - d;
  * a line has normal bundle of degree n - d - 1, so d <= n - 1 is needed
    for every summand to be non-negative;
  * a generic member is rationally connected exactly when d <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .exact import GaussianInteger, ONE_PLUS_T_SQUARED
from .topology import CIType, InternalCheckError, compute_invariants


@dataclass(frozen=True)
class LineGeometry:
    """Numerical line-geometry data of a type."""

    ci: CIType
    moduli_dim: int
    fiber_dim: int
    normal_degree: int
    rationally_connected: bool


def line_geometry(ci: CIType) -> LineGeometry:
    """All four line-geometry quantities; requires ambient dimension >= 1
    (a point contains no lines)."""
    n = ci.ambient_dim
    if n < 1:
        raise ValueError("line geometry requires ambient dimension >= 1")
    d = ci.total_degree
    l = ci.codimension
    return LineGeometry(
        ci=ci,
        moduli_dim=2 * n - 2 - d - l,
        fiber_dim=n - 1 - d,
        normal_degree=n - d - 1,
        rationally_connected=d <= n,
    )


def fiber_type(ci: CIType) -> CIType:
    """Type of the variety of lines through a general point: one block
    (1, 2, ..., d_i) per degree, in the P^(n-1) of directions.

    Raises ValueError when the fiber dimension n - 1 - d is negative; a
    negative value is an answer about the type, not a silent clamp.
    """
    n = ci.ambient_dim
    if n < 1:
        raise ValueError("fiber construction requires ambient dimension >= 1")
    d = ci.total_degree
    if n - 1 - d < 0:
        raise ValueError(
            f"fiber dimension {n - 1 - d} is negative for {ci} (total degree {d})"
        )
    blocks = tuple(j for deg in ci.degrees for j in range(1, deg + 1))
    return CIType(n - 1, blocks)


class ProductObstruction(NamedTuple):
    """Evaluations at i of the Poincare polynomials of the variety and of
    its fiber of lines, plus whether at least one vanishes."""

    p_x_at_i: GaussianInteger
    p_f_at_i: GaussianInteger
    passes: bool


def product_obstruction(ci: CIType) -> ProductObstruction:
    """Evaluate p_X(i) and p_F(i); passing means at least one is zero.

    Because 1 + t^2 is irreducible over the integers, it divides a product
    iff it divides a factor; that factorization logic is re-checked here
    against exact polynomial division on every call.
    """
    x = compute_invariants(ci)
    f = compute_invariants(fiber_type(ci))
    p_x, x_at_i = x.poincare, x.value_at_i
    p_f, f_at_i = f.poincare, f.value_at_i

    div_x = p_x.divisible_by(ONE_PLUS_T_SQUARED)
    div_f = p_f.divisible_by(ONE_PLUS_T_SQUARED)
    div_product = (p_f * p_x).divisible_by(ONE_PLUS_T_SQUARED)
    if div_x != x_at_i.is_zero or div_f != f_at_i.is_zero:
        raise InternalCheckError(
            f"divisibility by 1+t^2 disagrees with evaluation at i for {ci}"
        )
    if div_product != (div_f or div_x):
        raise InternalCheckError(
            f"1+t^2 divides p_F * p_X but neither factor for {ci}"
        )
    return ProductObstruction(x_at_i, f_at_i, div_f or div_x)
