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

from collections import namedtuple

from .topology import CIType, InvariantReport, compute_invariants


class LineGeometry(namedtuple(
        "LineGeometry", "ci moduli_dim fiber_dim normal_degree rationally_connected")):
    """Numerical line-geometry data of a type: the dimensions of its lines
    and of the lines through a point, the normal-bundle degree of a line,
    and whether a generic member is rationally connected."""

    __slots__ = ()


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


class ProductObstruction(namedtuple("ProductObstruction", "p_x_at_i p_f_at_i passes")):
    """Evaluations at i of the Poincare polynomials of the variety and of
    its fiber of lines, plus whether at least one vanishes."""

    __slots__ = ()


def product_obstruction(
    ci: CIType, report: InvariantReport | None = None
) -> ProductObstruction:
    """Evaluate p_X(i) and p_F(i); passing means at least one is zero.

    1 + t^2 is monic and irreducible over the integers, with roots +-i, so
    it divides p_F * p_X iff it divides a factor iff that factor vanishes
    at i.  The values at i are ``compute_invariants``' closed forms; no
    polynomial is divided here.  ``tests/test_lines.py`` checks the
    equivalence against long division of the dense product by 1 + t^2, for
    every type with a fiber in ``iter_types(12, 6)``.

    ``report`` is the type's ``compute_invariants`` result when the caller
    already has it; otherwise it is computed here.
    """
    x = report if report is not None else compute_invariants(ci)
    f = compute_invariants(fiber_type(ci))
    x_at_i, f_at_i = x.value_at_i, f.value_at_i
    return ProductObstruction(x_at_i, f_at_i, x_at_i.is_zero or f_at_i.is_zero)
