"""Line geometry of complete intersections: moduli dimension, normal-bundle
degree and the fiber of lines through a general point.

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

from .topology import CIType


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
