"""Independent reference for the invariants and verdicts that ci-invariants
prints.  It imports nothing from the package under test and uses a different
route to the Euler characteristic: Hirzebruch's generating function

    sum_n chi(D in P^n) z^n = (1 - z)^-2 * prod_{d in D} d z / (1 + (d - 1) z),

in which each factor is a first-order integer recurrence, so chi for every
n <= N costs O(N * l).  Everything else follows from chi by the closed forms
of the paper:

    b_k  = (k + 1) - chi (k odd),  chi - k (k even),  prod(D) (k = 0)
    p(t) = sum_{q<=k} t^(2q) + (b_k - delta_k) t^k
    p(i) = sum_{q<=k} (-1)^q + (b_k - delta_k) i^k
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement


class ReferenceError(RuntimeError):
    """The reference contradicted itself; the benchmark cannot judge output."""


def times_factor(series: list[int], d: int) -> list[int]:
    """Multiply a power series by d z / (1 + (d - 1) z), keeping its length."""
    out = [0] * len(series)
    prev = 0
    for m in range(1, len(series)):
        prev = d * series[m - 1] - (d - 1) * prev
        out[m] = prev
    return out


def chi_series(degrees: tuple[int, ...], order: int) -> list[int]:
    """chi(degrees in P^n) for n = 0 .. order."""
    series = [m + 1 for m in range(order + 1)]
    for d in degrees:
        series = times_factor(series, d)
    return series


class ChiTable:
    """chi for many degree multisets at one order, sharing prefixes: the
    series of (d_1, ..., d_l) is the series of (d_1, ..., d_{l-1}) times one
    more factor."""

    def __init__(self, order: int):
        self._order = order
        self._series: dict[tuple[int, ...], list[int]] = {(): chi_series((), order)}

    def chi(self, n: int, degrees: tuple[int, ...]) -> int:
        return self._get(degrees)[n]

    def _get(self, degrees: tuple[int, ...]) -> list[int]:
        series = self._series.get(degrees)
        if series is None:
            series = times_factor(self._get(degrees[:-1]), degrees[-1])
            self._series[degrees] = series
        return series


@dataclass(frozen=True)
class Invariants:
    n: int
    degrees: tuple[int, ...]
    dimension: int
    chi: int
    betti: int
    poincare: tuple[int, ...]
    at_i: tuple[int, int]

    @property
    def vanishes(self) -> bool:
        return self.at_i == (0, 0)


def invariants_from_chi(n: int, degrees: tuple[int, ...], chi: int) -> Invariants:
    k = n - len(degrees)
    if k < 0:
        raise ReferenceError(f"type {degrees} in P^{n} has negative dimension")
    if k == 0:
        betti = math.prod(degrees)
        if betti != chi:
            raise ReferenceError(f"{degrees} in P^{n}: {betti} points but chi {chi}")
    else:
        betti = (k + 1) - chi if k % 2 else chi - k
    if betti < 0:
        raise ReferenceError(f"negative middle Betti number for {degrees} in P^{n}")
    delta = 1 if k % 2 == 0 else 0
    middle = betti - delta
    coeffs = [0] * (2 * k + 1)
    for q in range(k + 1):
        coeffs[2 * q] += 1
    coeffs[k] += middle
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    re, im = (1 if k % 2 == 0 else 0), 0
    if k % 4 == 0:
        re += middle
    elif k % 4 == 1:
        im += middle
    elif k % 4 == 2:
        re -= middle
    else:
        im -= middle
    return Invariants(n, degrees, k, chi, betti, tuple(coeffs), (re, im))


def invariants(n: int, degrees: tuple[int, ...], table: ChiTable | None = None) -> Invariants:
    degrees = tuple(sorted(degrees))
    chi = table.chi(n, degrees) if table else chi_series(degrees, n)[n]
    return invariants_from_chi(n, degrees, chi)


def reduced(degrees: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(d for d in degrees if d > 1)


def fiber_type(n: int, degrees: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Lines through a general point: (1..d_1, ..., 1..d_l) in P^(n-1)."""
    return n - 1, tuple(sorted(j for d in degrees for j in range(1, d + 1)))


def lemma_case(inv: Invariants) -> str:
    """The lemma's shape rule; checked against the computed p(i)."""
    red, k = reduced(inv.degrees), inv.dimension
    if red == () and k % 2 == 1:
        case = "linear_odd"
    elif red == (2,) and k % 2 == 1:
        case = "quadric_odd"
    elif red == (2,) and k % 4 == 2:
        case = "quadric_2_mod_4"
    else:
        case = "nonvanishing"
    if (case != "nonvanishing") != inv.vanishes:
        raise ReferenceError(f"lemma shape {case} disagrees with p(i) for {inv.degrees} in P^{inv.n}")
    return case


@dataclass(frozen=True)
class Verdict:
    kind: str
    reason: str
    x: Invariants | None = None
    fiber: Invariants | None = None


def verdict(n: int, degrees: tuple[int, ...], table: ChiTable | None = None) -> Verdict:
    """The paper's gates in order: d > n, d > n - 1, then p_X(i), p_F(i)."""
    degrees = tuple(sorted(degrees))
    d = sum(degrees)
    if d > n:
        return Verdict("not_rationally_connected",
                       f"total degree {d} exceeds ambient dimension {n}")
    if d > n - 1:
        return Verdict("normal_bundle_obstruction",
                       f"line normal bundle has degree {n - d - 1} < 0, so a negative "
                       "summand obstructs double covers of lines")
    x = invariants(n, degrees, table)
    fiber = invariants(*fiber_type(n, degrees), table)
    if not x.vanishes and not fiber.vanishes:
        return Verdict("poincare_obstruction",
                       f"p_X(i) = {gauss_text(x.at_i)} and p_F(i) = "
                       f"{gauss_text(fiber.at_i)} are both nonzero", x, fiber)
    red = reduced(degrees)
    if red == ():
        return Verdict("homogeneous_linear", "type reduces to a projective space", x, fiber)
    if red == (2,):
        return Verdict("homogeneous_quadric", "type reduces to a quadric", x, fiber)
    raise ReferenceError(f"{degrees} in P^{n} passed every gate but is not homogeneous")


def scan_types(max_n: int, max_degree: int):
    """(n, degrees) in canonical order: n ascending, then l, then lexicographic."""
    for n in range(1, max_n + 1):
        for l in range(n + 1):
            for degrees in combinations_with_replacement(range(1, max_degree + 1), l):
                yield n, degrees


def gauss_text(z: tuple[int, int] | None) -> str:
    return "-" if z is None else f"{z[0]}{z[1]:+d}i"


def gauss_json(z: tuple[int, int] | None) -> dict | None:
    return None if z is None else {"re": str(z[0]), "im": str(z[1])}


def type_text(n: int, degrees: tuple[int, ...]) -> str:
    return f"({','.join(map(str, degrees))}) in P^{n}"


def poly_text(coeffs: tuple[int, ...]) -> str:
    parts: list[str] = []
    for j, c in enumerate(coeffs):
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
    return " ".join(parts) if parts else "0"


def self_check() -> None:
    """Classical anchors, so a broken reference fails loudly instead of
    blaming the program."""
    anchors = [
        ((3, (3,)), 9, 7),      # cubic surface
        ((4, (5,)), -200, 204),  # quintic threefold
        ((4, (3,)), -6, 10),    # cubic threefold
        ((2, (3,)), 0, 2),      # plane cubic, genus 1
    ]
    for (n, degrees), chi, betti in anchors:
        inv = invariants(n, degrees)
        if (inv.chi, inv.betti) != (chi, betti):
            raise ReferenceError(f"anchor {degrees} in P^{n}: got {inv.chi}, {inv.betti}")
    for e in range(1, 8):
        for k in range(0, 30):
            closed = (1 if k % 2 == 0 else 0) + (e - 1) * ((e - 1) ** (k + 1) - (-1) ** (k + 1)) // e
            if invariants(k + 1, (e,)).betti != closed:
                raise ReferenceError(f"hypersurface closed form fails at e={e}, k={k}")
    for k in range(0, 40):
        if invariants(k + 2, (2, 2)).chi != (k + 2) * (1 + (-1) ** k):
            raise ReferenceError(f"(2,2) closed form fails at k={k}")
    if verdict(4, (3,)).kind != "poincare_obstruction" or fiber_type(4, (3,)) != (3, (1, 2, 3)):
        raise ReferenceError("cubic threefold verdict or fiber is wrong")
