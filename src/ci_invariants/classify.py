"""Classification of complete intersection types by the convexity and
rational-connectedness obstructions, one type at a time.

The obstruction pipeline for a type in P^n with total degree d runs in a
fixed order:

  1. d > n           -> not rationally connected;
  2. d > n - 1       -> a line has a negative normal-bundle summand, so
                        some double cover of it is obstructed;
  3. otherwise       -> both p_X(i) and p_F(i) nonzero is fatal;
  4. survivors must reduce to () or (2), i.e. be a projective space or a
     quadric: both are homogeneous, and their p_X(i), p_F(i) must vanish
     in the parity pattern that ``theorem_verdict`` checks.

The exhaustive scans that re-verify the classification over finite ranges
are in ``scan``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .lines import fiber_type
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
    _reduced,
    compute_invariants,
)


class LemmaCase(Enum):
    """The only shapes whose Poincare polynomial can vanish at i."""

    LINEAR_ODD = "linear_odd"            # type (1,...,1), k odd
    QUADRIC_ODD = "quadric_odd"          # type (1,...,1,2), k odd
    QUADRIC_2_MOD_4 = "quadric_2_mod_4"  # type (1,...,1,2), k = 2 mod 4
    NONVANISHING = "nonvanishing"


class VerdictKind(Enum):
    HOMOGENEOUS_LINEAR = "homogeneous_linear"
    HOMOGENEOUS_QUADRIC = "homogeneous_quadric"
    NOT_RATIONALLY_CONNECTED = "not_rationally_connected"
    NORMAL_BUNDLE_OBSTRUCTION = "normal_bundle_obstruction"
    POINCARE_OBSTRUCTION = "poincare_obstruction"

    # Members are singletons; the theorem scan's counting walk hashes one
    # kind per type.
    __hash__ = object.__hash__


def _is_homogeneous_shape(ci: CIType) -> bool:
    return _reduced(ci) in ((), (2,))


def _shape_case(reduced: tuple[int, ...] | None, k: int) -> LemmaCase:
    """The vanishing shape of a class (D, k); any D but () and (2) is
    nonvanishing."""
    if reduced == () and k % 2 == 1:
        return LemmaCase.LINEAR_ODD
    if reduced == (2,) and k % 2 == 1:
        return LemmaCase.QUADRIC_ODD
    if reduced == (2,) and k % 4 == 2:
        return LemmaCase.QUADRIC_2_MOD_4
    return LemmaCase.NONVANISHING


def lemma_classify(ci: CIType, report: InvariantReport | None = None) -> LemmaCase:
    """Match the type against the vanishing shapes, and verify on every call
    that the match agrees with the actual evaluation p(i) = 0.

    ``report`` is the type's ``compute_invariants`` result when the caller
    already has it; otherwise it is computed here.
    """
    case = _shape_case(_reduced(ci), ci.dimension)
    if report is None:
        report = compute_invariants(ci)
    vanishes = report.value_at_i.is_zero
    if (case is not LemmaCase.NONVANISHING) != vanishes:
        raise InternalCheckError(
            f"shape case {case.value} disagrees with p(i) vanishing for {ci}"
        )
    return case


def theorem_verdict(ci: CIType, report: InvariantReport | None = None) -> Verdict:
    """Run the obstruction pipeline on one type and return the first gate's
    verdict.  The two degree gates carry no values at i; the Poincare gate
    and the survivors carry p_X(i) and p_F(i).  The verdict's ``reason`` is
    derived from these fields when it is read, so no text is built here.

    ``report`` is the type's ``compute_invariants`` result when the caller
    already has it; otherwise the Poincare gate computes it.

    The Poincare gate asks whether 1 + t^2 divides p_F * p_X.  It is monic
    and irreducible over the integers, with roots +-i, so it divides the
    product iff it divides a factor iff that factor vanishes at i; the
    values at i are ``compute_invariants``' closed forms and no polynomial
    is divided.  ``tests/test_lines.py`` checks the equivalence against
    long division of the dense product by 1 + t^2.

    A type that reaches the Poincare gate must pass it exactly when it
    reduces to () or (2), with the parity pattern of those homogeneous
    types: for (1,...,1) exactly one of p_X(i), p_F(i) vanishes; for
    (1,...,1,2) both vanish iff the dimension k is odd, otherwise exactly
    one.  Anything else contradicts the classification and raises
    InternalCheckError; it must never happen.
    """
    # The fields are always three, so the named tuple's Python-level
    # __new__ is skipped.
    return tuple.__new__(Verdict, (ci, *_verdict_fields(ci, report)))


#: The fields (kind, p_X(i), p_F(i)) of every verdict of the two degree
#: gates, shared by all the types that stop there.
_NOT_RC_FIELDS = (VerdictKind.NOT_RATIONALLY_CONNECTED, None, None)
_NORMAL_FIELDS = (VerdictKind.NORMAL_BUNDLE_OBSTRUCTION, None, None)


def _verdict_fields(ci: CIType, report: InvariantReport | None = None) -> tuple:
    """The obstruction pipeline of ``theorem_verdict``: the verdict's fields
    (kind, p_X(i), p_F(i)) without the type.  A scan stops most types at a
    degree gate, whose fields are one module constant each, so those calls
    allocate nothing.  ``ci`` may be the plain pair (n, degrees), sorted
    and valid: it becomes a ``CIType`` only past the degree gates."""
    n, degrees = ci
    if n < 1:
        raise ValueError("classification requires ambient dimension >= 1")
    d = sum(degrees)
    if d > n:
        return _NOT_RC_FIELDS
    if d > n - 1:
        return _NORMAL_FIELDS
    ci = tuple.__new__(CIType, ci)
    if report is None:
        report = compute_invariants(ci)
    p_x = report.value_at_i
    p_f = compute_invariants(fiber_type(ci)).value_at_i
    reduced = _reduced(ci)
    if reduced not in ((), (2,)):
        if p_x.is_zero or p_f.is_zero:
            raise InternalCheckError(
                f"{ci} passed every obstruction but does not reduce to () or (2)"
            )
        kind = VerdictKind.POINCARE_OBSTRUCTION
    else:
        if reduced and ci.dimension % 2 == 1:
            ok = p_x.is_zero and p_f.is_zero
        else:
            ok = p_x.is_zero != p_f.is_zero
        if not ok:
            raise InternalCheckError(
                f"parity pattern violated for {ci}: p_X(i) = {p_x}, p_F(i) = {p_f}"
            )
        kind = VerdictKind.HOMOGENEOUS_QUADRIC if reduced else VerdictKind.HOMOGENEOUS_LINEAR
    return kind, p_x, p_f


#: The reason of each verdict kind, filled in from the type and the values
#: at i; ``None`` is the kind of a scan record whose internal check failed.
_REASONS = {
    VerdictKind.NOT_RATIONALLY_CONNECTED:
        "total degree {d} exceeds ambient dimension {n}",
    VerdictKind.NORMAL_BUNDLE_OBSTRUCTION:
        "line normal bundle has degree {normal} < 0, so a negative summand "
        "obstructs double covers of lines",
    VerdictKind.POINCARE_OBSTRUCTION:
        "p_X(i) = {p_x} and p_F(i) = {p_f} are both nonzero",
    VerdictKind.HOMOGENEOUS_LINEAR: "type reduces to a projective space",
    VerdictKind.HOMOGENEOUS_QUADRIC: "type reduces to a quadric",
    None: "an internal check failed for the type",
}


class Verdict(namedtuple("Verdict", "ci kind p_x_at_i p_f_at_i", defaults=(None, None))):
    """Classification outcome for one type, with the witnessing values at i,
    and the theorem scan's record of that type.  ``kind`` is None only in a
    scan record whose internal check failed (recorded as a violation)."""

    __slots__ = ()

    CSV_HEADER = (
        "n", "degrees", "total_degree", "dimension", "verdict", "p_x_at_i", "p_f_at_i",
    )

    @property
    def reason(self) -> str:
        n, d = self.ci.ambient_dim, self.ci.total_degree
        return _REASONS[self.kind].format(
            n=n, d=d, normal=n - d - 1, p_x=self.p_x_at_i, p_f=self.p_f_at_i
        )

