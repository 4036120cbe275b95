"""Tests for the invariant computations.

Classical anchor values (cubic surface, quadrics, quintic threefold, cubic
threefold) were derived with the independent series oracle before the main
build and are frozen here as literals.  The independent routes themselves
live in ``reference``, which shares no code with the package.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from ci_invariants import (
    CIType,
    GaussianInteger,
    InternalCheckError,
    chi22,
    compute_invariants,
    euler_characteristic,
    fiber_type,
    iter_types,
    scan,
    topology,
    verify_expansion_identities,
)
from ci_invariants.cli import MAX_K
from reference import (
    chi22_terms,
    horner,
    horner_at_i,
    hypersurface_middle_betti,
    reduce_type,
    series_coefficient,
)


def middle_betti(ci: CIType) -> int:
    return compute_invariants(ci).middle_betti


def poincare_polynomial(ci: CIType) -> tuple[int, ...]:
    return compute_invariants(ci).poincare


class TestCIType:
    def test_degrees_sorted(self):
        assert CIType(5, (3, 1, 2)).degrees == (1, 2, 3)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        degrees = [2, 2, 3, 1, 4]
        base = CIType(9, tuple(degrees))
        for _ in range(10):
            rng.shuffle(degrees)
            other = CIType(9, tuple(degrees))
            assert other == base
            assert hash(other) == hash(base)
            assert euler_characteristic(other) == euler_characteristic(base)

    def test_derived_quantities(self):
        ci = CIType(5, (1, 2))
        assert ci.codimension == 2
        assert ci.dimension == 3
        assert ci.total_degree == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CIType(3, (0,))
        with pytest.raises(ValueError):
            CIType(2, (1, 1, 1))
        with pytest.raises(ValueError):
            CIType(-1)

    @pytest.mark.parametrize(
        "n, degrees", [(3, (2.7,)), (True, ()), (3, ("2",)), (3, (True,))]
    )
    def test_rejects_non_int_values(self, n, degrees):
        with pytest.raises(ValueError):
            CIType(n, degrees)

    def test_empty_type_is_projective_space(self):
        ci = CIType(4)
        assert ci.dimension == 4
        assert euler_characteristic(ci) == 5

    def test_str(self):
        assert str(CIType(4, (3,))) == "(3) in P^4"
        assert str(CIType(3)) == "() in P^3"

    @pytest.mark.parametrize("route", [
        "make", "replace", "copy", "deepcopy",
        *(f"pickle-{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    @pytest.mark.parametrize("n, degrees", [
        (3, (0,)), (3, (2.0,)), (3, (True,)), (3, ("2",)), (1, (2, 2)), (5, (3, 1, 2)),
    ])
    def test_every_route_validates(self, route, n, degrees):
        # ``tuple.__new__`` builds the record as given, unvalidated, so a
        # copy or a pickle of it is valid only if rebuilt through __new__.
        raw = tuple.__new__(CIType, (n, degrees))
        rebuild = {
            "make": lambda: CIType._make((n, degrees)),
            "replace": lambda: CIType(n)._replace(degrees=degrees),
            "copy": lambda: copy.copy(raw),
            "deepcopy": lambda: copy.deepcopy(raw),
        }.get(route, lambda: pickle.loads(pickle.dumps(raw, int(route[7:]))))
        try:
            expected = CIType(n, degrees)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                rebuild()
            assert str(got.value) == str(exc)
        else:
            rebuilt = rebuild()
            assert type(rebuilt) is CIType and rebuilt == expected
            assert rebuilt.degrees == tuple(sorted(degrees))


class TestGaussianInteger:
    def test_i_squared(self):
        # t^2 at i, by the reference's Horner rule on plain ints
        assert horner_at_i([0, 0, 1]) == (-1, 0)
        assert GaussianInteger(*horner_at_i([0, 0, 1])) == GaussianInteger(-1, 0)

    def test_str(self):
        assert str(GaussianInteger(0, -10)) == "0-10i"
        assert str(GaussianInteger(6, 0)) == "6+0i"
        assert str(GaussianInteger(-2, 5)) == "-2+5i"


class TestEulerCharacteristic:
    def test_examples(self):
        assert euler_characteristic(CIType(3)) == 4
        assert euler_characteristic(CIType(3, (2, 2))) == 0  # genus-1 curve
        assert euler_characteristic(CIType(4, (5,))) == -200

    def test_matches_series_oracle(self):
        for n in range(1, 9):
            for degrees in [(), (2,), (3,), (2, 2), (1, 2), (1, 1, 3), (4,), (2, 3)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                assert euler_characteristic(ci) == series_coefficient(ci.degrees, n)

    def test_dimension_zero_is_point_count(self):
        assert euler_characteristic(CIType(2, (2, 2))) == 4  # Bezout
        assert euler_characteristic(CIType(3, (1, 2, 3))) == 6

    @staticmethod
    def _all_quadrics(n, l):
        # 2^l [z^m] (1 - z)^-2 (1 + z)^-l with m = n - l
        m = n - l
        return 2 ** l * sum(
            (j + 1) * (-1) ** (m - j) * math.comb(l - 1 + m - j, m - j)
            for j in range(m + 1)
        )

    def test_all_quadrics_closed_form(self):
        for n in range(1, 13):
            for l in range(1, n + 1):
                ci = CIType(n, (2,) * l)
                expected = self._all_quadrics(n, l)
                assert euler_characteristic(ci) == expected
                assert series_coefficient(ci.degrees, n) == expected

    def test_long_degree_list(self):
        ci = CIType(2000, (2,) * 1500)
        assert euler_characteristic(ci) == self._all_quadrics(2000, 1500)

    @pytest.mark.parametrize("k", [511, 512, 513, 1024, 1025])
    def test_block_edges(self, k):
        # The recurrence once ran over blocks of 512 coefficients, carrying
        # one value per degree from block to block; k on either side of
        # those edges, where a lost carry would show.
        assert euler_characteristic(CIType(k + 3, (2, 2, 2))) == self._all_quadrics(k + 3, 3)
        assert middle_betti(CIType(k + 1, (5,))) == hypersurface_middle_betti(5, k)

    def test_mixed_degrees_across_a_block_edge(self):
        # k = 513 and k = 512, past the old block edge at 512.
        for n, degrees in ((515, (2, 5)), (514, (1, 3, 6))):
            assert euler_characteristic(CIType(n, degrees)) == series_coefficient(degrees, n)

    def test_memory_is_linear_in_k(self):
        # Holding k + 1 growing coefficients per degree, chi of this fiber
        # (k = 19,986, ten degrees >= 2) peaked at 59.7 MB.
        fiber = fiber_type(CIType(20000, (2, 5, 6)))
        tracemalloc.start()
        try:
            euler_characteristic(fiber)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("ci", [CIType(5001, (10**9,)),
                                    fiber_type(CIType(3000, (2, 5, 6)))], ids=str)
    def test_state_is_one_value_per_degree(self, ci):
        # The recurrence holds one running value per degree >= 2, none wider
        # than the last coefficient, so the peak is a few times chi's size:
        # 3.1 times for (10^9) and 9.2 times for this fiber (l = 10).  A
        # block of 512 coefficients held 447.7 and 427.0 times.
        tracemalloc.start()
        try:
            chi = euler_characteristic(ci)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        l = len(ci.degrees) - ci.degrees.count(1)
        assert peak < (l + 4) * sys.getsizeof(chi)


class TestEulerCharacteristicRow:
    """The lemma scan's level columns: each column of b_k is one step from
    its parent level's column at the same k and its own column at k - 1."""

    def test_matches_series_oracle(self):
        # Every reduced multiset with entries 2..6 and at most five entries,
        # at every k <= 8: the type in P^(k + |D|).
        levels = {l: [list(column) for column in columns]
                  for l, columns in scan._levels(13, 6)}
        for size in range(6):
            for i, reduced in enumerate(combinations_with_replacement(range(2, 7), size)):
                row = [chi_of(k, column[i]) for k, column in enumerate(levels[size])]
                assert row[:9] == [series_coefficient(reduced, k + size) for k in range(9)]

    @pytest.mark.parametrize("reduced", [(2,), (3, 3), (2, 5, 6)])
    def test_equals_euler_characteristic_across_blocks(self, reduced):
        # k up to 600 crosses the old block edge at 512.  The column of ()
        # is read off chi(P^k) = k + 1, and each step to a longer prefix of
        # ``reduced`` is a level of one D, one ``_level_column`` per k.
        columns = [[b_of(k, k + 1)] for k in range(601 + len(reduced))]
        for d in reduced:
            parent, columns = columns, []
            for k in range(len(parent) - 1):
                previous = columns[-1] if k else None
                columns.append(list(scan._level_column(parent[k], [1], [d], previous, k)))
        row = [chi_of(k, b) for k, (b,) in enumerate(columns)]
        assert row == [euler_characteristic(CIType(k + len(reduced), reduced))
                       for k in range(601)]
        # Degree-1 entries only shift n, so they read the same row.
        for k in (0, 7, 512, 600):
            assert row[k] == euler_characteristic(CIType(k + len(reduced) + 2,
                                                         (1, 1) + reduced))


def b_of(k, chi):
    """b_k of a k-dimensional type with Euler characteristic chi."""
    return k + 1 - chi if k % 2 else chi - k


def chi_of(k, b):
    """chi of a k-dimensional type with middle Betti number b."""
    return k + 1 - b if k % 2 else b + k


class TestMiddleBetti:
    def test_examples(self):
        assert middle_betti(CIType(4, (5,))) == 204
        assert middle_betti(CIType(3, (3,))) == 7

    def test_two_quadrics_odd_dimension(self):
        for k in (1, 3, 5, 7, 9):
            assert middle_betti(CIType(k + 2, (2, 2))) == k + 1

    def test_dimension_zero(self):
        assert middle_betti(CIType(3, (1, 2, 3))) == 6
        assert middle_betti(CIType(2, (2, 2))) == 4

    def test_closed_form_equals_chi_route(self):
        for e in range(1, 7):
            for k in range(0, 13):
                via_chi = middle_betti(CIType(k + 1, (e,)))
                assert hypersurface_middle_betti(e, k) == via_chi


class TestHypersurfaceClosedForm:
    def test_examples(self):
        assert hypersurface_middle_betti(2, 3) == 0
        assert hypersurface_middle_betti(5, 3) == 204

    def test_degree_one_is_projective_space(self):
        for k in range(0, 20):
            assert hypersurface_middle_betti(1, k) == (1 if k % 2 == 0 else 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hypersurface_middle_betti(0, 3)
        with pytest.raises(ValueError):
            hypersurface_middle_betti(2, -1)


class TestPoincarePolynomial:
    def test_examples(self):
        assert poincare_polynomial(CIType(1)) == (1, 0, 1)
        assert poincare_polynomial(CIType(3, (2,))) == (1, 0, 2, 0, 1)
        assert poincare_polynomial(CIType(4, (3,))) == (1, 0, 1, 10, 1, 0, 1)

    def test_dimension_zero_is_constant(self):
        assert poincare_polynomial(CIType(3, (1, 2, 3))) == (6,)

    def test_evaluations(self):
        # p(-1) = chi and p(1) = Betti sum for a spread of types
        for n in range(1, 9):
            for degrees in [(), (2,), (3,), (2, 2), (1, 3), (4,)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                p = poincare_polynomial(ci)
                assert horner(p, -1) == euler_characteristic(ci)
                k, b = ci.dimension, middle_betti(ci)
                delta = 1 if k % 2 == 0 else 0
                assert horner(p, 1) == (k + 1) + b - delta


def vanishes_at_i(ci: CIType) -> bool:
    return compute_invariants(ci).value_at_i.is_zero


class TestVanishesAtI:
    def test_examples(self):
        assert vanishes_at_i(CIType(4, (2,)))   # quadric threefold, b3 = 0
        assert vanishes_at_i(CIType(3, (2,)))   # quadric surface, k = 2 mod 4
        assert not vanishes_at_i(CIType(5, (2,)))  # quadric fourfold, p(i) = 2

    def test_agrees_with_direct_evaluation(self):
        for n in range(1, 10):
            for degrees in [(), (2,), (3,), (1, 2), (2, 2), (1, 1)]:
                if len(degrees) > n:
                    continue
                ci = CIType(n, degrees)
                direct = horner_at_i(poincare_polynomial(ci)) == (0, 0)
                assert vanishes_at_i(ci) == direct


class TestChi22:
    def test_examples(self):
        assert chi22(0) == 4
        assert chi22(1) == 0
        assert chi22(2) == 8

    def test_matches_series_route(self):
        for k in range(0, 11):
            assert chi22(k) == euler_characteristic(CIType(k + 2, (2, 2)))

    def test_closed_form_shape(self):
        for k in range(0, 30):
            assert chi22(k) == (0 if k % 2 else 2 * (k + 2))

    def test_horner_sum_equals_per_term_sum(self):
        for k in range(MAX_K + 1):
            assert chi22(k) == chi22_terms(k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi22(-1)

    def test_wrong_sum_is_an_internal_check_error(self, monkeypatch):
        real = topology._chi22_sum
        monkeypatch.setattr(topology, "_chi22_sum", lambda k: real(k) + 1)
        with pytest.raises(InternalCheckError, match=r"^binomial sum 5 != closed form 4 at k=0$"):
            chi22(0)


class TestExpansionIdentity:
    def test_k0_both_sides(self):
        # hand expansion: 3(t-1)^2 - (t-1)^3 - 1 = -t^3 + 6t^2 - 9t + 3
        lhs = [3 * a - b for a, b in zip([1, -2, 1, 0], [-1, 3, -3, 1])]
        lhs[0] -= 1
        assert lhs == [3, -9, 6, -1]
        assert list(verify_expansion_identities(0)) == [True]

    def test_small_and_large(self):
        # one value per k, each True
        for max_k in (0, 1, 100):
            holds = list(verify_expansion_identities(max_k))
            assert holds == [True] * (max_k + 1)

    def test_rejects_negative(self):
        # at the call, before any value is asked for
        with pytest.raises(ValueError):
            verify_expansion_identities(-1)

    def test_broken_t_minus_1_step_fails(self, monkeypatch):
        # carry (t-1)^(k+2) by t + 1 instead: no k survives
        step = topology._times_t_plus
        monkeypatch.setattr(topology, "_times_t_plus",
                            lambda p, c: step(p, 1 if c == -1 else c))
        assert list(verify_expansion_identities(5)) == [False] * 6

    def test_broken_pascal_step_fails(self, monkeypatch):
        # one wrong entry in each new row: k = 0 uses only the seed row 3
        step = topology._times_t_plus

        def wrong_row(p, c):
            out = step(p, c)
            if c == 1:
                out[1] += 1
            return out

        monkeypatch.setattr(topology, "_times_t_plus", wrong_row)
        assert list(verify_expansion_identities(5)) == [True] + [False] * 5


class TestReduceType:
    def test_drops_ones(self):
        assert reduce_type(5, (1, 1, 2)) == (3, (2,))
        assert reduce_type(4, (1, 1)) == (2, ())

    def test_invariants_unchanged(self):
        cases = [CIType(5, (1, 2)), CIType(6, (1, 1, 3)), CIType(7, (1, 2, 2)),
                 CIType(9, (1, 1, 1, 4))]
        for ci in cases:
            red = CIType(*reduce_type(ci.ambient_dim, ci.degrees))
            assert euler_characteristic(red) == euler_characteristic(ci)
            assert middle_betti(red) == middle_betti(ci)
            assert poincare_polynomial(red) == poincare_polynomial(ci)


class TestInvariantReport:
    def test_cubic_surface(self):
        report = compute_invariants(CIType(3, (3,)))
        assert report.euler_char == 9
        assert report.middle_betti == 7
        assert report.value_at_i == GaussianInteger(-5, 0)

    def test_quintic_threefold(self):
        report = compute_invariants(CIType(4, (5,)))
        assert report.ci.dimension == 3
        assert report.euler_char == -200
        assert report.middle_betti == 204
        assert report.value_at_i == GaussianInteger(0, -204)

    def test_projective_line(self):
        report = compute_invariants(CIType(1))
        assert report.poincare == (1, 0, 1)
        assert report.value_at_i.is_zero

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_even_dimension_needs_a_middle_class(self, k):
        # For even k the (k/2)-th power of the hyperplane class lies in H^k,
        # so b_k >= 1; an Euler characteristic of k would give b_k = 0.
        for ci in (CIType(k), CIType(k + 1, (3,))):
            with pytest.raises(InternalCheckError):
                compute_invariants(ci, chi=k)


class TestMonotonicityAnchors:
    def test_surfaces_in_p3(self):
        values = [middle_betti(CIType(3, (e,))) for e in (2, 3, 4)]
        assert values == [2, 7, 22]
        assert values == sorted(values)


class TestLargeMagnitudes:
    def test_no_overflow_at_extreme_sizes(self):
        # degrees up to 64 and ambient dimension up to 256 stay exact
        assert euler_characteristic(CIType(256)) == 257
        via_chi = middle_betti(CIType(64, (64,)))
        assert via_chi == hypersurface_middle_betti(64, 63)
        assert via_chi == (63 * (63 ** 64 - 1)) // 64
        report = compute_invariants(CIType(64, (64,)))
        assert horner(report.poincare, -1) == report.euler_char


def _reports_to_evaluate():
    """Every type of ``iter_types(12, 6)`` and every fiber among them, then
    (2,5,6) in P^850 and P^20000 and their fibers, as the CLI goldens run."""
    for ci in iter_types(12, 6):
        yield compute_invariants(ci)
        if ci.ambient_dim - 1 - ci.total_degree >= 0:
            yield compute_invariants(fiber_type(ci))
    for n in (850, 20000):
        ci = CIType(n, (2, 5, 6))
        yield compute_invariants(ci)
        yield compute_invariants(fiber_type(ci))


def test_closed_forms_equal_horner_on_the_dense_coefficients():
    # compute_invariants reads p(i) off (k, b_k); Horner's rule on the
    # coefficients is the independent route, and p(-1), p(1) come with it.
    checked = 0
    for report in _reports_to_evaluate():
        c = report.poincare
        k, b = report.ci.dimension, report.middle_betti
        delta = 1 if k % 2 == 0 else 0
        assert report.value_at_i == GaussianInteger(*horner_at_i(c)), report.ci
        assert horner(c, -1) == report.euler_char, report.ci
        assert horner(c, 1) == (k + 1) + b - delta, report.ci
        checked += 1
    assert checked == 50954 + 4
