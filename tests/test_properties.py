"""Property tests for the Euler-characteristic engine and the invariants
derived from it, against the independent truncated-series route of
``reference``; for the CLI's JSON big-integer round trips; and for its exit
codes on malformed arguments."""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, strategies as st

from ci_invariants import (
    CIType,
    compute_invariants,
    euler_characteristic,
    fiber_type,
    line_geometry,
    theorem_verdict,
)
from ci_invariants.cli import main
from reference import horner, reduce_type, series_coefficient


@st.composite
def degree_lists(draw, max_n=40, max_l=5, max_d=8):
    """An ambient dimension n <= max_n and an unsorted list of at most
    min(n, max_l) degrees in [1, max_d]."""
    n = draw(st.integers(0, max_n))
    degrees = draw(st.lists(st.integers(1, max_d), max_size=min(n, max_l)))
    return n, degrees


@given(degree_lists())
def test_generating_function_equals_series_route(case):
    n, degrees = case
    assert euler_characteristic(CIType(n, tuple(degrees))) == series_coefficient(degrees, n)


@given(degree_lists(), st.data())
def test_invariant_under_permutation(case, data):
    n, degrees = case
    permuted = data.draw(st.permutations(degrees))
    sorted_type = CIType(n, tuple(sorted(permuted)))
    assert CIType(n, tuple(permuted)) == sorted_type
    assert series_coefficient(permuted, n) == euler_characteristic(sorted_type)


@given(degree_lists())
def test_invariant_under_reduce_type(case):
    n, degrees = case
    ci = CIType(n, tuple(degrees))
    reduced_type = CIType(*reduce_type(n, degrees))
    full, reduced = compute_invariants(ci), compute_invariants(reduced_type)
    assert reduced.euler_char == full.euler_char
    assert reduced.middle_betti == full.middle_betti
    assert reduced.poincare == full.poincare
    assert reduced.value_at_i == full.value_at_i


@given(degree_lists())
def test_poincare_polynomial_at_plus_and_minus_one(case):
    n, degrees = case
    ci = CIType(n, tuple(degrees))
    report = compute_invariants(ci)
    k, b = ci.dimension, report.middle_betti
    delta = 1 if k % 2 == 0 else 0
    coeffs = report.poincare
    assert horner(coeffs, -1) == series_coefficient(degrees, n)
    assert horner(coeffs, 1) == (k + 1) + b - delta


def run_cli(*argv: str) -> tuple[int, str, str]:
    # Captured by redirection: hypothesis reuses one test function call for
    # all examples, so pytest's per-test capture fixtures do not fit.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_json(command: str, ci: CIType) -> dict:
    code, out, err = run_cli(command, "--n", str(ci.ambient_dim), "--type",
                             ",".join(map(str, ci.degrees)), "--format", "json")
    assert code == 0, err
    return json.loads(out)


@st.composite
def large_types(draw):
    """A type with 1 <= n <= 300 and at most five degrees in [1, 8]; small
    degrees are drawn often, so homogeneous shapes and fibers occur."""
    n = draw(st.integers(1, 300))
    degrees = draw(st.lists(st.integers(1, 8), max_size=min(n, 5)))
    return CIType(n, tuple(degrees))


def assert_type_json(obj: dict, ci: CIType) -> None:
    assert int(obj["ambient_dim"]) == ci.ambient_dim
    assert [int(d) for d in obj["degrees"]] == list(ci.degrees)


def assert_gauss_json(obj: dict | None, value) -> None:
    if value is None:
        assert obj is None
    else:
        assert (int(obj["re"]), int(obj["im"])) == (value.re, value.im)


def assert_invariants_json(obj: dict, ci: CIType) -> None:
    report = compute_invariants(ci)
    assert_type_json(obj["type"], ci)
    assert int(obj["dimension"]) == ci.dimension
    assert int(obj["euler_characteristic"]) == report.euler_char
    assert int(obj["middle_betti"]) == report.middle_betti
    assert [int(c) for c in obj["poincare_coefficients"]] == list(report.poincare)
    assert_gauss_json(obj["value_at_i"], report.value_at_i)


@given(large_types())
def test_invariants_json_round_trip(ci):
    assert_invariants_json(cli_json("invariants", ci), ci)


@given(large_types())
def test_classify_json_round_trip(ci):
    obj = cli_json("classify", ci)
    verdict = theorem_verdict(ci)
    assert_type_json(obj["type"], ci)
    assert int(obj["total_degree"]) == ci.total_degree
    assert int(obj["dimension"]) == ci.dimension
    assert obj["verdict"] == verdict.kind.value
    assert_gauss_json(obj["p_x_at_i"], verdict.p_x_at_i)
    assert_gauss_json(obj["p_f_at_i"], verdict.p_f_at_i)
    homogeneous = obj["verdict"].startswith("homogeneous_")
    assert (obj["parity"] is not None) == homogeneous
    if homogeneous:
        parity = obj["parity"]
        assert_gauss_json(parity["p_x_at_i"], verdict.p_x_at_i)
        assert_gauss_json(parity["p_f_at_i"], verdict.p_f_at_i)
        assert (parity["x_vanishes"], parity["f_vanishes"]) == (
            verdict.p_x_at_i.is_zero, verdict.p_f_at_i.is_zero)


@given(large_types())
def test_fiber_json_round_trip(ci):
    obj = cli_json("fiber", ci)
    geometry = line_geometry(ci)
    assert_type_json(obj["type"], ci)
    assert int(obj["moduli_dim"]) == geometry.moduli_dim
    assert int(obj["fiber_dim"]) == geometry.fiber_dim
    assert int(obj["normal_degree"]) == geometry.normal_degree
    if geometry.fiber_dim < 0:
        assert obj["fiber"] is None
    else:
        assert_invariants_json(obj["fiber"], fiber_type(ci))


COMMANDS = st.sampled_from(["invariants", "classify", "fiber"])

#: Text that int() rejects: letters, digits and dots, but not digits alone.
NON_INTEGERS = st.text("abcxyzE.0123456789", min_size=1).filter(
    lambda t: not re.fullmatch(r"[0-9]+", t))
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(str)
NEGATIVES = st.integers(max_value=-1).map(str)
BAD_DEGREES = st.one_of(st.sampled_from(["0", "2.5", "x"]), NON_INTEGERS, FLOATS,
                        st.integers(max_value=0).map(str))


def assert_usage_error(code: int, out: str, err: str) -> None:
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err


@given(COMMANDS, st.one_of(NON_INTEGERS, FLOATS, NEGATIVES))
def test_malformed_n_exits_2(command, n_text):
    assert_usage_error(*run_cli(command, "--n", n_text, "--type", "2"))


@given(COMMANDS, st.lists(st.integers(1, 6), max_size=3), st.data())
def test_malformed_degree_exits_2(command, good, data):
    bad = data.draw(BAD_DEGREES)
    position = data.draw(st.integers(0, len(good)))
    degrees = [str(d) for d in good]
    degrees.insert(position, bad)
    assert_usage_error(*run_cli(command, "--n", "10", "--type", ",".join(degrees)))


@given(COMMANDS, st.integers(0, 20), st.data())
def test_more_degrees_than_n_exits_2(command, n, data):
    degrees = data.draw(st.lists(st.integers(1, 6), min_size=n + 1, max_size=n + 4))
    code, out, err = run_cli(command, "--n", str(n), "--type", ",".join(map(str, degrees)))
    assert_usage_error(code, out, err)
    assert err.startswith("error: ")
