"""Tests for the command-line interface: exit codes, output formats, and
the JSON round-trip contract (all integers as decimal strings)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from ci_invariants.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_quintic_threefold_table(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "4", "--type", "5")
        assert code == 0
        assert "euler characteristic: -200" in out
        assert "middle Betti number: 204" in out

    def test_projective_line(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "1", "--type", "")
        assert code == 0
        assert "Poincare polynomial: 1 + t^2" in out

    def test_omitted_type_means_ambient_space(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "3")
        assert code == 0
        assert "euler characteristic: 4" in out

    def test_invalid_degree_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--n", "3", "--type", "0")
        assert code == 2
        assert "degrees must be >= 1" in err

    def test_invalid_type_for_ambient_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--n", "2", "--type", "1,1,1")
        assert code == 2
        assert err

    def test_json_round_trip_preserves_big_integers(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "12", "--type", "6",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        chi = int(obj["euler_characteristic"])
        betti = int(obj["middle_betti"])
        coeffs = [int(c) for c in obj["poincare_coefficients"]]
        # re-derive the internal consistency from the parsed strings alone
        k = int(obj["dimension"])
        assert coeffs[k] == betti
        p_at_minus1 = sum(c * (-1) ** j for j, c in enumerate(coeffs))
        assert p_at_minus1 == chi
        assert isinstance(obj["euler_characteristic"], str)
        assert isinstance(obj["value_at_i"]["im"], str)

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--n", "4", "--type", "5",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,degrees,dimension")
        assert len(lines) == 2


class TestClassifyCommand:
    def test_poincare_obstruction(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "4", "--type", "3")
        assert code == 0
        assert "verdict: poincare_obstruction" in out
        assert "0-10i" in out and "6+0i" in out

    def test_homogeneous_quadric(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "5", "--type", "1,2")
        assert code == 0
        assert "verdict: homogeneous_quadric" in out

    def test_not_rationally_connected(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "4", "--type", "5")
        assert code == 0
        assert "verdict: not_rationally_connected" in out

    def test_json_includes_lemma_case_and_parity(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "5", "--type", "1,2",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "homogeneous_quadric"
        assert obj["lemma_case"] == "quadric_odd"
        assert obj["parity"]["x_vanishes"] and obj["parity"]["f_vanishes"]


class TestFiberCommand:
    def test_cubic_threefold(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "--n", "4", "--type", "3")
        assert code == 0
        assert "fiber type: (1,2,3) in P^3" in out
        assert "moduli dimension: 2" in out
        assert "fiber euler characteristic: 6" in out

    def test_linear(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "--n", "5", "--type", "1,1")
        assert code == 0
        assert "fiber type: (1,1) in P^4" in out

    def test_negative_fiber_dimension_is_an_answer(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "--n", "4", "--type", "2,2")
        assert code == 0
        assert "fiber dimension: -1" in out
        assert "none" in out

    def test_json_negative_fiber(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "--n", "4", "--type", "2,2",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["fiber"] is None
        assert obj["fiber_dim"] == "-1"


class TestScanCommand:
    def test_small_scan_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2")
        assert code == 0
        assert "violations=0" in out

    def test_quiet_suppresses_summary(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--max-degree", "2",
                               "--quiet", "--which", "theorem")
        assert code == 0
        assert "violations" not in out
        assert out.strip()  # records still emitted

    def test_csv_to_file_is_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(capsys, "scan", "--max-n", "4", "--max-degree", "3",
                                 "--format", "csv", "--out", str(path), "--quiet")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "n,degrees,total_degree,dimension,verdict,p_x_at_i,p_f_at_i"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli(capsys, "scan", "--max-n", "3", "--max-degree",
                               "2", "--format", "csv", "--out", str(target),
                               "--quiet")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_json_single_document(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--max-degree", "2",
                               "--format", "json", "--quiet")
        assert code == 0
        obj = json.loads(out)
        assert {scan["scan"] for scan in obj["scans"]} == {"theorem", "lemma"}

    def test_thread_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CI_INVARIANTS_THREADS", "2")
        code, out, _ = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2",
                               "--which", "lemma")
        assert code == 0
        assert "violations=0" in out

    def test_bad_thread_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CI_INVARIANTS_THREADS", "zero")
        code, _, err = run_cli(capsys, "scan", "--max-n", "2", "--max-degree", "2")
        assert code == 2
        assert "CI_INVARIANTS_THREADS" in err


class TestVerifyIdentitiesCommand:
    def test_range_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-identities", "--max-k", "30")
        assert code == 0
        assert "expansion identity: ok" in out
        assert "chi22 sum vs closed form: ok" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify-identities", "--max-k", "5",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["expansion_identity_ok"] is True
        assert obj["chi22_closed_form_ok"] is True


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ci_invariants", "invariants", "--n", "3",
             "--type", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "euler characteristic: 9" in proc.stdout

    def test_identical_invocations_byte_identical(self, capsys):
        results = [run_cli(capsys, "classify", "--n", "6", "--type", "2,2",
                           "--format", "json") for _ in range(2)]
        assert results[0] == results[1]
