"""Tests for the command-line interface: exit codes, output formats, and
the JSON round-trip contract (all integers as decimal strings)."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb

import pytest

from ci_invariants import (
    CIType,
    InternalCheckError,
    Verdict,
    classify,
    cli,
    compute_invariants,
    fiber_type,
    iter_types,
    lemma_classify,
    line_geometry,
    theorem_verdict,
    topology,
)
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
        assert "argument --type: expected an integer >= 1, got '0'" in err

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

    @pytest.mark.parametrize("n, degrees, reason", [
        (4, (5,), "total degree 5 exceeds ambient dimension 4"),
        (4, (2, 2), "line normal bundle has degree -1 < 0, so a negative "
                    "summand obstructs double covers of lines"),
        (4, (3,), "p_X(i) = 0-10i and p_F(i) = 6+0i are both nonzero"),
        (5, (1, 1), "type reduces to a projective space"),
        (5, (1, 2), "type reduces to a quadric"),
    ])
    def test_reason_per_verdict_kind(self, capsys, n, degrees, reason):
        assert classify.theorem_verdict(CIType(n, degrees)).reason == reason
        code, out, _ = run_cli(capsys, "classify", "--n", str(n), "--type",
                               ",".join(str(d) for d in degrees))
        assert code == 0
        assert f"reason: {reason}\n" in out.splitlines(keepends=True)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "4", "--type", "3",
                               "--format", "csv")
        assert code == 0
        assert out == (
            "n,degrees,total_degree,dimension,verdict,p_x_at_i,p_f_at_i,lemma_case\n"
            "4,3,3,3,poincare_obstruction,0-10i,6+0i,nonvanishing\n"
        )


    @pytest.mark.parametrize("n, degrees", [
        (40, (1, 2)),   # homogeneous quadric: verdict, lemma case and parity
        (4, (3,)),      # Poincare obstruction
        (4, (2, 2)),    # normal-bundle gate: no fiber of lines
        (4, (5,)),      # not rationally connected
    ])
    def test_invariants_computed_once_per_type(self, capsys, monkeypatch, n, degrees):
        real_chi = topology.euler_characteristic
        chi_calls = []

        def counting_chi(ci):
            chi_calls.append(ci)
            return real_chi(ci)

        monkeypatch.setattr(topology, "euler_characteristic", counting_chi)
        for fmt in ("table", "json", "csv"):
            chi_calls.clear()
            code, _, _ = run_cli(capsys, "classify", "--n", str(n), "--type",
                                 ",".join(map(str, degrees)), "--format", fmt)
            assert code == 0
            ci = CIType(n, degrees)
            has_fiber = n - 1 - sum(degrees) >= 0
            assert chi_calls == [ci] + ([fiber_type(ci)] if has_fiber else [])


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
        code, _, err = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2")
        assert code == 0
        assert "violations=0" in err

    def test_quiet_suppresses_summary(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--max-n", "2", "--max-degree", "2",
                                 "--quiet", "--which", "theorem")
        assert code == 0
        assert "violations" not in out
        assert out.strip()  # records still emitted
        assert err == ""

    def test_summary_goes_to_stderr(self, capsys):
        # Without --quiet, stdout is still one JSON document.
        code, out, err = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2",
                                 "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [scan["scan"] for scan in obj["scans"]] == ["theorem", "lemma"]
        reports = [classify.scan_theorem(3, 2), classify.scan_lemma(3, 2)]
        assert err.splitlines() == [text for report in reports
                                    for text in report.summary_lines()]

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

    def test_unwritable_out_fails_before_scanning(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "scan_theorem", lambda *a: calls.append(("theorem", a)))
        monkeypatch.setattr(cli, "scan_lemma", lambda *a: calls.append(("lemma", a)))
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "scan", "--max-n", "12", "--max-degree",
                                 "6", "--format", "csv", "--out", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert out == ""
        assert calls == []

    def test_json_single_document(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--max-degree", "2",
                               "--format", "json", "--quiet")
        assert code == 0
        obj = json.loads(out)
        assert {scan["scan"] for scan in obj["scans"]} == {"theorem", "lemma"}

    def test_thread_env_cap(self, capsys, monkeypatch):
        # The former thread-count variable is ignored: the scan runs serially
        # and writes the same records as without it.
        _, plain, _ = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2",
                              "--which", "lemma")
        monkeypatch.setenv("CI_INVARIANTS_THREADS", "2")
        code, out, err = run_cli(capsys, "scan", "--max-n", "3", "--max-degree", "2",
                                 "--which", "lemma")
        assert code == 0
        assert "violations=0" in err
        assert out == plain

    def test_threads_flag_is_a_usage_error(self):
        # Scans run serially: there is no --threads flag, and the former
        # CI_INVARIANTS_THREADS variable is not read, even when malformed.
        env = dict(os.environ, CI_INVARIANTS_THREADS="zero")
        base = [sys.executable, "-m", "ci_invariants", "scan", "--max-n", "3",
                "--max-degree", "2"]
        plain = subprocess.run(base, capture_output=True, text=True, env=env)
        assert plain.returncode == 0
        assert "violations=0" in plain.stderr
        proc = subprocess.run(base + ["--threads", "2"], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ")
        assert "unrecognized arguments: --threads 2" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    CHI22_MESSAGE = "binomial sum 1 != closed form 0 at k=3"

    @classmethod
    def inject(cls, monkeypatch, expansion_at: int, chi22_at: int | None) -> None:
        """The expansion identity fails at k = ``expansion_at`` and chi22's
        check, unless ``chi22_at`` is None, at k = ``chi22_at``."""
        identities, chi22 = cli.verify_expansion_identities, cli.chi22

        def failing_identities(max_k):
            return (holds and k != expansion_at
                    for k, holds in enumerate(identities(max_k)))

        def failing_chi22(k):
            if k == chi22_at:
                raise InternalCheckError(cls.CHI22_MESSAGE)
            return chi22(k)

        monkeypatch.setattr(cli, "verify_expansion_identities", failing_identities)
        monkeypatch.setattr(cli, "chi22", failing_chi22)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_lower_k_failure_is_reported(self, capsys, monkeypatch, fmt):
        self.inject(monkeypatch, expansion_at=5, chi22_at=3)
        code, out, err = run_cli(capsys, "verify-identities", "--max-k", "8",
                                 "--format", fmt)
        assert code == 1
        if fmt == "json":
            assert json.loads(out) == {"max_k": "8", "expansion_identity_ok": False,
                                       "chi22_closed_form_ok": False}
        else:
            assert out == ("checked k = 0 .. 8\nexpansion identity: FAILED\n"
                           "chi22 sum vs closed form: FAILED\n")
        assert err == f"error: {self.CHI22_MESSAGE}\n"

    def test_expansion_failure_alone(self, capsys, monkeypatch):
        self.inject(monkeypatch, expansion_at=5, chi22_at=None)
        code, out, err = run_cli(capsys, "verify-identities", "--max-k", "8")
        assert code == 1
        assert out == ("checked k = 0 .. 8\nexpansion identity: FAILED\n"
                       "chi22 sum vs closed form: ok\n")
        assert err == "error: expansion identity fails at k=5\n"

    def test_expansion_comes_first_at_equal_k(self, capsys, monkeypatch):
        self.inject(monkeypatch, expansion_at=3, chi22_at=3)
        code, _, err = run_cli(capsys, "verify-identities", "--max-k", "8")
        assert (code, err) == (1, "error: expansion identity fails at k=3\n")


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

    def test_import_footprint(self):
        # dataclasses (with inspect) and csv cost start-up time on every
        # call and do no work the package needs.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import ci_invariants.cli; "
             "print(*sorted(set(sys.modules) - before))"],
            capture_output=True, text=True, check=True,
        )
        added = set(proc.stdout.split())
        assert "ci_invariants.cli" in added
        assert not added & {"dataclasses", "inspect", "csv"}

    def test_identical_invocations_byte_identical(self, capsys):
        results = [run_cli(capsys, "classify", "--n", "6", "--type", "2,2",
                           "--format", "json") for _ in range(2)]
        assert results[0] == results[1]


#: sha256 of the stdout of ``COMMAND --n N --type TYPE --format FORMAT``, by
#: (COMMAND, N, TYPE), for the table, json and csv formats in that order,
#: taken while the records were frozen dataclasses and single-type CSV went
#: through ``csv.writer``.  Each call exits 0, except ``classify`` and
#: ``fiber`` of P^0 (None): they exit 2 and write nothing to stdout.
GOLDEN_SINGLE_TYPE = {
    ("invariants", "0", ""): (
        "faf70dc27d1589e7a6b579d503aa4004b15a3eef4a910c9970436c59cdc7f624",
        "0f28b3cea907877ffbed33f541cfc0176823832befa5e4dcdb223db546d926dc",
        "f6ee9c0c422d5cab281c7297919f4fd1969daf33209ba93a918ed5339d7897c7",
    ),
    ("invariants", "1", "1"): (
        "9bb3e754c4d451dd40c04bb196ed9189755b531eb3bd8779d69a3b985460d7a5",
        "8f90e7b6f4da6b0c87cc6a58b77d623f9e1b5abee5413b9a7c00a8bce02407bf",
        "7a88b838f22aced67c5329368df9648a70d0707077cadca0e3b69014d51f4b42",
    ),
    ("invariants", "4", "3"): (
        "d907dc9f4bc789b873e0c26fecfc81f4d9f2522c6d9fd2d80a33d536a80f9209",
        "a59f7939963ca7b08e22f1c780a171734ec8f383f04375441e6eb3e8f6bc89e0",
        "d47c38abb56759d47c8db66bc54d84256a654521e0bcf9f05a03dcbe579553e0",
    ),
    ("invariants", "5", "1,2"): (
        "276f60a1fa6d46510492ad1e5fc50109162663b4105ce77633e5cc0339d58020",
        "2ff326799f8486c308e7dcaba7ad688c0340474a5b2ab9c5f85fb1f9d598dc7e",
        "da9f4157e89a9740539ec9b9b1b1359353b7e7e1c41b118cbe729c55f7f9b880",
    ),
    ("invariants", "4", "5"): (
        "2f22bbe9c6738caed2ec0cbff12450cd681e54c358f1e1cbd16db065ff81fd8d",
        "35abdb59d4ed02eba86c7e5756f8d6261e55921dc4f96791b92a236dabaf3daf",
        "7eee3d837411207ec9860e47520e3cdb94d3947f67f36e41d98659ee01111d8c",
    ),
    ("invariants", "850", "2,5,6"): (
        "eef07cfc914e01046057078b88d64656cdadcd89e36dd99ed650a6eaff283794",
        "ad693197ae2155adb87dcb29ab330fbaab9f013314fc55e7cde298d7892a1947",
        "6c141265a01358aee9213cd5c103814c3e22205a7f068b8c2eb59a91fe37b12e",
    ),
    ("classify", "0", ""): None,
    ("classify", "1", "1"): (
        "7c8c024b689e2c1c72c69b6751548f3a32d203f895e6c3500a03e8d0eb014021",
        "843b9463a7b4d4cdc348ec7a0676354a41f641e3c2a505c609b04f4e61f6fd8e",
        "9ecd8d64a135ff7b09963c8ee608d752c88de9c463a3360c7ef4940724c8c44e",
    ),
    ("classify", "4", "3"): (
        "72c563672666d33e2851d9c43f2dca8fd41047a909b9d676e3b0c7e638ef5e68",
        "91114d1e8b192be733f12e3b318bb02f8dc849da774039f83a7d1947c9007338",
        "c82166a410d1641b65ae3d7aedb1fec46583a8c23a645f414e662ed490bb850d",
    ),
    ("classify", "5", "1,2"): (
        "5960c92f09484a34dcb769d9732b2274ca19d486675865c1b5af8ed5afbda889",
        "ec51b6cb9f9627dfe33abc4639978ea5794607a92e9ac940e8cb89abc8714645",
        "cda2b01a06769755f46550d33919d2020c16d24c4b17a88f9be0de49ec03976d",
    ),
    # The homogeneous types below pin the parity fields that ``classify``
    # takes from the verdict: a linear space, quadrics of odd and of even
    # dimension, and a quadric cut out with two hyperplanes.  Recorded
    # while the parity check was a separate function that only ``classify``
    # called.
    ("classify", "5", "1,1"): (
        "718391234c57466a331c2b5ecf25721cc754d1d37a024838dd67024cdf4b07b9",
        "48a9e27eeb48374e5bbb56c5f32eb3608a45dd5139181f45d106b34fe2531753",
        "5c81a0c145865c1a979d3dddc249f5dd8f2eab415104667103eebe1cd02f4ef9",
    ),
    ("classify", "6", "1,2"): (
        "711b3d847d81399c6774c871729c5970cb65d6b70c320abe0127f376bffe018b",
        "600ab87fe9494df97af693e59d88807786e74fbcedb06dcb45cfa6db2f50b72e",
        "89872772b5a39ec5a472b7c7447ecd7da884022d1a8563af603c4d3b095dd697",
    ),
    ("classify", "4", "2"): (
        "51fc226cfa3593fb62b4b5adc8fe457c53dfa5d9239b3c74461708432732e966",
        "6dc2031f74f4f609d9e46c9cdeb971d082654b650f039fbb46d828f50fec9495",
        "86699b9bd0a5d2648f0974f6a101da652cade82412cf941397ca6cd075d6f83c",
    ),
    ("classify", "7", "1,1,2"): (
        "15c71ad08a534e71fcdb9782391ee3d3d616c9c09b949d92baab3813b762f4fe",
        "f0b5297eb60cd247c9e26cfefe2281ead9de9bc0b75cc0555a24cab4ea4d4e79",
        "0573d37f30c0218dbe2690cb708ccc134544d513262e55472631b3f451c4a47a",
    ),
    ("classify", "4", "5"): (
        "450c9c34e75814bf9c92e47f782cce9c5e32ec8b59279c4a74e989a378043fb0",
        "1bc02e1a146703a11a42d7f75d195f8401ed959c1e4bd1e279fb3ac432305d2d",
        "3d1aa8f76ccecf79ca5619925753a505858809bf414b643d71d2c12bc267024a",
    ),
    ("classify", "850", "2,5,6"): (
        "fbeb4b2868b27a210886a1e3695d720cb41e24b772d0d1fa187d1adfbe089df4",
        "1ad19b3e06ce01ae484ab6eab96edd40091ff04c765b74ea590ba43827369484",
        "441433975b09c1dd03b08af4da1201cfd391efecb23afdb7b22a2285c4b5f8f8",
    ),
    ("fiber", "0", ""): None,
    ("fiber", "1", "1"): (
        "fbedc57cdf35328a8ce27b9998687bbb7ea2edb1b35f6804b144ec8ae0eccf74",
        "f81a5e0d09f6407ca93f3347ca61345043c3ddec7b62dbe8ccccbcd47f802c75",
        "06a5b4076a2476f54c441e600d3577436f6341e775b019787ae3c42aabce48af",
    ),
    ("fiber", "4", "3"): (
        "1938a1be6a4ac8bf2b9fe98452b50e8934908942d04e3afe3aec404b531e12db",
        "cb8fc866b9fd478876cf8178d8a795a18b535c17576bc3e6a7c17c8cae68ad09",
        "7329350a49774b00914d933bfca120c3824fcde1f4dce08e9b6fc1bc153a430d",
    ),
    ("fiber", "5", "1,2"): (
        "e4e6586c4b8d4989b89c5a69c4421ed17e27bb65d9e48dec84c0bace35b077f6",
        "d96d450f9ae96f18fb87d174e2b67ac23856de97707d0994fd04606ac50a6e13",
        "0842224ade38f67e5a413e85fbffd67321da64ac0aac7ca6f1a20a99ad0bcdbb",
    ),
    ("fiber", "4", "5"): (
        "592625775504ba396541bf6ab71bbc05e8b6e4d2aaf59f37488c11550dd8bcc8",
        "951a6986a30a65f96465459569e5aa769c42af9517db01b01a2ab168ce598fcd",
        "2dab93dfa53c604d75be8b92d3e3e8b06057426af933b7efb02d708d6cd68e08",
    ),
    ("fiber", "850", "2,5,6"): (
        "ffd6d4fc3a1c5f5042ec522d8610a9c197ed91875f05fb41e853db207690f27e",
        "b1144c3f128f51ab6c5ace4e6a4870261af48754b65e9c24652c83f074f919b6",
        "d0c5d12e062174dfb1aeb17234303d833502c4a0d40940015c30ac7b10a2e611",
    ),
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command, n, degrees", list(GOLDEN_SINGLE_TYPE))
def test_single_type_document_digest(capsys, command, n, degrees, fmt):
    code, out, err = run_cli(capsys, command, "--n", n, "--type", degrees, "--format", fmt)
    golden = GOLDEN_SINGLE_TYPE[command, n, degrees]
    if golden is None:
        assert (code, out) == (2, "") and err.startswith("error: ")
    else:
        assert (code, err) == (0, "")
        digest = golden[("table", "json", "csv").index(fmt)]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _digit_limit() -> int:
    """The interpreter's int-to-str digit cap; 0 when it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def _unlimited_digits():
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _gauss(g):
    return {"re": str(g.re), "im": str(g.im)}


def _invariants_json(report):
    return {
        "type": {"ambient_dim": str(report.ci.ambient_dim),
                 "degrees": [str(d) for d in report.ci.degrees]},
        "dimension": str(report.ci.dimension),
        "euler_characteristic": str(report.euler_char),
        "middle_betti": str(report.middle_betti),
        "poincare_coefficients": [str(c) for c in report.poincare.coefficients],
        "value_at_i": _gauss(report.value_at_i),
    }


@pytest.fixture(scope="module")
def past_the_digit_line():
    """What each subcommand must print for (3,3) in P^20000, from the library:
    the JSON document, the CSV rows and the table lines."""
    ci = CIType(20000, (3, 3))
    with _unlimited_digits():
        report = compute_invariants(ci)
        verdict, case = theorem_verdict(ci), lemma_classify(ci, report)
        geometry, fiber = line_geometry(ci), fiber_type(ci)
        fib = compute_invariants(fiber)
        assert len(str(report.euler_char)) > 4300 and len(str(fib.euler_char)) > 4300
        head = [str(ci.ambient_dim), "3 3"]
        geo = [str(geometry.moduli_dim), str(geometry.fiber_dim), str(geometry.normal_degree)]
        return {
            "invariants": (
                _invariants_json(report),
                [["n", "degrees", "dimension", "euler_characteristic", "middle_betti",
                  "poincare", "value_at_i"],
                 head + [str(ci.dimension), str(report.euler_char),
                         str(report.middle_betti),
                         " ".join(str(c) for c in report.poincare.coefficients),
                         str(report.value_at_i)]],
                [f"type: {ci}", f"dimension: {ci.dimension}",
                 f"euler characteristic: {report.euler_char}",
                 f"middle Betti number: {report.middle_betti}",
                 f"Poincare polynomial: {report.poincare}",
                 f"value at i: {report.value_at_i}"],
            ),
            "classify": (
                {"type": _invariants_json(report)["type"], "total_degree": "6",
                 "dimension": str(ci.dimension), "verdict": verdict.kind.value,
                 "reason": verdict.reason, "p_x_at_i": _gauss(verdict.p_x_at_i),
                 "p_f_at_i": _gauss(verdict.p_f_at_i), "lemma_case": case.value,
                 "parity": None},
                [[*Verdict.CSV_HEADER, "lemma_case"],
                 head + ["6", str(ci.dimension), verdict.kind.value,
                         str(verdict.p_x_at_i), str(verdict.p_f_at_i), case.value]],
                [f"type: {ci}", "total degree: 6", f"dimension: {ci.dimension}",
                 f"verdict: {verdict.kind.value}", f"reason: {verdict.reason}",
                 f"lemma case: {case.value}"],
            ),
            "fiber": (
                {"type": _invariants_json(report)["type"], "moduli_dim": geo[0],
                 "fiber_dim": geo[1], "normal_degree": geo[2],
                 "rationally_connected": True, "fiber": _invariants_json(fib)},
                [["n", "degrees", "moduli_dim", "fiber_dim", "normal_degree",
                  "rationally_connected", "fiber_degrees", "fiber_euler",
                  "fiber_middle_betti"],
                 head + geo + ["true", " ".join(map(str, fiber.degrees)),
                               str(fib.euler_char), str(fib.middle_betti)]],
                [f"type: {ci}", f"moduli dimension: {geo[0]}",
                 f"fiber dimension: {geo[1]}", f"normal bundle degree: {geo[2]}",
                 "rationally connected: true", f"fiber type: {fiber}",
                 f"fiber euler characteristic: {fib.euler_char}",
                 f"fiber middle Betti number: {fib.middle_betti}",
                 f"fiber Poincare polynomial: {fib.poincare}",
                 f"fiber value at i: {fib.value_at_i}"],
            ),
        }


class TestPastTheDigitLine:
    """Values with more digits than CPython's int-to-str cap (4300 from 3.11
    and 3.10.7) are written in full, and the cap is restored afterwards."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("command", ["invariants", "classify", "fiber"])
    def test_every_integer_is_the_library_value(self, capsys, past_the_digit_line,
                                                command, fmt):
        limit = _digit_limit()
        code, out, err = run_cli(capsys, command, "--n", "20000", "--type", "3,3",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert _digit_limit() == limit
        doc, rows, table = past_the_digit_line[command]
        if fmt == "json":
            assert json.loads(out) == doc
        elif fmt == "csv":
            assert list(csv.reader(out.splitlines())) == rows
        else:
            assert out.splitlines() == table


class TestBounds:
    @pytest.mark.parametrize("value", ["100001", "-1", "9" * 1000, "9" * 5000, "x"])
    def test_n_out_of_range_is_a_usage_error(self, value):
        proc = subprocess.run(
            [sys.executable, "-m", "ci_invariants", "invariants", "--n", value,
             "--type", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ")
        (error,) = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert f"argument --n: expected an integer in [0, {cli.MAX_N}]" in error
        assert len(error) < 200
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--type", "1_0"],      # int() reads 10
        ["--n", "5", "--type", "\u0663"],   # ARABIC-INDIC DIGIT THREE; int() reads 3
        ["--n", "1_000", "--type", "3"],    # int() reads 1000
        ["--n", "10", "--type", "2," + "7" * 300 + "x"],
        ["--n", "10", "--type", "x" * 300],
    ])
    def test_malformed_integers_are_usage_errors(self, capsys, argv):
        # Only an optional minus sign and ASCII digits make an integer, and a
        # bad value is echoed shortened.
        code, out, err = run_cli(capsys, "invariants", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        (error,) = [line for line in err.splitlines() if "error:" in line]
        assert "expected an integer" in error
        assert len(error) < 120

    def test_n_maximum_is_accepted(self):
        for command in ("invariants", "classify", "fiber"):
            args = cli.build_parser().parse_args([command, "--n", str(cli.MAX_N)])
            assert args.n == cli.MAX_N == 100_000

    def test_max_k_past_the_bound_is_a_usage_error(self, capsys):
        assert cli.MAX_K == 400
        code, out, err = run_cli(capsys, "verify-identities", "--max-k", "401")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert "argument --max-k: expected an integer in [0, 400], got '401'" in err

    def test_scan_type_count_is_the_closed_form(self):
        for max_n in range(1, 9):
            for max_degree in range(1, 7):
                walked = sum(1 for _ in iter_types(max_n, max_degree))
                assert walked == comb(max_n + max_degree + 1, max_n) - 1
                assert cli._scan_type_count(max_n, max_degree) == walked
        assert cli._scan_type_count(14, 6) == 116_279
        assert cli._scan_type_count(20, 6) == 888_029 <= cli.MAX_SCAN_TYPES
        assert cli._scan_type_count(21, 6) == cli.MAX_SCAN_TYPES + 1

    @pytest.mark.parametrize("bounds", [("40", "6"), ("1000000000", "1000000000")])
    def test_scan_past_the_bound_is_a_usage_error(self, tmp_path, capsys, bounds):
        target = tmp_path / "scan.csv"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "scan", "--max-n", bounds[0], "--max-degree",
                                 bounds[1], "--out", str(target))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: --max-n {bounds[0]} --max-degree {bounds[1]} spans "
                       f"more than MAX_SCAN_TYPES = 1,000,000 types\n")
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--max-n", "0", "--max-degree", "2"],
        ["scan", "--max-n", "2", "--max-degree", "1.5"],
        ["verify-identities", "--max-k", "-1"],
    ])
    def test_other_bounds_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error: argument" in err and "expected an integer" in err

    def test_failing_command_writes_nothing(self, capsys, monkeypatch):
        # Every field is computed before the document is rendered, so a
        # field that fails to compute fails every format, with nothing on
        # stdout.
        def failing(self):
            raise ValueError("reason unavailable")

        monkeypatch.setattr(classify.Verdict, "reason", property(failing))
        for fmt in ("table", "json", "csv"):
            code, out, err = run_cli(capsys, "classify", "--n", "4", "--type", "3",
                                     "--format", fmt)
            assert (code, out) == (2, "")
            assert err == "error: reason unavailable\n"
