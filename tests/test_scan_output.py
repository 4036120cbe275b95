"""Byte-identity tests for the scan writer.

Each expected document is built here, independently of the writer, from
the scan records alone: JSON with ``json.dumps(..., indent=2)`` over plain
dicts, CSV with the ``csv`` module, and table lines with f-strings.  Since
those records come from the same scan table as the document, pinned sha256
digests of whole documents also guard the record content itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from ci_invariants import (
    CIType,
    LemmaRecord,
    Verdict,
    scan_lemma,
    scan_theorem,
    write_scans,
)
from ci_invariants import classify, topology
from ci_invariants.cli import main

MAX_N, MAX_DEGREE = 6, 3
FORMATS = ("json", "csv", "table")
WHICH = ("theorem", "lemma", "both")


def _outcome(value) -> str:
    return value.value if value is not None else "internal_check_failed"


def _gauss_obj(g):
    return None if g is None else {"re": str(g.re), "im": str(g.im)}


def _gauss_cell(g) -> str:
    return "-" if g is None else f"{g.re}{g.im:+d}i"


def _record_obj(kind: str, rec) -> dict:
    ci = rec.ci
    entry = {
        "n": str(ci.ambient_dim),
        "degrees": [str(d) for d in ci.degrees],
        "dimension": str(ci.dimension),
    }
    if kind == "theorem":
        entry["total_degree"] = str(sum(ci.degrees))
        entry["verdict"] = _outcome(rec.kind)
        entry["p_x_at_i"] = _gauss_obj(rec.p_x_at_i)
        entry["p_f_at_i"] = _gauss_obj(rec.p_f_at_i)
    else:
        entry["middle_betti"] = None if rec.middle_betti is None else str(rec.middle_betti)
        entry["p_at_i"] = _gauss_obj(rec.value_at_i)
        entry["case"] = _outcome(rec.case)
    return entry


def _scan_obj(report) -> dict:
    records = [_record_obj(report.kind, rec) for rec in report.records()]
    return {
        "scan": report.kind,
        "max_n": str(report.max_n),
        "max_degree": str(report.max_degree),
        "types": str(len(records)),
        "counts": {name: str(count) for name, count in report.counts.items()},
        "violations": list(report.violations),
        "records": records,
    }


def _csv_rows(report):
    if report.kind == "theorem":
        yield ["n", "degrees", "total_degree", "dimension", "verdict",
               "p_x_at_i", "p_f_at_i"]
    else:
        yield ["n", "degrees", "dimension", "middle_betti", "p_at_i", "case"]
    for rec in report.records():
        ci = rec.ci
        degrees = " ".join(str(d) for d in ci.degrees)
        if report.kind == "theorem":
            yield [str(ci.ambient_dim), degrees, str(sum(ci.degrees)),
                   str(ci.dimension), _outcome(rec.kind),
                   _gauss_cell(rec.p_x_at_i), _gauss_cell(rec.p_f_at_i)]
        else:
            betti = "-" if rec.middle_betti is None else str(rec.middle_betti)
            yield [str(ci.ambient_dim), degrees, str(ci.dimension), betti,
                   _gauss_cell(rec.value_at_i), _outcome(rec.case)]


def _table_line(kind: str, rec) -> str:
    ci = rec.ci
    head = f"n={ci.ambient_dim} type=({','.join(str(d) for d in ci.degrees)}) "
    if kind == "theorem":
        return (head + f"d={sum(ci.degrees)} k={ci.dimension} "
                f"verdict={_outcome(rec.kind)} p_X(i)={_gauss_cell(rec.p_x_at_i)} "
                f"p_F(i)={_gauss_cell(rec.p_f_at_i)}")
    betti = "-" if rec.middle_betti is None else str(rec.middle_betti)
    return (head + f"k={ci.dimension} b_k={betti} p(i)={_gauss_cell(rec.value_at_i)} "
            f"case={_outcome(rec.case)}")


def expected_document(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"scans": [_scan_obj(r) for r in reports]}, indent=2) + "\n"
    if fmt == "csv":
        tables = []
        for report in reports:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(_csv_rows(report))
            tables.append(buffer.getvalue())
        return "\n".join(tables)
    return "".join(_table_line(r.kind, rec) + "\n" for r in reports for rec in r.records())


def _reports(which: str, max_n: int, max_degree: int):
    reports = []
    if which in ("theorem", "both"):
        reports.append(scan_theorem(max_n, max_degree))
    if which in ("lemma", "both"):
        reports.append(scan_lemma(max_n, max_degree))
    return reports


def _scan_cli(capsys, which, fmt, *extra, bounds=(MAX_N, MAX_DEGREE)):
    code = main(["scan", "--max-n", str(bounds[0]), "--max-degree", str(bounds[1]),
                 "--which", which, "--format", fmt, "--quiet", *extra])
    captured = capsys.readouterr()
    return code, captured.out


def _assert_matches_independent_rendering(capsys, which, fmt, bounds):
    code, out = _scan_cli(capsys, which, fmt, bounds=bounds)
    assert code == 0
    assert out == expected_document(_reports(which, *bounds), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("which", WHICH)
def test_scan_document_matches_independent_rendering(capsys, which, fmt):
    _assert_matches_independent_rendering(capsys, which, fmt, (MAX_N, MAX_DEGREE))


# Degree lists up to length 9 with every degree up to 6: the writer's blocks
# then hold long runs of leading 1s before reduced multisets of every shape.
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("which", WHICH)
def test_scan_document_matches_independent_rendering_at_9_6(capsys, which, fmt):
    _assert_matches_independent_rendering(capsys, which, fmt, (9, 6))


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_equals_stdout(tmp_path, capsys, fmt):
    target = tmp_path / f"scan.{fmt}"
    code, out = _scan_cli(capsys, "both", fmt, "--out", str(target))
    assert code == 0 and out == ""
    _, stdout = _scan_cli(capsys, "both", fmt)
    assert target.read_bytes() == stdout.encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_internal_check_failure_document(monkeypatch, capsys, fmt):
    # A wrong Euler characteristic for one type makes its records carry null
    # fields and puts its violations into the document: the cubic surface
    # fails the lemma scan, and a quadric fourfold fails both scans (the
    # theorem scan also records that the homogeneous type failed a gate).
    # The fault enters where chi becomes invariants, the step both scans
    # share.
    real = topology.compute_invariants
    for which, bad, counts in (("lemma", CIType(3, (3,)), [1]),
                               ("both", CIType(5, (2,)), [2, 1])):
        monkeypatch.setattr(classify, "compute_invariants",
                            lambda ci, chi=None, bad=bad:
                            real(ci, -100 if ci == bad else chi))
        code, out = _scan_cli(capsys, which, fmt)
        assert code == 1
        reports = _reports(which, MAX_N, MAX_DEGREE)
        failed = {"theorem": Verdict(bad, None),
                  "lemma": LemmaRecord(bad, None, None, None)}
        assert [len(report.violations) for report in reports] == counts
        for report in reports:
            assert failed[report.kind] in report.records()
        assert out == expected_document(reports, fmt)
        if fmt == "json":
            (entry,) = [e for e in json.loads(out)["scans"][-1]["records"]
                        if e["n"] == str(bad.ambient_dim)
                        and e["degrees"] == [str(d) for d in bad.degrees]]
            assert entry["middle_betti"] is None and entry["p_at_i"] is None


@pytest.mark.parametrize("fmt", FORMATS)
def test_internal_check_failure_of_a_whole_class(monkeypatch, capsys, fmt):
    # Every type of the class (D, k) = ((3,), 2) fails, so no type of it
    # fills the class slot: it keeps its chi, and each of the class's rows,
    # in four blocks, comes from the failed entries.
    real = topology.compute_invariants
    cubic_surfaces = [CIType(3 + m, (1,) * m + (3,)) for m in range(MAX_N - 2)]
    monkeypatch.setattr(classify, "compute_invariants", lambda ci, chi=None:
                        real(ci, -100 if ci in cubic_surfaces else chi))
    code, out = _scan_cli(capsys, "lemma", fmt)
    assert code == 1
    (report,) = _reports("lemma", MAX_N, MAX_DEGREE)
    assert len(report.violations) == report.counts["internal_check_failed"] == 4
    assert type(report.table[0][(3,)][2]) is int
    failed = [rec for rec in report.records() if rec.case is None]
    assert failed == [LemmaRecord(ci, None, None, None) for ci in cubic_surfaces]
    assert out == expected_document([report], fmt)


def test_empty_scan_object_layout():
    buffer = io.StringIO()
    write_scans([], "json", buffer)
    assert buffer.getvalue() == json.dumps({"scans": []}, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 2])
def test_unknown_format_is_rejected_before_writing(count):
    reports = [scan_theorem(2, 2), scan_lemma(2, 2)][:count]
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        write_scans(reports, "xml", buffer)
    assert buffer.getvalue() == ""


#: sha256 of the stdout of ``scan --max-n 10 --max-degree 5 --which both
#: --quiet`` in each format (5,945,743, 775,060 and 1,255,375 bytes), taken
#: when each record was still built as an object and rendered by its own
#: methods.
GOLDEN_10_5 = {
    "json": "f0a1c58a42a852efb06eb16db01d028e1c73dc661b1a60500136c131f130b7f0",
    "csv": "c6b5907d7f8ae07524e3bd4f1ba65c06a20d20bafa00451e7d423ee3dba1b3bd",
    "table": "64a7dcb37a8a9866aa9bdd876199d80c117693802f2e02534a1c6b15c7329a21",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_scan_document_digest(capsys, fmt):
    code = main(["scan", "--max-n", "10", "--max-degree", "5", "--which", "both",
                 "--format", fmt, "--quiet"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == GOLDEN_10_5[fmt]
