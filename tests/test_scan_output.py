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
import tracemalloc

import pytest

from ci_invariants import (
    CIType,
    LemmaRecord,
    Verdict,
    scan_lemma,
    scan_theorem,
    write_scans,
)
from ci_invariants import classify, topology, writer
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
def test_internal_check_failure_document(monkeypatch, plant_chi, capsys, fmt):
    # A wrong Euler characteristic for one type makes its records carry null
    # fields and puts its violations into the document: the cubic surface
    # fails the lemma scan, and a quadric fourfold fails both scans (the
    # theorem scan also records that the homogeneous type failed a gate).
    real = topology.compute_invariants
    for which, bad, counts in (("lemma", CIType(3, (3,)), [1]),
                               ("both", CIType(5, (2,)), [2, 1])):
        # The theorem scan computes invariants in ``theorem_verdict``; the
        # lemma scan reads chi from the row of the type's degrees.
        monkeypatch.setattr(classify, "compute_invariants",
                            lambda ci, chi=None, bad=bad:
                            real(ci, -100 if ci == bad else chi))
        plant_chi({(bad.degrees, bad.dimension): -100})
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
def test_internal_check_failure_of_a_whole_class(plant_chi, capsys, fmt):
    # Every type of the class (D, k) = ((3,), 2) fails.  Its checks run
    # once, on its first type, and record one violation; each of the
    # class's rows, in four blocks, is a failed record.
    cubic_surfaces = [CIType(3 + m, (1,) * m + (3,)) for m in range(MAX_N - 2)]
    plant_chi({((3,), 2): -100})
    code, out = _scan_cli(capsys, "lemma", fmt)
    assert code == 1
    (report,) = _reports("lemma", MAX_N, MAX_DEGREE)
    assert report.violations == ("middle Betti number -102 < 1 for (3) in P^3",)
    assert report.counts["internal_check_failed"] == 4
    failed = [rec for rec in report.records() if rec.case is None]
    assert failed == [LemmaRecord(ci, None, None, None) for ci in cubic_surfaces]
    assert out == expected_document([report], fmt)


# A lemma block renders its first two classes, D = () and D = (2), field by
# field, and the rest from one template per k mod 4, unless it holds a
# failed class.  Each fault below fails one class of the block (3, 1): the
# quadric surface, a head class, or the cubic surface, a tail class.  At
# 11/4 the blocks span every residue of k mod 4.
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bounds", [(MAX_N, MAX_DEGREE), (11, 4)], ids=["6-3", "11-4"])
@pytest.mark.parametrize("bad", [CIType(3, (2,)), CIType(3, (3,))], ids=["head", "tail"])
def test_failed_class_in_a_lemma_block(plant_chi, bad, bounds, fmt):
    real = topology.compute_invariants
    plant_chi({(bad.degrees, bad.dimension): -100})
    report = scan_lemma(*bounds)
    assert len(report.violations) == 1 and str(bad) in report.violations[0]
    failed = [rec.ci for rec in report.records() if rec.case is None]
    assert bad in failed
    assert len(failed) == report.counts["internal_check_failed"]
    for rec in report.records():
        if rec.case is not None:
            direct = real(rec.ci)
            assert rec == LemmaRecord(rec.ci, direct.middle_betti, direct.value_at_i,
                                      classify.lemma_classify(rec.ci, direct))
    buffer = io.StringIO()
    write_scans([report], fmt, buffer)
    assert buffer.getvalue() == expected_document([report], fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_reports_of_other_degree_bounds_in_one_document(fmt):
    # The writer shares each degree's text between the reports of one
    # document; a report with another max_degree gets its own.
    reports = [scan_theorem(5, 3), scan_lemma(4, 5), scan_theorem(3, 5), scan_lemma(6, 2)]
    buffer = io.StringIO()
    write_scans(reports, fmt, buffer)
    assert buffer.getvalue() == expected_document(reports, fmt)


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


# A lemma row past D = () and D = (2) is a template per k mod 4, filled
# from b_k; it must be the text of the class's fields, with p(i) computed.
@pytest.mark.parametrize("fmt", FORMATS)
def test_lemma_tail_templates_render_the_class_fields(fmt):
    templates, render = writer._tail_templates(fmt), writer._field_renderer("lemma", fmt)
    assert [template.count("%") for template in templates] == [2] * 4
    for k in range(8):
        for b in (1, 3, 10**60 + 1):
            fields = (b, topology._value_at_i(k, b), classify.LemmaCase.NONVANISHING)
            assert templates[k % 4] % (b, 2 - b if k % 4 == 2 else b) == render(fields), (k, b)


# Level l of the total degrees is built from level l - 1, so each level is
# checked against the sums of its multisets.  At m = 40 level 8 would hold
# 314 million sums, so that range stops at level 4 (123,410).
@pytest.mark.parametrize("m, top_level", [(1, 8), (2, 8), (6, 8), (40, 4)])
def test_total_degrees_are_the_sums_of_the_multisets(m, top_level):
    degree_range = range(1, m + 1)
    levels = list(writer._total_degrees(degree_range, top_level))
    assert len(levels) == top_level + 1
    for l, level in enumerate(levels):
        assert list(level) == list(map(sum, writer._multisets(degree_range, l))), (m, l)


def test_total_degrees_of_levels_0_and_1_hold_no_list():
    # A list of the 999,999 degrees would take 8 MB, and its ints 28 MB.
    tracemalloc.start()
    try:
        levels = writer._total_degrees(range(1, 1_000_000), 1)
        total = sum(map(sum, levels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 999_999 * 1_000_000 // 2
    assert peak < 2**16, peak


class _RecordingStream(io.TextIOBase):
    """A text stream that keeps, for each ``write``, the number of rows it
    carries, and the sha256 of all it was given."""

    def __init__(self, row_mark: str):
        super().__init__()
        self.row_mark, self.rows, self.sha256 = row_mark, [], hashlib.sha256()

    def write(self, text):
        self.rows.append(text.count(self.row_mark))
        self.sha256.update(text.encode())
        return len(text)


#: The most rows one ``write`` of the scan writer may carry.  It is a
#: number of its own, not the writer's constant, so that shrinking that
#: constant to one row per write fails the test below.
CHUNK_ROWS = 128


# A per-row writer makes one ``write`` per row: 50,387 at 12/6 and 116,279
# at 14/6.  The writer joins up to 128 rows of one (n, l) block into each
# write, so it makes at most one partial chunk per block.  The two digests
# are the documents of the benchmark's scan workloads.
@pytest.mark.parametrize("scan, bounds, fmt, row_mark, digest", [
    (scan_lemma, (12, 6), "csv", "\n",
     "8ebf021f6200aab42ced1d2148028004b85729c86d9fcca4c73b8bd1fd5649e7"),
    (scan_theorem, (14, 6), "json", '"n": ',
     "8a8431072a32a550077c2b0b7c2887fa65aee81422c92473109896e3fcf92812"),
], ids=["lemma-12-6-csv", "theorem-14-6-json"])
def test_rows_are_written_in_chunks(scan, bounds, fmt, row_mark, digest):
    report = scan(*bounds)
    document = io.StringIO()
    write_scans([report], fmt, document)
    stream = _RecordingStream(row_mark)
    write_scans([report], fmt, stream)
    assert stream.sha256.hexdigest() == hashlib.sha256(
        document.getvalue().encode()).hexdigest() == digest
    header = fmt == "csv"  # the CSV header is a line of its own
    assert sum(stream.rows) == report.types + header
    max_n = bounds[0]
    blocks = max_n * (max_n + 3) // 2  # one block per 0 <= l <= n <= max_n
    assert len(stream.rows) <= -(-report.types // CHUNK_ROWS) + blocks + 4
    assert max(stream.rows) <= CHUNK_ROWS


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
