"""Check ci-invariants output against the independent reference.

Every function returns a list of problems; an empty list means the output
agrees with the reference in every field.  JSON is compared as parsed
documents, CSV as parsed rows and the table format line by line.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from pathlib import Path

import reference as ref

VERDICT_KINDS = ("homogeneous_linear", "homogeneous_quadric", "not_rationally_connected",
                 "normal_bundle_obstruction", "poincare_obstruction")
LEMMA_HEADER = ["n", "degrees", "dimension", "middle_betti", "p_at_i", "case"]


def _cell(degrees: tuple[int, ...]) -> str:
    return " ".join(map(str, degrees))


def _type_json(n: int, degrees: tuple[int, ...]) -> dict:
    return {"ambient_dim": str(n), "degrees": [str(d) for d in degrees]}


def _invariants_json(inv: ref.Invariants) -> dict:
    return {
        "type": _type_json(inv.n, inv.degrees),
        "dimension": str(inv.dimension),
        "euler_characteristic": str(inv.chi),
        "middle_betti": str(inv.betti),
        "poincare_coefficients": [str(c) for c in inv.poincare],
        "value_at_i": ref.gauss_json(inv.at_i),
    }


def _expected_invariants(n, degrees):
    inv = ref.invariants(n, degrees)
    table = [
        f"type: {ref.type_text(n, degrees)}",
        f"dimension: {inv.dimension}",
        f"euler characteristic: {inv.chi}",
        f"middle Betti number: {inv.betti}",
        f"Poincare polynomial: {ref.poly_text(inv.poincare)}",
        f"value at i: {ref.gauss_text(inv.at_i)}",
    ]
    rows = [["n", "degrees", "dimension", "euler_characteristic", "middle_betti", "poincare",
             "value_at_i"],
            [str(n), _cell(degrees), str(inv.dimension), str(inv.chi), str(inv.betti),
             _cell(inv.poincare), ref.gauss_text(inv.at_i)]]
    return _invariants_json(inv), rows, table


def _expected_classify(n, degrees):
    v = ref.verdict(n, degrees)
    case = ref.lemma_case(ref.invariants(n, degrees))
    d, k = sum(degrees), n - len(degrees)
    px = v.x.at_i if v.x else None
    pf = v.fiber.at_i if v.fiber else None
    homogeneous = ref.reduced(degrees) in ((), (2,)) and n - 1 - d >= 0
    obj = {
        "type": _type_json(n, degrees),
        "total_degree": str(d),
        "dimension": str(k),
        "verdict": v.kind,
        "reason": v.reason,
        "p_x_at_i": ref.gauss_json(px),
        "p_f_at_i": ref.gauss_json(pf),
        "lemma_case": case,
        "parity": None,
    }
    table = [
        f"type: {ref.type_text(n, degrees)}",
        f"total degree: {d}",
        f"dimension: {k}",
        f"verdict: {v.kind}",
        f"reason: {v.reason}",
        f"lemma case: {case}",
    ]
    if homogeneous:
        obj["parity"] = {"p_x_at_i": ref.gauss_json(px), "p_f_at_i": ref.gauss_json(pf),
                         "x_vanishes": px == (0, 0), "f_vanishes": pf == (0, 0)}
        words = ["vanishes" if z == (0, 0) else "nonzero" for z in (px, pf)]
        table.append(f"parity: p_X(i) = {ref.gauss_text(px)} ({words[0]}), "
                     f"p_F(i) = {ref.gauss_text(pf)} ({words[1]})")
    rows = [["n", "degrees", "total_degree", "dimension", "verdict", "p_x_at_i", "p_f_at_i",
             "lemma_case"],
            [str(n), _cell(degrees), str(d), str(k), v.kind, ref.gauss_text(px),
             ref.gauss_text(pf), case]]
    return obj, rows, table


def _expected_fiber(n, degrees):
    d, l = sum(degrees), len(degrees)
    fiber_dim = n - 1 - d
    rc = "true" if d <= n else "false"
    fiber = ref.invariants(*ref.fiber_type(n, degrees)) if fiber_dim >= 0 else None
    obj = {
        "type": _type_json(n, degrees),
        "moduli_dim": str(2 * n - 2 - d - l),
        "fiber_dim": str(fiber_dim),
        "normal_degree": str(n - d - 1),
        "rationally_connected": d <= n,
        "fiber": _invariants_json(fiber) if fiber else None,
    }
    table = [
        f"type: {ref.type_text(n, degrees)}",
        f"moduli dimension: {2 * n - 2 - d - l}",
        f"fiber dimension: {fiber_dim}",
        f"normal bundle degree: {n - d - 1}",
        f"rationally connected: {rc}",
    ]
    row = [str(n), _cell(degrees), str(2 * n - 2 - d - l), str(fiber_dim), str(n - d - 1), rc]
    if fiber:
        table += [
            f"fiber type: {ref.type_text(fiber.n, fiber.degrees)}",
            f"fiber euler characteristic: {fiber.chi}",
            f"fiber middle Betti number: {fiber.betti}",
            f"fiber Poincare polynomial: {ref.poly_text(fiber.poincare)}",
            f"fiber value at i: {ref.gauss_text(fiber.at_i)}",
        ]
        row += [_cell(fiber.degrees), str(fiber.chi), str(fiber.betti)]
    else:
        table.append("fiber type: none (fiber dimension is negative)")
        row += ["-", "-", "-"]
    rows = [["n", "degrees", "moduli_dim", "fiber_dim", "normal_degree", "rationally_connected",
             "fiber_degrees", "fiber_euler", "fiber_middle_betti"], row]
    return obj, rows, table


EXPECTED = {"invariants": _expected_invariants, "classify": _expected_classify,
            "fiber": _expected_fiber}


def check_query(command: str, n: int, degrees: tuple[int, ...], fmt: str, text: str) -> list[str]:
    """Check the stdout of one single-type subcommand."""
    obj, rows, table = EXPECTED[command](n, tuple(sorted(degrees)))
    if fmt == "json":
        try:
            got = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        return [] if got == obj else [f"JSON differs: {_first_difference(got, obj)}"]
    if fmt == "csv":
        got = list(csv.reader(io.StringIO(text)))
        return [] if got == rows else [f"CSV rows {got!r} != {rows!r}"]
    got = text.splitlines()
    if got == table:
        return []
    for i, (a, b) in enumerate(zip(got, table)):
        if a != b:
            return [f"table line {i + 1}: {a!r} != {b!r}"]
    return [f"table has {len(got)} lines, expected {len(table)}"]


def _first_difference(got, want, path="$") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path} keys {sorted(got)} != {sorted(want)}"
        for key in want:
            if got[key] != want[key]:
                return _first_difference(got[key], want[key], f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return _first_difference(a, b, f"{path}[{i}]")
    return f"{path}: {str(got)[:200]} != {str(want)[:200]}"


def check_scan_lemma_csv(path: Path, max_n: int, max_degree: int) -> list[str]:
    """Every row of `scan --which lemma --format csv`, in canonical order."""
    table = ref.ChiTable(max_n)
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        if next(reader, None) != LEMMA_HEADER:
            return ["CSV header differs"]
        count = 0
        for (n, degrees), row in zip(ref.scan_types(max_n, max_degree), reader):
            inv = ref.invariants(n, degrees, table)
            want = [str(n), _cell(degrees), str(inv.dimension), str(inv.betti),
                    ref.gauss_text(inv.at_i), ref.lemma_case(inv)]
            if row != want:
                return [f"row {count + 1}: {row} != {want}"]
            count += 1
        extra = sum(1 for _ in reader)
    expected = sum(1 for _ in ref.scan_types(max_n, max_degree))
    if count != expected or extra:
        return [f"{count + extra} rows, expected {expected}"]
    return []


def check_scan_theorem_json(path: Path, max_n: int, max_degree: int) -> list[str]:
    """Every record, the counts and the empty violation list of
    `scan --which theorem --format json`."""
    with open(path, "rb") as stream:
        try:
            doc = json.load(stream)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
    try:
        (scan,) = doc["scans"]
        records = scan["records"]
    except (KeyError, TypeError, ValueError):
        return ["JSON document does not hold exactly one scan with records"]
    table = ref.ChiTable(max_n)
    tally: Counter[str] = Counter()
    for count, ((n, degrees), got) in enumerate(zip(ref.scan_types(max_n, max_degree), records)):
        v = ref.verdict(n, degrees, table)
        tally[v.kind] += 1
        want = {
            "n": str(n),
            "degrees": [str(d) for d in degrees],
            "dimension": str(n - len(degrees)),
            "total_degree": str(sum(degrees)),
            "verdict": v.kind,
            "p_x_at_i": ref.gauss_json(v.x.at_i if v.x else None),
            "p_f_at_i": ref.gauss_json(v.fiber.at_i if v.fiber else None),
        }
        if got != want:
            return [f"record {count + 1}: {_first_difference(got, want)}"]
    expected = sum(1 for _ in ref.scan_types(max_n, max_degree))
    if len(records) != expected:
        return [f"{len(records)} records, expected {expected}"]
    header = {key: scan.get(key) for key in ("scan", "max_n", "max_degree", "types", "counts",
                                             "violations")}
    want_header = {"scan": "theorem", "max_n": str(max_n), "max_degree": str(max_degree),
                   "types": str(expected), "counts": {k: str(tally[k]) for k in VERDICT_KINDS},
                   "violations": []}
    if header != want_header:
        return [f"scan header differs: {_first_difference(header, want_header)}"]
    return []
