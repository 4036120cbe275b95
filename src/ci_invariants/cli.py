"""Command-line front end.

Subcommands: ``invariants``, ``classify``, ``fiber``, ``scan``,
``verify-identities``.  Output formats are ``table`` (human-readable),
``json`` (one document per invocation, all integers as decimal strings so
arbitrary precision survives any consumer), and ``csv`` (fixed header row).
Data goes to stdout (or ``--out`` for scans), diagnostics, the scan
summary included, to stderr.  A single-type document is rendered whole
before it is written, so a failing command writes nothing to stdout; scan
records are written one at a time by ``classify.write_scans``.

Exit codes: 0 success / clean scan, 1 assertion violation, 2 usage, parse
or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import reprlib
import sys

from .classify import (
    ScanReport,
    Verdict,
    _degree_cell,
    _is_homogeneous_shape,
    homogeneous_parity_report,
    lemma_classify,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
    write_scans,
)
from .exact import GaussianInteger, IntPolynomial
from .lines import fiber_type, line_geometry, product_obstruction
from .topology import (
    CIType,
    InternalCheckError,
    InvariantReport,
    chi22,
    compute_invariants,
    verify_expansion_identities,
)


#: The largest ``--n``; a larger value is a usage error, not a long hang.
MAX_N = 100_000

#: The largest ``verify-identities --max-k``.  ``--max-k 400`` takes about
#: 0.18 s wall (2-vCPU Xeon VM, Python 3.11.7), most of it start-up.  In
#: process the expansion identity takes 0.07 s and chi22 0.03 s at 400, and
#: 0.32 s and 0.17 s at 800: about 5-fold per doubling of k.
MAX_K = 400

#: The most types one ``scan`` may walk.  ``scan --max-n 20 --max-degree 6
#: --which both --format json`` walks 888,029 types in about 7.5 s, at a
#: peak RSS of 79 MB (2-vCPU Xeon VM, Python 3.11.7); the count grows as a
#: high power of both bounds, so a scan past this is a usage error, not a
#: hang.
MAX_SCAN_TYPES = 1_000_000

#: An integer argument: an optional minus sign and ASCII digits, nothing
#: else.  ``int()`` alone would also take "1_0", " 3" and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _bounded_int(low: int, high: int | None = None):
    """An argparse type: an integer >= low, and <= high when high is given."""
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"

    def parse(text: str) -> int:
        value = None
        if _INTEGER.fullmatch(text):
            try:
                value = int(text)
            except ValueError:  # more digits than int() converts
                pass
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                f"expected an integer {bounds}, got {reprlib.repr(text)}")
        return value
    return parse


_degree = _bounded_int(1)


def _type_spec(text: str) -> tuple[int, ...]:
    """Parse a comma-separated degree list; the empty string means no
    hypersurfaces at all (the ambient space)."""
    text = text.strip()
    if not text:
        return ()
    return tuple(_degree(part.strip()) for part in text.split(","))


def _gauss_json(g: GaussianInteger | None) -> dict[str, str] | None:
    if g is None:
        return None
    return {"re": str(g.re), "im": str(g.im)}


def _poly_json(p: IntPolynomial) -> list[str]:
    return [str(c) for c in p.coefficients]


def _type_json(ci: CIType) -> dict:
    return {
        "ambient_dim": str(ci.ambient_dim),
        "degrees": [str(d) for d in ci.degrees],
    }


def _report_json(report: InvariantReport) -> dict:
    """The JSON body of one type's invariants: the whole ``invariants``
    document, and the ``fiber`` object of the ``fiber`` document."""
    return {
        "type": _type_json(report.ci),
        "dimension": str(report.ci.dimension),
        "euler_characteristic": str(report.euler_char),
        "middle_betti": str(report.middle_betti),
        "poincare_coefficients": _poly_json(report.poincare),
        "value_at_i": _gauss_json(report.value_at_i),
    }


def _emit_csv(header: list[str], row: list[str]) -> None:
    # No cell holds a comma, a quote or a line break, so, as in
    # ``write_scans``, none needs quoting.
    sys.stdout.write(",".join(header) + "\n" + ",".join(row) + "\n")


def run_invariants(args) -> int:
    ci = CIType(args.n, args.type)
    report = compute_invariants(ci)
    if args.format == "json":
        print(json.dumps(_report_json(report), indent=2))
    elif args.format == "csv":
        _emit_csv(["n", "degrees", "dimension", "euler_characteristic",
                   "middle_betti", "poincare", "value_at_i"],
                  [str(ci.ambient_dim), _degree_cell(ci), str(ci.dimension),
                   str(report.euler_char), str(report.middle_betti),
                   " ".join(str(c) for c in report.poincare.coefficients),
                   str(report.value_at_i)])
    else:
        print(f"type: {ci}")
        print(f"dimension: {ci.dimension}")
        print(f"euler characteristic: {report.euler_char}")
        print(f"middle Betti number: {report.middle_betti}")
        print(f"Poincare polynomial: {report.poincare}")
        print(f"value at i: {report.value_at_i}")
    return 0


def run_classify(args) -> int:
    # The type's invariants and, when its fiber of lines exists, the product
    # obstruction are computed once and shared by every verdict below.
    ci = CIType(args.n, args.type)
    report = compute_invariants(ci)
    obstruction = None
    if ci.ambient_dim - 1 - ci.total_degree >= 0:
        obstruction = product_obstruction(ci, report)
    verdict = theorem_verdict(ci, obstruction)
    case = lemma_classify(ci, report)
    parity = None
    if obstruction is not None and _is_homogeneous_shape(ci):
        parity = homogeneous_parity_report(ci, obstruction)
    if args.format == "json":
        obj = {
            "type": _type_json(ci),
            "total_degree": str(ci.total_degree),
            "dimension": str(ci.dimension),
            "verdict": verdict.kind.value,
            "reason": verdict.reason,
            "p_x_at_i": _gauss_json(verdict.p_x_at_i),
            "p_f_at_i": _gauss_json(verdict.p_f_at_i),
            "lemma_case": case.value,
            "parity": None,
        }
        if parity is not None:
            obj["parity"] = {
                "p_x_at_i": _gauss_json(parity.p_x_at_i),
                "p_f_at_i": _gauss_json(parity.p_f_at_i),
                "x_vanishes": parity.x_vanishes,
                "f_vanishes": parity.f_vanishes,
            }
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        _emit_csv([*Verdict.CSV_HEADER, "lemma_case"], verdict.csv_row() + [case.value])
    else:
        print(f"type: {ci}")
        print(f"total degree: {ci.total_degree}")
        print(f"dimension: {ci.dimension}")
        print(f"verdict: {verdict.kind.value}")
        print(f"reason: {verdict.reason}")
        print(f"lemma case: {case.value}")
        if parity is not None:
            x_word = "vanishes" if parity.x_vanishes else "nonzero"
            f_word = "vanishes" if parity.f_vanishes else "nonzero"
            print(f"parity: p_X(i) = {parity.p_x_at_i} ({x_word}), "
                  f"p_F(i) = {parity.p_f_at_i} ({f_word})")
    return 0


def run_fiber(args) -> int:
    ci = CIType(args.n, args.type)
    geometry = line_geometry(ci)
    fiber = fiber_type(ci) if geometry.fiber_dim >= 0 else None
    fiber_report = compute_invariants(fiber) if fiber is not None else None
    if args.format == "json":
        obj = {
            "type": _type_json(ci),
            "moduli_dim": str(geometry.moduli_dim),
            "fiber_dim": str(geometry.fiber_dim),
            "normal_degree": str(geometry.normal_degree),
            "rationally_connected": geometry.rationally_connected,
            "fiber": None,
        }
        if fiber_report is not None:
            obj["fiber"] = _report_json(fiber_report)
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        row = [
            str(ci.ambient_dim),
            _degree_cell(ci),
            str(geometry.moduli_dim),
            str(geometry.fiber_dim),
            str(geometry.normal_degree),
            "true" if geometry.rationally_connected else "false",
        ]
        if fiber_report is not None:
            row.extend([
                _degree_cell(fiber),
                str(fiber_report.euler_char),
                str(fiber_report.middle_betti),
            ])
        else:
            row.extend(["-", "-", "-"])
        _emit_csv(["n", "degrees", "moduli_dim", "fiber_dim", "normal_degree",
                   "rationally_connected", "fiber_degrees", "fiber_euler",
                   "fiber_middle_betti"], row)
    else:
        print(f"type: {ci}")
        print(f"moduli dimension: {geometry.moduli_dim}")
        print(f"fiber dimension: {geometry.fiber_dim}")
        print(f"normal bundle degree: {geometry.normal_degree}")
        print(f"rationally connected: {'true' if geometry.rationally_connected else 'false'}")
        if fiber_report is not None:
            print(f"fiber type: {fiber}")
            print(f"fiber euler characteristic: {fiber_report.euler_char}")
            print(f"fiber middle Betti number: {fiber_report.middle_betti}")
            print(f"fiber Poincare polynomial: {fiber_report.poincare}")
            print(f"fiber value at i: {fiber_report.value_at_i}")
        else:
            print("fiber type: none (fiber dimension is negative)")
    return 0


def _scan_type_count(max_n: int, max_degree: int) -> int:
    """The number of types a scan walks, C(max_n + max_degree + 1, max_n) - 1,
    or MAX_SCAN_TYPES + 1 once it is known to be larger.  The binomial is a
    product whose partial values C(base + i, i) grow with i, so the count
    stops early instead of forming a huge binomial."""
    r = min(max_n, max_degree + 1)
    base = max_n + max_degree + 1 - r
    value = 1
    for i in range(1, r + 1):
        value = value * (base + i) // i
        if value - 1 > MAX_SCAN_TYPES:
            return MAX_SCAN_TYPES + 1
    return value - 1


def run_scan(args) -> int:
    # The size bound is checked and ``--out`` is opened before any scan
    # runs, so an oversized scan or an unwritable path fails at once and
    # creates no file; the summary is a diagnostic and goes to stderr.
    if _scan_type_count(args.max_n, args.max_degree) > MAX_SCAN_TYPES:
        raise ValueError(
            f"--max-n {args.max_n} --max-degree {args.max_degree} spans more "
            f"than MAX_SCAN_TYPES = {MAX_SCAN_TYPES:,} types")
    out_stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        reports: list[ScanReport] = []
        if args.which in ("theorem", "both"):
            reports.append(scan_theorem(args.max_n, args.max_degree))
        if args.which in ("lemma", "both"):
            reports.append(scan_lemma(args.max_n, args.max_degree))
        write_scans(reports, args.format, out_stream)
    finally:
        if args.out:
            out_stream.close()

    if not args.quiet:
        for report in reports:
            for text in report.summary_lines():
                print(text, file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def run_verify_identities(args) -> int:
    expansion_ok = True
    chi22_ok = True
    first_failure = None
    for k, holds in enumerate(verify_expansion_identities(args.max_k)):
        if not holds:
            expansion_ok = False
            first_failure = first_failure or f"expansion identity fails at k={k}"
        try:
            chi22(k)
        except InternalCheckError as exc:
            chi22_ok = False
            first_failure = first_failure or str(exc)
    ok = expansion_ok and chi22_ok
    if args.format == "json":
        print(json.dumps({
            "max_k": str(args.max_k),
            "expansion_identity_ok": expansion_ok,
            "chi22_closed_form_ok": chi22_ok,
        }, indent=2))
    else:
        print(f"checked k = 0 .. {args.max_k}")
        print(f"expansion identity: {'ok' if expansion_ok else 'FAILED'}")
        print(f"chi22 sum vs closed form: {'ok' if chi22_ok else 'FAILED'}")
    if not ok:
        print(f"error: {first_failure}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ci-invariants",
        description="Exact topological invariants and classification of "
                    "complete intersections in projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p):
        p.add_argument("--n", type=_bounded_int(0, MAX_N), required=True,
                       help=f"ambient projective dimension, at most {MAX_N}")
        p.add_argument("--type", type=_type_spec, default=(),
                       help="comma-separated degrees; empty or omitted means "
                            "the ambient space itself")
        p.add_argument("--format", choices=["table", "json", "csv"],
                       default="table")

    p_inv = sub.add_parser("invariants", help="Euler characteristic, middle "
                           "Betti number, Poincare polynomial, value at i")
    add_type_args(p_inv)
    p_inv.set_defaults(func=run_invariants)

    p_cls = sub.add_parser("classify", help="obstruction-pipeline verdict "
                           "for one type")
    add_type_args(p_cls)
    p_cls.set_defaults(func=run_classify)

    p_fib = sub.add_parser("fiber", help="line geometry and the fiber of "
                           "lines through a general point")
    add_type_args(p_fib)
    p_fib.set_defaults(func=run_fiber)

    p_scan = sub.add_parser("scan", help="exhaustively classify all types "
                            "within bounds and re-verify the classification")
    p_scan.add_argument("--max-n", type=_bounded_int(1), required=True)
    p_scan.add_argument("--max-degree", type=_bounded_int(1), required=True)
    p_scan.add_argument("--which", choices=["theorem", "lemma", "both"],
                        default="both")
    p_scan.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")
    p_scan.add_argument("--out", help="write records to this file instead of stdout")
    p_scan.add_argument("--quiet", action="store_true",
                        help="suppress the human summary on stderr")
    p_scan.set_defaults(func=run_scan)

    p_ver = sub.add_parser("verify-identities", help="check the expansion "
                           "identity and the chi22 closed form over a range")
    p_ver.add_argument("--max-k", type=_bounded_int(0, MAX_K), required=True,
                       help=f"check k = 0 .. MAX_K, at most {MAX_K}")
    p_ver.add_argument("--format", choices=["table", "json"], default="table")
    p_ver.set_defaults(func=run_verify_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The integers written are computed, not parsed: lift the int-to-str cap
    # (Python 3.10.7+, 3.11+) for the output.  Only a scan streams to stdout.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    buffer = io.StringIO()
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        with contextlib.redirect_stdout(sys.stdout if args.func is run_scan else buffer):
            code = args.func(args)
        sys.stdout.write(buffer.getvalue())
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    raise SystemExit(main())
