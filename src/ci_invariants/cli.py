"""Command-line front end.

Subcommands: ``invariants``, ``classify``, ``fiber``, ``scan``,
``verify-identities``.  Output formats are ``table`` (human-readable),
``json`` (one document per invocation, all integers as decimal strings so
arbitrary precision survives any consumer), and ``csv`` (fixed header row).
Data goes to stdout (or ``--out`` for scans), diagnostics to stderr.

Exit codes: 0 success / clean scan, 1 assertion violation, 2 usage, parse
or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable

from .classify import (
    ScanReport,
    homogeneous_parity_report,
    lemma_classify,
    scan_lemma,
    scan_theorem,
    theorem_verdict,
)
from .exact import GaussianInteger, IntPolynomial
from .lines import fiber_type, line_geometry
from .topology import CIType, InternalCheckError, chi22, compute_invariants, verify_expansion_identity


def _type_spec(text: str) -> tuple[int, ...]:
    """Parse a comma-separated degree list; the empty string means no
    hypersurfaces at all (the ambient space)."""
    text = text.strip()
    if not text:
        return ()
    degrees = []
    for part in text.split(","):
        part = part.strip()
        try:
            value = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"degree {part!r} is not an integer")
        if value < 1:
            raise argparse.ArgumentTypeError(f"degrees must be >= 1, got {value}")
        degrees.append(value)
    return tuple(degrees)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


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


def _degrees_cell(ci: CIType) -> str:
    return " ".join(str(d) for d in ci.degrees)


def _emit_csv(header: list[str], rows: Iterable[list[str]], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def run_invariants(args) -> int:
    ci = CIType(args.n, args.type)
    report = compute_invariants(ci)
    if args.format == "json":
        _print_json(
            {
                "type": _type_json(ci),
                "dimension": str(report.dimension),
                "euler_characteristic": str(report.euler_char),
                "middle_betti": str(report.middle_betti),
                "poincare_coefficients": _poly_json(report.poincare),
                "value_at_i": _gauss_json(report.value_at_i),
            },
            sys.stdout,
        )
    elif args.format == "csv":
        _emit_csv(
            ["n", "degrees", "dimension", "euler_characteristic",
             "middle_betti", "poincare", "value_at_i"],
            [[
                str(ci.ambient_dim),
                _degrees_cell(ci),
                str(report.dimension),
                str(report.euler_char),
                str(report.middle_betti),
                " ".join(str(c) for c in report.poincare.coefficients),
                str(report.value_at_i),
            ]],
            sys.stdout,
        )
    else:
        print(f"type: {ci}")
        print(f"dimension: {report.dimension}")
        print(f"euler characteristic: {report.euler_char}")
        print(f"middle Betti number: {report.middle_betti}")
        print(f"Poincare polynomial: {report.poincare}")
        print(f"value at i: {report.value_at_i}")
    return 0


def run_classify(args) -> int:
    ci = CIType(args.n, args.type)
    verdict = theorem_verdict(ci)
    case = lemma_classify(ci)
    parity = None
    homogeneous = tuple(d for d in ci.degrees if d > 1) in ((), (2,))
    if homogeneous and ci.ambient_dim - 1 - ci.total_degree >= 0:
        parity = homogeneous_parity_report(ci)
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
        _print_json(obj, sys.stdout)
    elif args.format == "csv":
        _emit_csv(
            ["n", "degrees", "total_degree", "dimension", "verdict",
             "p_x_at_i", "p_f_at_i", "lemma_case"],
            [[
                str(ci.ambient_dim),
                _degrees_cell(ci),
                str(ci.total_degree),
                str(ci.dimension),
                verdict.kind.value,
                str(verdict.p_x_at_i) if verdict.p_x_at_i is not None else "-",
                str(verdict.p_f_at_i) if verdict.p_f_at_i is not None else "-",
                case.value,
            ]],
            sys.stdout,
        )
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
            obj["fiber"] = {
                "type": _type_json(fiber),
                "dimension": str(fiber_report.dimension),
                "euler_characteristic": str(fiber_report.euler_char),
                "middle_betti": str(fiber_report.middle_betti),
                "poincare_coefficients": _poly_json(fiber_report.poincare),
                "value_at_i": _gauss_json(fiber_report.value_at_i),
            }
        _print_json(obj, sys.stdout)
    elif args.format == "csv":
        row = [
            str(ci.ambient_dim),
            _degrees_cell(ci),
            str(geometry.moduli_dim),
            str(geometry.fiber_dim),
            str(geometry.normal_degree),
            "true" if geometry.rationally_connected else "false",
        ]
        if fiber_report is not None:
            row.extend([
                _degrees_cell(fiber),
                str(fiber_report.euler_char),
                str(fiber_report.middle_betti),
            ])
        else:
            row.extend(["-", "-", "-"])
        _emit_csv(
            ["n", "degrees", "moduli_dim", "fiber_dim", "normal_degree",
             "rationally_connected", "fiber_degrees", "fiber_euler",
             "fiber_middle_betti"],
            [row],
            sys.stdout,
        )
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


def _scan_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("CI_INVARIANTS_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"CI_INVARIANTS_THREADS={env!r} is not an integer")
        if cap < 1:
            raise ValueError("CI_INVARIANTS_THREADS must be >= 1")
        return cap
    return os.cpu_count() or 1


def run_scan(args) -> int:
    threads = _scan_threads(args)
    reports: list[ScanReport] = []
    if args.which in ("theorem", "both"):
        reports.append(scan_theorem(args.max_n, args.max_degree, threads=threads))
    if args.which in ("lemma", "both"):
        reports.append(scan_lemma(args.max_n, args.max_degree, threads=threads))

    out_stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if args.format == "json":
            _print_json({"scans": [r.to_json_obj() for r in reports]}, out_stream)
        elif args.format == "csv":
            for idx, report in enumerate(reports):
                if idx:
                    out_stream.write("\n")
                _emit_csv(report.csv_header(), report.csv_rows(), out_stream)
        else:
            for report in reports:
                for text in report.record_lines():
                    out_stream.write(text + "\n")
    finally:
        if args.out:
            out_stream.close()

    if not args.quiet:
        for report in reports:
            for text in report.summary_lines():
                print(text)
    return 0 if all(r.ok for r in reports) else 1


def run_verify_identities(args) -> int:
    expansion_ok = True
    chi22_ok = True
    first_failure = None
    for k in range(args.max_k + 1):
        if not verify_expansion_identity(k):
            expansion_ok = False
            first_failure = first_failure or f"expansion identity fails at k={k}"
        try:
            chi22(k)
        except InternalCheckError as exc:
            chi22_ok = False
            first_failure = first_failure or str(exc)
    ok = expansion_ok and chi22_ok
    if args.format == "json":
        _print_json(
            {
                "max_k": str(args.max_k),
                "expansion_identity_ok": expansion_ok,
                "chi22_closed_form_ok": chi22_ok,
            },
            sys.stdout,
        )
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
        p.add_argument("--n", type=_nonnegative_int, required=True,
                       help="ambient projective dimension")
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
    p_scan.add_argument("--max-n", type=_positive_int, required=True)
    p_scan.add_argument("--max-degree", type=_positive_int, required=True)
    p_scan.add_argument("--which", choices=["theorem", "lemma", "both"],
                        default="both")
    p_scan.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")
    p_scan.add_argument("--out", help="write records to this file instead of stdout")
    p_scan.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads (default: CI_INVARIANTS_THREADS "
                             "or machine parallelism)")
    p_scan.add_argument("--quiet", action="store_true",
                        help="suppress the human summary")
    p_scan.set_defaults(func=run_scan)

    p_ver = sub.add_parser("verify-identities", help="check the expansion "
                           "identity and the chi22 closed form over a range")
    p_ver.add_argument("--max-k", type=_nonnegative_int, required=True)
    p_ver.add_argument("--format", choices=["table", "json"], default="table")
    p_ver.set_defaults(func=run_verify_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
