"""Command-line front end.

Subcommands: ``invariants``, ``classify``, ``fiber``, ``scan``,
``verify-identities``.  Output formats are ``table`` (human-readable),
``json`` (one document per invocation, all integers as decimal strings so
arbitrary precision survives any consumer), and ``csv`` (fixed header row).
Data goes to stdout (or ``--out`` for scans), diagnostics, the scan
summary included, to stderr.

``invariants``, ``classify`` and ``fiber`` each build their document once,
as a list of fields (label, key, column, value) with every value computed,
and ``_render`` is their one writer of all three formats.
``verify-identities`` writes its two formats by hand: its table lines are
not ``label: value`` pairs.  A single-type document is rendered whole
before it is written, so a failing command writes nothing to stdout; scan
rows are written in chunks of 128 by ``writer.write_scans``.  The
``classify`` module, and ``scan`` with its ``writer``, are imported inside
the subcommands that run them, and ``json`` inside the JSON writers, so a
call loads only the code that it runs.

Exit codes: 0 success / clean scan, 1 assertion violation, 2 usage, parse
or I/O error.  Writes to stderr are best-effort: a stderr that cannot be
written never changes the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import reprlib
import sys
from enum import Enum

from .lines import fiber_type, line_geometry
from .topology import (
    CIType,
    GaussianInteger,
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


def _term(j: int, c: int) -> str:
    """The term c t^j of a polynomial's text, for c > 0."""
    if j == 0:
        return str(c)
    power = "t" if j == 1 else f"t^{j}"
    return power if c == 1 else f"{c}{power}"


def _text(value) -> str:
    """A table value: a bool as ``true``/``false``, an Enum member as its
    value, and a plain tuple, a Poincare polynomial's coefficients, as the
    polynomial.  Those coefficients are >= 0, so the text needs no signs."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if type(value) is tuple:
        return " + ".join(_term(j, c) for j, c in enumerate(value) if c)
    return str(value)


def _cell(value) -> str:
    """A CSV cell: None as ``-``, a type as its degrees and a polynomial's
    coefficients space-joined."""
    if value is None:
        return "-"
    if isinstance(value, CIType):
        return " ".join(map(str, value.degrees))
    if type(value) is tuple:
        return " ".join(map(str, value))
    return _text(value)


def _json(value):
    """A JSON value: integers as decimal strings, a polynomial's coefficients
    as a list of them, and a nested field list as an object of the fields
    that have a key."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, CIType):
        return {"ambient_dim": str(value.ambient_dim),
                "degrees": [str(d) for d in value.degrees]}
    if isinstance(value, GaussianInteger):
        return {"re": str(value.re), "im": str(value.im)}
    if type(value) is tuple:
        return [str(c) for c in value]
    if isinstance(value, list):
        return {key: _json(v) for _, key, _, v in value if key is not None}
    return _text(value)


def _render(fmt: str, fields: list[tuple]) -> None:
    """Write one single-type document, a list of fields (label, key, column,
    value), to stdout in one write: ``value`` under ``label`` in the table,
    under ``key`` in JSON and under ``column`` in CSV; a None name leaves
    the field out of that format."""
    if fmt == "json":
        import json

        text = json.dumps(_json(fields), indent=2)
    elif fmt == "csv":
        # No cell holds a comma, a quote or a line break, so, as in
        # ``write_scans``, none needs quoting.
        cells = [(column, value) for _, _, column, value in fields if column is not None]
        text = (",".join(column for column, _ in cells) + "\n"
                + ",".join(_cell(value) for _, value in cells))
    else:
        text = "\n".join(f"{label}: {_text(value)}"
                         for label, _, _, value in fields if label is not None)
    sys.stdout.write(text + "\n")


def _invariant_fields(report: InvariantReport, poincare: tuple[int, ...]) -> list[tuple]:
    """One type's invariants: the whole ``invariants`` document, and the
    ``fiber`` object of the ``fiber`` document.  ``poincare`` is
    ``report.poincare``, which is built on each read, so a document reads
    it once."""
    ci = report.ci
    return [
        (None, None, "n", ci.ambient_dim),
        ("type", "type", "degrees", ci),
        ("dimension", "dimension", "dimension", ci.dimension),
        ("euler characteristic", "euler_characteristic", "euler_characteristic",
         report.euler_char),
        ("middle Betti number", "middle_betti", "middle_betti", report.middle_betti),
        ("Poincare polynomial", "poincare_coefficients", "poincare", poincare),
        ("value at i", "value_at_i", "value_at_i", report.value_at_i),
    ]


def _warn(text: str) -> None:
    """Write one diagnostic line to stderr, best-effort: a failed write is
    dropped, so it never changes the exit code."""
    with contextlib.suppress(OSError):
        print(text, file=sys.stderr)


def run_invariants(args) -> int:
    report = compute_invariants(CIType(args.n, args.type))
    _render(args.format, _invariant_fields(report, report.poincare))
    return 0


def run_classify(args) -> int:
    from .classify import VerdictKind, lemma_classify, theorem_verdict

    # The type's invariants are computed once and shared by every verdict below.
    ci = CIType(args.n, args.type)
    report = compute_invariants(ci)
    verdict = theorem_verdict(ci, report)
    fields = [
        (None, None, "n", ci.ambient_dim),
        ("type", "type", "degrees", ci),
        ("total degree", "total_degree", "total_degree", ci.total_degree),
        ("dimension", "dimension", "dimension", ci.dimension),
        ("verdict", "verdict", "verdict", verdict.kind),
        ("reason", "reason", None, verdict.reason),
        (None, "p_x_at_i", "p_x_at_i", verdict.p_x_at_i),
        (None, "p_f_at_i", "p_f_at_i", verdict.p_f_at_i),
        ("lemma case", "lemma_case", "lemma_case", lemma_classify(ci, report)),
    ]
    parity = None
    if verdict.kind in (VerdictKind.HOMOGENEOUS_LINEAR, VerdictKind.HOMOGENEOUS_QUADRIC):
        # ``theorem_verdict`` has checked these values' parity pattern.
        p_x, p_f = verdict.p_x_at_i, verdict.p_f_at_i
        x_word = "vanishes" if p_x.is_zero else "nonzero"
        f_word = "vanishes" if p_f.is_zero else "nonzero"
        fields.append(("parity", None, None,
                       f"p_X(i) = {p_x} ({x_word}), p_F(i) = {p_f} ({f_word})"))
        parity = [
            (None, "p_x_at_i", None, p_x),
            (None, "p_f_at_i", None, p_f),
            (None, "x_vanishes", None, p_x.is_zero),
            (None, "f_vanishes", None, p_f.is_zero),
        ]
    fields.append((None, "parity", None, parity))
    _render(args.format, fields)
    return 0


def run_fiber(args) -> int:
    ci = CIType(args.n, args.type)
    geometry = line_geometry(ci)
    fields = [
        (None, None, "n", ci.ambient_dim),
        ("type", "type", "degrees", ci),
        ("moduli dimension", "moduli_dim", "moduli_dim", geometry.moduli_dim),
        ("fiber dimension", "fiber_dim", "fiber_dim", geometry.fiber_dim),
        ("normal bundle degree", "normal_degree", "normal_degree", geometry.normal_degree),
        ("rationally connected", "rationally_connected", "rationally_connected",
         geometry.rationally_connected),
    ]
    if geometry.fiber_dim < 0:
        fields += [
            ("fiber type", None, None, "none (fiber dimension is negative)"),
            (None, None, "fiber_degrees", None),
            (None, None, "fiber_euler", None),
            (None, None, "fiber_middle_betti", None),
            (None, "fiber", None, None),
        ]
    else:
        report = compute_invariants(fiber_type(ci))
        poincare = report.poincare
        fields += [
            ("fiber type", None, "fiber_degrees", report.ci),
            ("fiber euler characteristic", None, "fiber_euler", report.euler_char),
            ("fiber middle Betti number", None, "fiber_middle_betti", report.middle_betti),
            ("fiber Poincare polynomial", None, None, poincare),
            ("fiber value at i", None, None, report.value_at_i),
            (None, "fiber", None, _invariant_fields(report, poincare)),
        ]
    _render(args.format, fields)
    return 0


def run_scan(args) -> int:
    from .scan import _check_scan, scan_lemma, scan_theorem
    from .writer import write_scans

    # The size bound is checked and ``--out`` is opened before any scan
    # runs, so an oversized scan or an unwritable path fails at once and
    # creates no file; the summary is a diagnostic and goes to stderr.
    _check_scan(args.max_n, args.max_degree)
    out_stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        reports = []
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
                _warn(text)
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
        import json

        text = json.dumps({
            "max_k": str(args.max_k),
            "expansion_identity_ok": expansion_ok,
            "chi22_closed_form_ok": chi22_ok,
        }, indent=2)
    else:
        text = (f"checked k = 0 .. {args.max_k}\n"
                f"expansion identity: {'ok' if expansion_ok else 'FAILED'}\n"
                f"chi22 sum vs closed form: {'ok' if chi22_ok else 'FAILED'}")
    sys.stdout.write(text + "\n")
    if not ok:
        _warn(f"error: {first_failure}")
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
    # for the output.
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        return args.func(args)
    except (ValueError, OSError) as exc:
        _warn(f"error: {exc}")
        return 2
    except InternalCheckError as exc:
        _warn(f"internal check failed: {exc}")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def entry() -> None:
    raise SystemExit(main())
