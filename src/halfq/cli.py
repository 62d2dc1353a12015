"""Command-line interface.

Subcommands mirror the library surface: expression handling (``parse``,
``halfquantize``, ``evolve``, ``jacobi-demo``), classicality
(``certify``), prediction bounds (``bounds``, ``constants``), and the
full-quantum verification experiment (``verify``).  ``parse``,
``halfquantize`` and ``jacobi-demo`` run on the exact layer alone
(:mod:`halfq.algebra`, :mod:`halfq.grammar`); the other commands import
:mod:`halfq.experiment`, and with it numpy, when they run.  Every command prints
human-readable text; ``--json`` (one line of JSON with sorted keys) /
``--csv`` switch to machine output and ``--out`` writes the ``--csv`` table
to a file.

Exit codes: 0 success; 1 a failed verification or certificate, or an
``error:`` line for a bad expression, config or file; 2 malformed usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import TYPE_CHECKING

from .algebra import (
    AlgebraError,
    NonTerminatingSeriesError,
    System,
    half_quantize,
    jacobiator,
)
from .grammar import format_expression, parse_expression, parse_symbol

if TYPE_CHECKING:
    from .experiment import SystemConfig

# the first mixed monomial triple (by total degree, then enumeration order)
# whose jacobiator does not vanish; found by find_jacobiator_witness over
# monomials of degree <= 3 in q1, p1, Q1, P1 (jacobiator = hbar^4/2)
JACOBI_WITNESS = ("p1*P1", "p1*Q1*P1", "q1^2*Q1")


def _system_arg(text: str) -> System:
    try:
        m, n = (int(x) for x in text.split(","))
        return System(m, n)
    except Exception as exc:
        raise argparse.ArgumentTypeError(
            f"system must look like M,N (got {text!r})"
        ) from exc


def _constants_arg(text: str) -> tuple:
    """Comma-separated constant names, each stripped of spaces; the parser
    refuses a name left empty."""
    return tuple(name.strip() for name in text.split(",")) if text else ()


def _load_config(args) -> SystemConfig:
    """The config of ``--config``, else the example; a value the exact layer
    reads as 0 is named on stderr."""
    from .experiment import SystemConfig, build_example, exact_zero_note

    if args.config is None:
        cfg = build_example()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = SystemConfig.from_json(fh.read())
    note = exact_zero_note(cfg)
    if note:
        print(f"note: {note}", file=sys.stderr)
    return cfg


def _emit(args, payload: dict, text: str, table=None) -> None:
    """Print ``table`` (a header row, then rows) as CSV under ``--csv``,
    else ``payload`` as JSON under ``--json``, else ``text``; ``--out``
    also writes ``table`` to a CSV file."""
    if table is not None and args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
    if table is not None and args.csv:
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    elif args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        print(text)


# --------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    expr = parse_expression(args.expression, args.system, args.constants)
    _emit(
        args,
        {"canonical": format_expression(expr), "terms": len(expr.terms())},
        format_expression(expr),
    )
    return 0


def cmd_halfquantize(args) -> int:
    m, n = args.split.classical, args.split.quantum
    classical = parse_expression(args.expression, System(m + n, 0), args.constants)
    hybrid = half_quantize(classical, (m, n))
    _emit(args, {"hybrid": format_expression(hybrid)}, format_expression(hybrid))
    return 0


def cmd_evolve(args) -> int:
    from .experiment import hybrid_solutions

    cfg = _load_config(args)
    sols = hybrid_solutions(cfg)
    try:
        # read as the config reads names: Q01 is Q1
        chosen = [parse_symbol(args.observable)] if args.observable else list(sols)
    except AlgebraError:
        chosen = [None]
    if chosen[0] not in sols:
        names = ", ".join(sym.name for sym in sols)
        print(f"error: unknown observable {args.observable!r}; choose from {names}",
              file=sys.stderr)
        return 2
    payload = {sym.name: format_expression(sols[sym]) for sym in chosen}
    lines = [f"{name}(t) = {text}" for name, text in payload.items()]
    _emit(args, {"solutions": payload}, "\n".join(lines))
    return 0


def cmd_certify(args) -> int:
    from .experiment import certificates, hybrid_solutions

    cfg = _load_config(args)
    certs = certificates(cfg, hybrid_solutions(cfg))
    lines = []
    for L, cert in certs.items():
        lines.append(f"order L={L}: {'pass' if cert.passed else 'FAIL'}")
        for row in cert.rows:
            lines.append(
                f"  ({','.join(row.sequence)}): <E|E>={row.lhs:.6g} "
                f"bound={row.rhs:.6g} slack={row.slack:.6g}"
            )
    results = {str(L): cert.to_json_dict() for L, cert in certs.items()}
    _emit(args, {"certificates": results}, "\n".join(lines))
    return 0 if all(cert.passed for cert in certs.values()) else 1


def cmd_bounds(args) -> int:
    from .experiment import certificates, hybrid_solutions, sandwich_sweep

    cfg = _load_config(args)
    sols = hybrid_solutions(cfg)
    failed = [L for L, cert in certificates(cfg, sols).items() if not cert.passed]
    rows = [
        point.row_dict(pb)
        for point in sandwich_sweep(cfg, sols, cfg.levels)
        for pb in point.rows
    ]
    header = ["observable", "t", "L", "p", "width_multiplier", "lower", "upper"]
    text = "\n".join(
        f"{r['observable']:>3} t={r['t']:<5g} L={r['L']} p={r['p']:<7g} "
        f"D={r['width_multiplier']}x "
        f"delta={r['delta_L']:.4g} Delta={r['Delta_L']:.4g} "
        f"[{r['lower']:+.4f}, {r['upper']:+.4f}]"
        for r in rows
    )
    _emit(args, {"rows": rows}, text, [header] + [[r[k] for k in header] for r in rows])
    if failed:
        orders = ", ".join(f"L={L}" for L in failed)
        print(
            f"classicality certificate fails at {orders}: the bounds at "
            "those orders do not apply",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_constants(args) -> int:
    from .experiment import reference_constants

    rows = reference_constants()
    text = "\n".join(
        f"L={row['L']:<3d} p={row['p']:<8g} worst error={row['worst_error']:.6f} "
        f"leakage={row['leakage']:.6g} widening={row['widening_over_delta']:.4f}"
        for row in rows
    )
    _emit(args, {"rows": rows}, text)
    return 0


def cmd_jacobi_demo(args) -> int:
    system = System(1, 1)
    a, b, c = (parse_expression(text, system) for text in JACOBI_WITNESS)
    j = jacobiator(a, b, c)
    payload = {
        "A": JACOBI_WITNESS[0],
        "B": JACOBI_WITNESS[1],
        "C": JACOBI_WITNESS[2],
        "jacobiator": format_expression(j),
        "nonzero": not j.is_zero,
    }
    text = (
        f"A = {payload['A']}\nB = {payload['B']}\nC = {payload['C']}\n"
        f"(A,(B,C)) + (B,(C,A)) + (C,(A,B)) = {payload['jacobiator']}"
    )
    _emit(args, payload, text)
    return 0 if payload["nonzero"] else 1


def cmd_verify(args) -> int:
    from .experiment import run_verification

    cfg = _load_config(args)
    progress = None if args.quiet else (lambda msg: print(f"  .. {msg}", file=sys.stderr))
    report = run_verification(cfg, deep=not args.shallow, progress=progress)
    gap = "not measured" if report.ehrenfest is None else f"{report.ehrenfest:.3e}"
    lines = [f"status: {report.status}", f"ehrenfest gap: {gap}"]
    for level, cert in sorted(report.certificates.items()):
        lines.append(f"certificate L={level}: {cert['verdict']}")
    n_bad = sum(1 for r in report.rows if r["verdict"] != "pass")
    lines.append(f"sandwich rows: {len(report.rows)} ({n_bad} violations)")
    for kind in ("X1", "X2"):
        rows = [r for r in report.leakage_rows if r["which"] == kind]
        bad = sum(1 for r in rows if r["verdict"] != "pass")
        lines.append(f"{kind} leakage rows: {len(rows)} ({bad} over bound)")
    n_bad_disc = sum(1 for r in report.discrepancy_rows if r["verdict"] != "pass")
    lines.append(
        f"discrepancy rows: {len(report.discrepancy_rows)} ({n_bad_disc} violations)"
    )
    lines += [f"note: {note}" for note in report.notes]
    _emit(args, report.to_json_dict(), "\n".join(lines), report.csv_rows())
    if report.status == "pass":
        return 0
    return 1


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfq",
        description="Half-quantum dynamics: symbolic hybrid evolution, "
        "classicality certification, and verified probability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of an expression")
    p.add_argument("expression")
    p.add_argument("--system", type=_system_arg, default=System(1, 1),
                   help="M,N DOF counts (default 1,1)")
    p.add_argument("--constants", type=_constants_arg, default="",
                   help="comma-separated constant names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("halfquantize", help="half-quantize a classical observable")
    p.add_argument("expression", help="classical expression over M+N DOFs")
    p.add_argument("--split", type=_system_arg, required=True,
                   help="M,N: first M DOFs stay classical")
    p.add_argument("--constants", type=_constants_arg, default="",
                   help="comma-separated constant names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_halfquantize)

    p = sub.add_parser("evolve", help="hybrid-bracket series solutions O(t)")
    p.add_argument("--config", default=None, help="config JSON (default: example)")
    p.add_argument("--observable", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("certify", help="classicality certificate of the classical factor")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", help="half-quantum prediction bounds (no oracle)")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV rows on stdout")
    p.add_argument("--out", default=None,
                   help="write the observable, t, L, p, width_multiplier, lower, upper "
                   "table as CSV")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("constants", help="worst-case error constants")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("jacobi-demo", help="print a nonzero jacobiator witness")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jacobi_demo)

    p = sub.add_parser("verify", help="full-quantum verification experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true", help="sweep rows as CSV on stdout")
    p.add_argument("--out", default=None,
                   help="write the observable, L, p, width_multiplier, t, lower, oracle, "
                   "upper table as CSV")
    p.add_argument("--shallow", action="store_true",
                   help="skip the propagated leakage sectors and the "
                   "leakage and discrepancy rows")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NonTerminatingSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
