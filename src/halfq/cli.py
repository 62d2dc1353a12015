"""Command-line interface.

Subcommands mirror the library surface: expression handling (``parse``,
``halfquantize``, ``evolve``, ``jacobi-demo``), classicality
(``certify``), prediction bounds (``bounds``, ``constants``), and the
full-quantum verification experiment (``verify``).  Every command prints
human-readable text; ``--json`` / ``--csv`` switch to machine output and
``--out`` writes a plot-ready CSV.

Exit codes: 0 success, 1 verification/certification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .algebra import (
    System,
    half_quantize,
    jacobiator,
)
from .bounds import (
    BoundConfig,
    HybridObservable,
    delta_L_margin,
    prediction_bounds,
    spread_Delta_L,
)
from .classicality import certify, classicality_sequences
from .experiment import (
    SystemConfig,
    build_example,
    constants_check,
    hybrid_solutions,
    run_verification,
)
from .grammar import format_expression, parse_expression

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


def _load_config(args) -> SystemConfig:
    if args.config is None:
        return build_example()
    with open(args.config, "r", encoding="utf-8") as fh:
        return SystemConfig.from_json(fh.read())


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


# --------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    constants = tuple(args.constants.split(",")) if args.constants else ()
    expr = parse_expression(args.expression, args.system, constants)
    _emit(
        args,
        {"canonical": format_expression(expr), "terms": len(expr.terms())},
        format_expression(expr),
    )
    return 0


def cmd_halfquantize(args) -> int:
    m, n = args.split.classical, args.split.quantum
    constants = tuple(args.constants.split(",")) if args.constants else ()
    classical = parse_expression(args.expression, System(m + n, 0), constants)
    hybrid = half_quantize(classical, (m, n))
    _emit(args, {"hybrid": format_expression(hybrid)}, format_expression(hybrid))
    return 0


def cmd_evolve(args) -> int:
    cfg = _load_config(args)
    sols = hybrid_solutions(cfg)
    names = [args.observable] if args.observable else list(sols)
    payload = {}
    lines = []
    for name in names:
        if name not in sols:
            print(f"unknown observable {name!r}", file=sys.stderr)
            return 2
        text = format_expression(sols[name])
        payload[name] = text
        lines.append(f"{name}(t) = {text}")
    _emit(args, {"solutions": payload}, "\n".join(lines))
    return 0


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    sols = hybrid_solutions(cfg)
    sequences = classicality_sequences(sols.values(), cfg.system.classical)
    phi_c = cfg.classical_factor()
    results = {}
    all_pass = True
    lines = []
    for L in cfg.levels:
        cert = certify(phi_c, cfg.classical_data, L, sequences, cfg.hbar)
        results[str(L)] = cert.to_json_dict()
        all_pass = all_pass and cert.passed
        lines.append(f"order L={L}: {'pass' if cert.passed else 'FAIL'}")
        for row in cert.rows:
            lines.append(
                f"  ({','.join(row.sequence)}): <E|E>={row.lhs:.6g} "
                f"bound={row.rhs:.6g} slack={row.slack:.6g}"
            )
    _emit(args, {"certificates": results}, "\n".join(lines))
    return 0 if all_pass else 1


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    sols = hybrid_solutions(cfg)
    phi_q = cfg.quantum_factor()
    quantum_grid_map = {a: g for a, g in enumerate(cfg.quantum_grids, start=1)}
    rows = []
    for name in cfg.sweep.observables:
        sol = sols[name]
        for t in cfg.sweep.times:
            subs = {c: Fraction(v).limit_denominator(10**12) for c, v in cfg.constants.items()}
            subs["t"] = Fraction(t).limit_denominator(10**12)
            observable = HybridObservable(
                sol.substitute_constants(subs), cfg.classical_data,
                quantum_grid_map, cfg.hbar, {},
            )
            b = observable.matrix()
            a0 = float(b.expectation(phi_q).real)
            for L in cfg.levels:
                margin = delta_L_margin(observable, phi_q, L)
                for p in cfg.probabilities:
                    bc = BoundConfig(L, p, cfg.I_B)
                    big = spread_Delta_L(margin.total, bc)
                    for mult in cfg.sweep.width_multipliers:
                        D = mult * big if big > 0 else mult
                        pb = prediction_bounds(
                            observable, phi_q, bc, (a0 - D, a0 + D), margin=margin
                        )
                        row = pb.to_json_dict()
                        row.update(
                            {"observable": name, "t": t, "a0": a0,
                             "width_multiplier": mult}
                        )
                        rows.append(row)
    header = ["observable", "t", "L", "p", "width_multiplier", "lower", "upper"]
    table = [header] + [[r[k] for k in header] for r in rows]
    if args.out:
        _write_csv(args.out, table)
    if args.csv:
        for row in table:
            print(",".join(str(x) for x in row))
    elif args.json:
        print(json.dumps({"rows": rows}, indent=2, sort_keys=True))
    else:
        for r in rows:
            print(
                f"{r['observable']:>3} t={r['t']:<5g} L={r['L']} p={r['p']:<7g} "
                f"D={r['width_multiplier']}x "
                f"delta={r['delta_L']:.4g} Delta={r['Delta_L']:.4g} "
                f"[{r['lower']:+.4f}, {r['upper']:+.4f}]"
            )
    return 0


def cmd_constants(args) -> int:
    rows = constants_check()
    if args.json:
        print(json.dumps({"rows": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(
                f"L={row['L']:<3d} p={row['p']:<8g} worst error={row['worst_error']:.6f} "
                f"leakage={row['leakage']:.6g} widening={row['widening_over_delta']:.4f} "
                f"{'ok' if row['ok'] else 'MISMATCH'}"
            )
    return 0 if all(r["ok"] for r in rows) else 1


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
    cfg = _load_config(args)
    progress = None if args.quiet else (lambda msg: print(f"  .. {msg}", file=sys.stderr))
    report = run_verification(cfg, deep=not args.shallow, progress=progress)
    if args.out:
        _write_csv(args.out, report.csv_rows())
    if args.csv:
        for row in report.csv_rows():
            print(",".join(str(x) for x in row))
    elif args.json:
        print(report.to_json())
    else:
        print(f"status: {report.status}")
        print(f"ehrenfest gap: {report.ehrenfest:.3e}")
        for level, cert in sorted(report.certificates.items()):
            print(f"certificate L={level}: {cert['verdict']}")
        n_bad = sum(1 for r in report.rows if r["verdict"] != "pass")
        print(f"sandwich rows: {len(report.rows)} ({n_bad} violations)")
        for kind in ("X1", "X2"):
            rows = [r for r in report.leakage_rows if r["which"] == kind]
            bad = sum(1 for r in rows if r["verdict"] != "pass")
            print(f"{kind} leakage rows: {len(rows)} ({bad} over bound)")
        n_bad_disc = sum(
            1 for r in report.discrepancy_rows if r["verdict"] != "pass"
        )
        print(
            f"discrepancy rows: {len(report.discrepancy_rows)} ({n_bad_disc} violations)"
        )
        for note in report.notes:
            print(f"note: {note}")
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
    p.add_argument("--constants", default="", help="comma-separated constant names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("halfquantize", help="half-quantize a classical observable")
    p.add_argument("expression", help="classical expression over M+N DOFs")
    p.add_argument("--split", type=_system_arg, required=True,
                   help="M,N: first M DOFs stay classical")
    p.add_argument("--constants", default="")
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
    p.add_argument("--out", default=None, help="write rows as CSV")
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
    p.add_argument("--out", default=None, help="write (t, lower, oracle, upper) CSV")
    p.add_argument("--shallow", action="store_true",
                   help="skip leakage/discrepancy spectral sums")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
