"""One benchmark process: set up, run one job, check its outputs, report.

``run.py`` starts this script in a fresh interpreter for every sample:

    python3 worker.py --root ROOT --workload NAME --input PATH
                      [--setup-only] [--trace] [--compare-reference]
                      [--write-reference PATH]

Set-up is importing halfq from ``ROOT/src`` and loading and validating the
generated input; the script prints ``READY`` on stdout when it is done,
and ``run.py`` times set-up up to that line.  The job then goes through
the program's stable entry points (``halfq.cli.main`` with the generated
config file, or library calls for the exact algebra), and the last line
of stdout is one JSON object with the job's wall time, peak RSS,
operation counts and, with ``--trace``, the per-layer counters.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from workloads import CheckFailure


def _import_halfq(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import halfq
    import halfq.cli

    if Path(halfq.__file__).resolve().parent != (src / "halfq").resolve():
        raise ImportError(f"halfq imported from {halfq.__file__}, not from {src}")
    return halfq


def _validate_config(text: str) -> None:
    """Load a config and check that its packets fit the grids and sit inside
    the Gaussian certificate window of every level."""
    from halfq.classicality import gaussian_feasibility
    from halfq.experiment import SystemConfig

    cfg = SystemConfig.from_json(text)
    for dof, spec in enumerate(cfg.classical_state, start=1):
        for level in cfg.levels:
            window = gaussian_feasibility(cfg.classical_data, level, cfg.hbar, dof)
            if not (window.feasible and window.lower <= spec.dq <= window.upper):
                raise ValueError(
                    f"classical packet {dof} width {spec.dq} outside the L={level} "
                    f"window [{window.lower:.4g}, {window.upper:.4g}]"
                )
    cfg.classical_factor()
    cfg.quantum_factor()


def _validate_symbolic(doc: dict) -> None:
    if not (isinstance(doc.get("witness_degree"), int) and doc["witness_degree"] >= 1):
        raise ValueError("witness_degree must be a positive integer")
    for pair in doc["pairs"]:
        if not all(isinstance(pair.get(key), str) for key in ("x", "y", "lam")):
            raise ValueError(f"malformed pair {pair!r}")
        Fraction(pair["lam"])


def _cli(halfq, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = halfq.cli.main(argv)
    return rc, out.getvalue()


def _witness(halfq, degree: int):
    algebra, grammar = halfq.algebra, halfq.grammar
    found = algebra.find_jacobiator_witness(degree)
    if found is None:
        return None
    return tuple(grammar.format_expression(e) for e in found)


def _pair_identities(halfq, pair: dict) -> dict:
    """Exact identities of one random pair; maps identity name -> held."""
    algebra, grammar = halfq.algebra, halfq.grammar
    parse, fmt = grammar.parse_expression, grammar.format_expression
    classical, hybrid = algebra.System(2, 0), algebra.System(1, 1)
    x, y = parse(pair["x"], classical), parse(pair["y"], classical)
    lam = Fraction(pair["lam"])
    hx, hy = algebra.half_quantize(x, (1, 1)), algebra.half_quantize(y, (1, 1))
    bracket = algebra.hybrid_bracket(hx, hy)
    poisson = algebra.poisson_bracket(x, y)
    lhs = hybrid.zero() if poisson.is_zero else algebra.half_quantize(poisson, (1, 1))
    residue = lhs - algebra.div_ihbar(bracket)
    return {
        "format_parse_classical": all(parse(fmt(e), classical) == e for e in (x, y)),
        "format_parse_hybrid": all(parse(fmt(e), hybrid) == e for e in (hx, hy)),
        "antisymmetry": (bracket + algebra.hybrid_bracket(hy, hx)).is_zero,
        "homogeneity": algebra.hybrid_bracket(hx * lam, hy) == bracket * lam,
        "weyl_unquantize": all(
            algebra.unquantize(algebra.weyl_quantize(e), 2, magnitude_guard=None) == e
            for e in (x, y)
        ),
        # half quantization is a Poisson-to-hybrid-bracket morphism only up to
        # hbar^2 (README.md); the exact form is reported, not checked
        "functorial_below_hbar2": all(h >= 2 for h in residue.hbar_grades()),
        "functorial_exact": residue.is_zero,
    }


def _operations(halfq, workload: str, doc: dict, input_path: str) -> list:
    """(name, thunk) for every operation of one job, in order."""
    if workload == "oracle-deep":
        argv = ["verify", "--config", input_path, "--json", "--quiet"]
        return [("verify", lambda: _cli(halfq, argv))]
    if workload == "predict-2p1":
        return [
            ("certify", lambda: _cli(halfq, ["certify", "--config", input_path, "--json"])),
            ("bounds", lambda: _cli(halfq, ["bounds", "--config", input_path, "--json"])),
        ]
    ops = [("witness", lambda: _witness(halfq, doc["witness_degree"]))]
    for i, pair in enumerate(doc["pairs"]):
        ops.append((f"pair {i}", lambda pair=pair: _pair_identities(halfq, pair)))
    return ops


def _check(workload: str, name: str, output, doc: dict, compare_reference: bool) -> None:
    if workload == "oracle-deep":
        rc, text = output
        workloads.check_verify(rc, json.loads(text), compare_reference)
    elif name == "certify":
        rc, text = output
        workloads.check_certify(rc, json.loads(text))
    elif name == "bounds":
        rc, text = output
        workloads.check_bounds(rc, json.loads(text), compare_reference)
    elif name == "witness":
        workloads.check_witness(output, doc["witness_degree"])
    else:
        flags = dict(output)
        flags.pop("functorial_exact")
        workloads.check_identities(flags)


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--input", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare-reference", action="store_true")
    parser.add_argument("--write-reference", default=None)
    args = parser.parse_args()

    halfq = _import_halfq(Path(args.root))
    text = Path(args.input).read_text(encoding="utf-8")
    doc = json.loads(text)
    if args.workload == "symbolic":
        _validate_symbolic(doc)
    else:
        _validate_config(text)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = _operations(halfq, args.workload, doc, args.input)
    outputs = []
    start = time.perf_counter()
    for name, thunk in ops:
        try:
            outputs.append((name, thunk(), None))
        except Exception:
            outputs.append((name, None, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    exact_functorial_failures = 0
    for name, output, error in outputs:
        if error is None:
            try:
                _check(args.workload, name, output, doc, args.compare_reference)
            except (CheckFailure, KeyError, TypeError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(f"{name}: {error}")
        elif name.startswith("pair") and not output["functorial_exact"]:
            exact_functorial_failures += 1
    if args.write_reference and not errors:
        rows = workloads.reference_rows(
            args.workload, {name: json.loads(out[1]) for name, out, _ in outputs}
        )
        lines = [f"{json.dumps(key)}: {json.dumps(rows[key])}" for key in sorted(rows)]
        Path(args.write_reference).write_text(
            "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8"
        )

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "exact_functorial_failures": exact_functorial_failures,
        "environment": _environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
