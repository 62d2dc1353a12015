"""Per-layer tracing from outside the program.

Wraps the public functions of each halfq module and accumulates, per
function, the number of calls and the self time: a span's duration minus
the part covered by the spans it caused.  Wrappers replace the function in
every halfq namespace that holds it (modules import each other's functions
by name), so internal calls go through them too.  A name missing from its
module is reported as absent rather than failing the run.

Spans are folded into per-name totals as they close rather than kept: the
symbolic workload closes several hundred thousand of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> wrapped public functions
LAYERS = {
    "hilbert": ("spectral_decompose", "evaluate_symbolic", "sector_embed", "evolve_with", "tensor"),
    "bounds": (
        "delta_L_margin",
        "prediction_bounds",
        "xi_states",
        "leakage_sum",
        "operator_discrepancy",
    ),
    "classicality": ("certify", "classicality_sequences"),
    "algebra": (
        "heisenberg_series",
        "hybrid_bracket",
        "commutator",
        "partial_derivative",
        "weyl_quantize",
        "unquantize",
        "half_quantize",
        "find_jacobiator_witness",
    ),
    "grammar": ("parse_expression", "format_expression"),
    "experiment": ("run_verification", "hybrid_solutions", "closed_form_check", "constants_check"),
    "cli": ("main",),
}

NAMESPACES = (
    "halfq",
    "halfq.cli",
    "halfq.experiment",
    "halfq.bounds",
    "halfq.classicality",
    "halfq.hilbert",
    "halfq.algebra",
    "halfq.grammar",
)


def _eigh_flops(n: int) -> float:
    """Computed flops of a complex Hermitian eigendecomposition with vectors:
    4 real flops per complex multiply-add times (4/3 n^3 reduction to
    tridiagonal + 4/3 n^3 divide and conquer + 2 n^3 back-transformation)."""
    return 4.0 * (4.0 / 3.0 + 4.0 / 3.0 + 2.0) * float(n) ** 3


def _matrix_bytes(result) -> int:
    matrix = getattr(result, "matrix", None)
    return int(getattr(matrix, "nbytes", 0))


def _observe_decompose(stats: dict, args, kwargs, result) -> None:
    n = int(getattr(result, "dim", 0))
    stats["max_dim"] = max(stats["max_dim"], n)
    stats["flops"] += _eigh_flops(n)


def _observe_bytes(stats: dict, args, kwargs, result) -> None:
    stats["bytes"] += _matrix_bytes(result)


def _observe_rows(stats: dict, args, kwargs, result) -> None:
    stats["rows"] += len(getattr(result, "rows", ()))


# extra computed counters: function -> (metric -> unit, observer)
EXTRAS = {
    "hilbert.spectral_decompose": ({"max_dim": "count", "flops": "flop"}, _observe_decompose),
    "hilbert.evaluate_symbolic": ({"bytes": "B"}, _observe_bytes),
    "hilbert.sector_embed": ({"bytes": "B"}, _observe_bytes),
    "classicality.certify": ({"rows": "count"}, _observe_rows),
}


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            qual = f"{layer}.{name}"
            out.append((f"{qual}.calls", "count"))
            out.append((f"{qual}.self_s", "s"))
            for metric, unit in EXTRAS.get(qual, ({}, None))[0].items():
                out.append((f"{qual}.{metric}", unit))
    return out


class Tracer:
    """Installs the wrappers and holds their counters."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self._stack = []

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in NAMESPACES]
        modules += [m for k, m in sorted(sys.modules.items()) if k.startswith("halfq.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"halfq.{layer}")
            for name in names:
                qual = f"{layer}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(qual)
                    continue
                wrapper = self._wrap(qual, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, qual: str, fn):
        extra_units, observer = EXTRAS.get(qual, ({}, None))
        stats = {"calls": 0, "self_s": 0.0, **{m: 0 for m in extra_units}}
        self.stats[qual] = stats
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - children[0]
            if observer is not None:
                observer(stats, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<metric>`` values; absent names read 0."""
        out = {}
        for name, _unit in per_layer_metrics():
            qual, metric = name.rsplit(".", 1)
            out[name] = self.stats.get(qual, {}).get(metric, 0)
        return out
