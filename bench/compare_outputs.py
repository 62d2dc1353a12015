"""Byte-identity of halfq's outputs against a checkout of the parent commit.

    python3 bench/compare_outputs.py --parent DIR

Each run below is one halfq command line, run once with DIR's ``src/`` and
once with this checkout's, each in a fresh interpreter with
``OPENBLAS_NUM_THREADS`` = min(2, cores).  The configs and the texts come
from the ``perfbench`` generators, as ``bench/verify.py`` takes them:

- ``example-32-deep`` and ``example-32-shallow``: ``verify --json``, deep
  and ``--shallow``, on the shipped example at 32x32 grids, extent 8 (the
  ``oracle-deep`` smoke config);
- ``oracle-deep``: ``verify --json`` on the ``oracle-deep`` seed-0 config;
- ``2p1-smoke-deep``: ``verify --json`` on ``predict-2p1`` seed 0 at its
  smoke size;
- ``mixing-32-deep``: ``verify --json`` on the 32x32 example plus ``c*q2``
  (c = 0.05);
- ``kp1p2-32-deep``: ``verify --json`` on the 32x32 example with the
  coupling ``k*p1*p2``;
- ``2p1-certify``, ``2p1-bounds`` and ``2p1-evolve``: ``certify --json``,
  ``bounds --json`` and ``evolve --json`` on ``predict-2p1`` seed 0;
- ``jacobi-demo``: ``jacobi-demo --json``, the Jacobi-witness search;
- ``parse-power``: ``parse --json "(Q1+P1)^40" --system 0,1``;
- ``halfquantize-symbolic``: ``halfquantize --json --split 1,1`` of the
  first text of degree 4 in the ``symbolic`` seed-0 input;
- ``parse-cancel``: ``parse --json "q1*P1 - P1*q1 + 0*Q1 + (Q1+P1)^2 -
  (P1+Q1)^2 + 2*hbar - 2*hbar" --system 1,1``;
- ``halfquantize-cancel``: ``halfquantize --json --split 1,1 "q1*p2 - p2*q1
  + 0*q2^3 + (q1+p2)^2 - (p2+q1)^2"``.

Every term of the two ``-cancel`` texts cancels, so both print ``0``: they
check that each builder drops the zero coefficients it leaves.

For every run it prints one line per output, stdout, stderr (the progress
notes, in text and order) and the exit code: ``identical``, or for JSON
stdout the largest relative difference and its JSON path, else the first
line that differs.  It exits 1 unless every output is identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _configs() -> dict:
    """Config documents by name."""
    example = workloads.oracle_deep_config(0, smoke=True)
    mixing = json.loads(json.dumps(example))
    mixing["hamiltonian"] += " + c*q2"
    mixing["constants"]["c"] = 0.05
    kp1p2 = json.loads(json.dumps(example))
    kp1p2["hamiltonian"] = kp1p2["hamiltonian"].replace("k*q1*p2", "k*p1*p2")
    return {
        "example-32": example,
        "oracle-deep": workloads.oracle_deep_config(0),
        "2p1-smoke": workloads.predict_2p1_config(0, smoke=True),
        "mixing-32": mixing,
        "kp1p2-32": kp1p2,
        "2p1": workloads.predict_2p1_config(0),
    }


def _symbolic_text() -> str:
    """The first ``symbolic`` seed-0 text with a term of degree 4."""
    pairs = workloads.symbolic_input(0)["pairs"]
    texts = (text for pair in pairs for text in (pair["x"], pair["y"]))
    return next(t for t in texts if any(term.count("*") == 4 for term in t.split(" + ")))


# run name -> (config name or None, halfq arguments before any --config)
RUNS = {
    "example-32-deep": ("example-32", ["verify", "--json"]),
    "example-32-shallow": ("example-32", ["verify", "--json", "--shallow"]),
    "oracle-deep": ("oracle-deep", ["verify", "--json"]),
    "2p1-smoke-deep": ("2p1-smoke", ["verify", "--json"]),
    "mixing-32-deep": ("mixing-32", ["verify", "--json"]),
    "kp1p2-32-deep": ("kp1p2-32", ["verify", "--json"]),
    "2p1-certify": ("2p1", ["certify", "--json"]),
    "2p1-bounds": ("2p1", ["bounds", "--json"]),
    "2p1-evolve": ("2p1", ["evolve", "--json"]),
    "jacobi-demo": (None, ["jacobi-demo", "--json"]),
    "parse-power": (None, ["parse", "--json", "(Q1+P1)^40", "--system", "0,1"]),
    "halfquantize-symbolic": (None, ["halfquantize", "--json", "--split", "1,1", _symbolic_text()]),
    "parse-cancel": (None, ["parse", "--json", "q1*P1 - P1*q1 + 0*Q1 + (Q1+P1)^2 - (P1+Q1)^2"
                            " + 2*hbar - 2*hbar", "--system", "1,1"]),
    "halfquantize-cancel": (None, ["halfquantize", "--json", "--split", "1,1",
                                   "q1*p2 - p2*q1 + 0*q2^3 + (q1+p2)^2 - (p2+q1)^2"]),
}


def _halfq(src: Path, argv: list) -> tuple:
    """(stdout, stderr, exit code) of ``halfq argv`` with halfq from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(min(2, len(os.sched_getaffinity(0)))))
    script = "import sys, halfq.cli; sys.exit(halfq.cli.main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def _largest_difference(a, b, path: str = "$") -> tuple:
    """(relative difference, path) of the largest difference between two
    JSON values; inf where their structure, a string or a flag differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return math.inf, path
        return max((_largest_difference(a[k], b[k], f"{path}.{k}") for k in a),
                   default=(0.0, path))
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf, path
        return max((_largest_difference(x, y, f"{path}[{i}]") for i, (x, y) in
                    enumerate(zip(a, b))), default=(0.0, path))
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and a != b:
        scale = max(abs(a), abs(b))
        return (abs(a - b) / scale if math.isfinite(scale) else math.inf), path
    return (0.0 if a == b and type(a) is type(b) else math.inf), path


def _verdict(parent: bytes, change: bytes, as_json: bool) -> str:
    if parent == change:
        return "identical"
    if as_json:
        try:
            rel, path = _largest_difference(json.loads(parent), json.loads(change))
            return f"largest relative difference {rel:.3e} at {path}"
        except ValueError:
            pass
    old, new = parent.decode().splitlines(), change.decode().splitlines()
    line = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
    return f"differs from line {line + 1}"


def compare(parent: Path) -> bool:
    """Print every output's verdict for each of :data:`RUNS`; whether all are identical."""
    configs, same = _configs(), True
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, argv) in RUNS.items():
            if config is not None:
                path = Path(tmp) / f"{config}.json"
                path.write_text(json.dumps(configs[config]), encoding="utf-8")
                argv = argv + ["--config", str(path)]
            sides = [_halfq(src, argv) for src in (parent / "src", ROOT / "src")]
            (out0, err0, code0), (out1, err1, code1) = sides
            verdicts = {
                "stdout": _verdict(out0, out1, True),
                "stderr": _verdict(err0, err1, False),
                "exit": "identical" if code0 == code1 else f"{code0} against {code1}",
            }
            for output, verdict in verdicts.items():
                print(f"{name} {output}: {verdict}")
                same &= verdict == "identical"
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    args = parser.parse_args()
    if not (args.parent / "src" / "halfq").is_dir():
        parser.error(f"--parent {args.parent} holds no src/halfq")
    return 0 if compare(args.parent.resolve()) else 1


if __name__ == "__main__":
    sys.exit(main())
