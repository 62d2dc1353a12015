"""End-to-end cost of ``halfq verify``: wall time and peak memory per run.

    python3 bench/verify.py

halfq is imported from ``src/`` of this checkout; nothing is installed.
Every sample is a fresh process, one at a time, with
``OPENBLAS_NUM_THREADS`` = min(2, cores).  The runs:

- ``example-64-deep`` and ``example-64-shallow``: the shipped example
  (64x64 grids, extent 16, 4,096 dimensions), deep and shallow;
- ``example-32-deep`` and ``example-32-shallow``: the example on 32x32
  grids, extent 8 (the same spacing, 1,024 dimensions);
- ``2p1-32x32x64-deep``: the Hamiltonian of the ``predict-2p1`` benchmark
  workload at seed 0 on 32x32 classical and 64 quantum points, extent 8
  (65,536 dimensions), deep;
- ``2p1-64x64x64-deep``: the same Hamiltonian on 64 points per DOF,
  extent 16 (262,144 dimensions), deep;
- ``mixing-32-deep``: the 32x32 example plus ``c*q2`` (c = 0.05), deep;
  c*Q2 mixes the quantum axis in its DFT basis, so H has no block axis
  and the oracle propagates a QR basis of r = 32 columns;
- ``cli-parse``: the start-up cost of the exact layer, a fresh interpreter
  that imports ``halfq.cli`` from ``src/`` and runs ``main(["parse", ...])``
  with ``PYTHONDONTWRITEBYTECODE=1`` (every module compiled from source).

    python3 bench/verify.py --parent DIR

With ``--parent``, DIR is a checkout of the parent commit: each run's
samples alternate between DIR's ``src/`` and this checkout's, the side that
goes first flipping on every sample, and the parent's records go under
``parent`` with its commit.  Alternating spreads the drift of a shared box
over both sides, so a few-percent change is not read off two separate rounds.

Each run is sampled SAMPLES times and records the median ``wall_s``
(``run_verification`` in its process, after imports and config loading),
``process_s`` (the process from start to exit) and ``peak_rss_mb`` (the
process's ``ru_maxrss``), every sample's ``wall_s``, the status, the full
dimension, r (the propagated columns) and the Chebyshev terms; the last
two are read from the verification's progress note, which every run but
a ``not_applicable`` one must give.  ``cli-parse`` is
sampled CLI_SAMPLES times and records the median ``process_s`` and
``peak_rss_mb`` (the child's own ``ru_maxrss``, from ``os.wait4``) and every
sample's ``process_s``.  The result goes to
``BENCH_verify.json`` at the root of the checkout, with the core count and
the BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    "example-64-deep",
    "example-64-shallow",
    "example-32-deep",
    "example-32-shallow",
    "2p1-32x32x64-deep",
    "2p1-64x64x64-deep",
    "mixing-32-deep",
)
SAMPLES = 5
CLI_SAMPLES = 7
CLI_PARSE = ("parse", "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", "--system", "2,0",
             "--constants", "m,M,k")
NOTE = re.compile(r"propagating r=(\d+) columns to \d+ times in (\d+) Chebyshev terms")


def _config(name: str):
    from halfq.experiment import SystemConfig, build_example

    if name.startswith("example-"):
        npoints = int(name.split("-")[1])
        return build_example(npoints=npoints, extent=npoints / 4)
    if name == "mixing-32-deep":
        raw = build_example(npoints=32, extent=8.0).to_json_dict()
        raw["hamiltonian"] += " + c*q2"
        raw["constants"]["c"] = 0.05
        return SystemConfig.from_json_dict(raw)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if name == "2p1-32x32x64-deep":
        # the smoke size of predict-2p1 is 32x32 classical x 64 quantum, extent 8
        return SystemConfig.from_json_dict(workloads.predict_2p1_config(0, smoke=True))
    # its full size has 64-point classical grids at extent 16; the quantum
    # DOF takes the same grid
    raw = workloads.predict_2p1_config(0)
    raw["quantum_grids"] = raw["classical_grids"][:1]
    return SystemConfig.from_json_dict(raw)


def _sample(name: str) -> dict:
    """One run of ``name`` in this process."""
    from halfq.experiment import run_verification

    cfg = _config(name)
    notes = []
    start = time.perf_counter()
    report = run_verification(cfg, deep=name.endswith("-deep"), progress=notes.append)
    wall = time.perf_counter() - start
    found = [m.groups() for m in map(NOTE.search, notes) if m]
    # only a run with no certified order propagates nothing
    if not found and report.status != "not_applicable":
        raise RuntimeError(f"{name}: {report.status} run without a propagation note")
    r, terms = map(int, found[0]) if found else (None, None)
    return {
        "status": report.status,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "full_dimension": report.environment["full_dimension"],
        "r": r,
        "chebyshev_terms": terms,
    }


def _cli_sample(src: Path) -> tuple:
    """``CLI_PARSE`` once in a fresh interpreter: (process_s, peak_rss_mb)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    script = "import sys, halfq.cli; sys.exit(halfq.cli.main(sys.argv[1:]))"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", script, *CLI_PARSE], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    if code := os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"halfq {' '.join(CLI_PARSE)} exited {code} with {src}")
    return elapsed, usage.ru_maxrss / 1024


def _run_sample(name: str, src: Path, env: dict) -> dict:
    """``name`` once in a fresh process that imports halfq from ``src``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--sample", name, "--src", str(src)],
        env=env, capture_output=True, text=True, check=True,
    )
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample | {"process_s": time.perf_counter() - start}


def _alternating(sources: dict, count: int):
    """``count`` rounds of one sample per side; with two sides the one that
    goes first flips on every round."""
    sides = list(sources)
    for i in range(count):
        yield from sides if i % 2 == 0 else sides[::-1]


def _record(samples: list) -> dict:
    record = samples[0] | {
        key: statistics.median(s[key] for s in samples)
        for key in ("wall_s", "process_s", "peak_rss_mb")
    }
    record["wall_s_samples"] = [s["wall_s"] for s in samples]
    return record


def _cli_record(samples: list) -> dict:
    return {
        "argv": list(CLI_PARSE),
        "process_s": statistics.median(s for s, _ in samples),
        "peak_rss_mb": statistics.median(rss for _, rss in samples),
        "process_s_samples": [s for s, _ in samples],
    }


def _blas() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _commit(checkout: Path):
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", choices=RUNS, help="run once in this process, print JSON")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ directory that --sample imports halfq from")
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout of the parent commit to alternate samples with")
    args = parser.parse_args()
    if args.sample:
        sys.path.insert(0, str(args.src))
        print(json.dumps(_sample(args.sample)))
        return 0
    sources = {"change": ROOT / "src"}
    if args.parent is not None:
        if not (args.parent / "src" / "halfq").is_dir():
            parser.error(f"--parent {args.parent} holds no src/halfq")
        sources["parent"] = args.parent / "src"
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(min(2, cores)))
    runs = {side: {} for side in sources}
    for name in RUNS:
        samples = {side: [] for side in sources}
        for side in _alternating(sources, SAMPLES):
            samples[side].append(_run_sample(name, sources[side], env))
        for side, record in runs.items():
            record[name] = _record(samples[side])
            print(f"{side} {name}: {record[name]['status']}, {record[name]['wall_s']:.2f} s, "
                  f"{record[name]['peak_rss_mb']:.0f} MB", file=sys.stderr)
    samples = {side: [] for side in sources}
    for side in _alternating(sources, CLI_SAMPLES):
        samples[side].append(_cli_sample(sources[side]))
    for side, record in runs.items():
        record["cli-parse"] = _cli_record(samples[side])
        print(f"{side} cli-parse: {record['cli-parse']['process_s']:.3f} s, "
              f"{record['cli-parse']['peak_rss_mb']:.1f} MB", file=sys.stderr)
    machine = {"cores": cores, "blas": _blas(), "blas_threads": min(2, cores)}
    doc = {"machine": machine, "runs": runs["change"]}
    if args.parent is not None:
        doc["parent"] = {"commit": _commit(args.parent), "machine": machine,
                         "runs": runs["parent"]}
    (ROOT / "BENCH_verify.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
