"""halfq benchmark: one command per workload, seeded, output-checked.

    python3 perfbench/run.py --workload oracle-deep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; halfq is imported from ``src/`` there.
Every sample runs in a fresh ``worker.py`` process with at most two
OpenBLAS threads, one process at a time:

- ``--trace 0`` reports the end-to-end metrics.  Jobs run one per process
  for ``--seconds`` (at least one), between two groups of set-up-only
  processes that add ``setup_s`` samples.  ``setup_s`` is the time from starting a
  process to its loaded, validated input; ``wall_s`` is the job after
  set-up; ``peak_rss_mb`` is the job process's ``ru_maxrss``.  Each is the
  median over the run's samples.
- ``--trace 1`` runs one untraced job, then traced jobs for the rest of
  ``--seconds`` (at least one), and reports the per-layer counters of
  ``tracing.py`` (medians over the traced jobs) and the tracing overhead.

Lines before the last describe the run for a human reader: environment,
dimensions, ``fail_frac`` and the checks that failed.  The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every workload to a few seconds to test
the benchmark itself; seed-0 references apply only at full size, and
``--write-reference`` stores them again from a seed-0 run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import per_layer_metrics

HERE = Path(__file__).resolve().parent
# set-up-only processes per untraced run, half before the jobs and half
# after, so the median spans the run rather than one moment of it
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # every run ends within 180 s
MAX_BLAS_THREADS = 2


@dataclass
class Sample:
    """What one worker process reported, plus its parent-side timings."""

    setup_s: float | None  # start to READY; None if set-up failed
    elapsed_s: float  # start to exit
    result: dict | None  # the worker's JSON line
    error: str | None


def _spawn(root: Path, argv: list, env: dict, workdir: Path, timeout: float) -> Sample:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root)] + argv
    with tempfile.TemporaryFile(dir=workdir) as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=root, text=True
        )
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start if first.strip() == "READY" else None
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        elapsed = time.perf_counter() - start
        result, error = None, None
        if proc.returncode == 0 and setup_s is not None:
            try:
                result = json.loads(lines[-1]) if lines else None
            except ValueError:
                error = f"unreadable worker result: {lines[-1][:200]}"
            if result is None and error is None and "--setup-only" not in argv:
                error = "worker printed no result"
        else:
            stderr.seek(0)
            tail = stderr.read().decode(errors="replace").strip().splitlines()[-3:]
            error = f"worker exited {proc.returncode}: {' | '.join(tail)}"
    return Sample(setup_s, elapsed, result, error)


def _median(values):
    """Median, or 0 when every sample failed (the run then reads incorrect)."""
    return statistics.median(values) if values else 0.0


def _environment(nproc: int, threads: int, samples: list, dims: dict) -> dict:
    env = {"nproc": nproc, "blas_threads_requested": threads}
    for sample in samples:
        if sample.result is not None:
            env.update(sample.result["environment"])
            break
    env["dimensions"] = dims
    return env


def _run(args, root: Path, workdir: Path) -> int:
    started = time.perf_counter()
    doc = workloads.make_input(args.workload, args.seed, args.smoke)
    input_path = workdir / "input.json"
    input_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_BLAS_THREADS, nproc)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    base = ["--workload", args.workload, "--input", str(input_path)]
    if args.write_reference:
        base += ["--write-reference", str(workloads.reference_path(args.workload))]
    elif args.seed == 0 and not args.smoke:
        base.append("--compare-reference")

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def spawn(extra):
        return _spawn(root, base + extra, env, workdir, remaining())

    n_probes = 0 if args.trace else SETUP_PROBES // 2
    probes = [spawn(["--setup-only"]) for _ in range(n_probes)]
    deadline = started + args.seconds
    untraced = [spawn([])]
    traced = [spawn(["--trace"])] if args.trace else []
    pool, extra = (traced, ["--trace"]) if args.trace else (untraced, [])
    while True:
        estimate = _median([s.elapsed_s for s in pool])
        if time.perf_counter() + estimate > deadline or 2 * estimate > remaining():
            break
        pool.append(spawn(extra))
    probes += [spawn(["--setup-only"]) for _ in range(n_probes) if remaining() > 10]

    jobs = untraced + traced
    attempted = failed = 0
    errors = []
    for sample in probes:
        attempted += 1
        if sample.error is not None or sample.setup_s is None:
            failed += 1
            errors.append(f"set-up: {sample.error}")
    for sample in jobs:
        if sample.result is None:
            attempted += 1
            failed += 1
            errors.append(f"job: {sample.error}")
            continue
        attempted += sample.result["attempted"]
        failed += sample.result["failed"]
        errors.extend(sample.result["errors"])

    dims = workloads.dimensions(args.workload, doc)
    environment = _environment(nproc, threads, jobs, dims)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} job(s), "
          f"{len(probes)} set-up probe(s){' [smoke]' if args.smoke else ''}")
    print("environment " + json.dumps(environment, sort_keys=True))
    good_untraced = [s.result for s in untraced if s.result is not None]
    good_traced = [s.result for s in traced if s.result is not None]
    exact_failures = [r["exact_functorial_failures"] for r in good_untraced + good_traced]
    if args.workload == "symbolic" and exact_failures:
        print(f"note: exact half-quantization functoriality failed on {exact_failures[0]} "
              f"of {len(doc['pairs'])} pairs (checked only below hbar^2)")

    metrics = {}
    if args.trace:
        for name, unit in per_layer_metrics():
            values = [r["trace"][name] for r in good_traced]
            metrics[name] = {"value": _median(values), "unit": unit}
        if good_traced:
            absent = good_traced[0]["absent"]
            print("absent: " + (", ".join(absent) if absent else "none"))
        traced_wall = _median([r["wall_s"] for r in good_traced])
        untraced_wall = _median([r["wall_s"] for r in good_untraced])
        print(f"tracing overhead: {traced_wall - untraced_wall:+.4f} s "
              f"(traced wall_s {traced_wall:.4f} s, untraced {untraced_wall:.4f} s)")
        shares = sorted(
            ((metrics[n]["value"], n) for n, u in per_layer_metrics() if n.endswith(".self_s")),
            reverse=True,
        )
        for value, name in shares:
            if value > 0:
                share = value / traced_wall if traced_wall > 0 else float("nan")
                print(f"  {name:<48} {value:10.4f} s  {share:7.2%} of traced wall_s")
    else:
        setups = [s.setup_s for s in probes + jobs if s.setup_s is not None]
        walls = [r["wall_s"] for r in good_untraced] or [s.elapsed_s for s in untraced]
        rss = [r["peak_rss_mb"] for r in good_untraced]
        metrics = {
            "setup_s": {"value": _median(setups), "unit": "s"},
            "wall_s": {"value": _median(walls), "unit": "s"},
            "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
        }
        print(f"samples: setup_s {len(setups)}, wall_s {len(walls)}, peak_rss_mb {len(rss)}")
        for name, entry in metrics.items():
            print(f"  {name:<12} {entry['value']:12.4f} {entry['unit']}")
    print(f"  fail_frac    {failed / attempted if attempted else 1.0:12.4f} "
          f"({failed} of {attempted} operations)")
    for error in errors[:5]:
        print("FAILED " + error.strip().replace("\n", " | "))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="halfq benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, to test the benchmark itself")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's rows as the seed-0 reference")
    args = parser.parse_args()
    if args.write_reference and (args.seed != 0 or args.smoke or args.workload == "symbolic"):
        parser.error("--write-reference needs --seed 0, full size and a config workload")

    root = HERE.parent
    if not (root / "src" / "halfq" / "__init__.py").is_file():
        print(f"error: no halfq sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
