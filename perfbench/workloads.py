"""Seeded inputs and output checks for the halfq benchmark workloads.

Everything here is plain Python: the inputs are config documents (JSON
dicts) that the program reads, and the checks read the program's JSON
output.  Only the job functions in ``worker.py`` import halfq.

Workloads (see README.md for why each was chosen):

- ``oracle-deep``: ``halfq verify`` (deep) on the shipped 1+1 example at
  48x48 grids, extent 12, a 2,304-dimensional oracle.
- ``predict-2p1``: ``halfq certify`` then ``halfq bounds`` on a 2+1-DOF
  config; no oracle.
- ``symbolic``: exact algebra only, the Jacobi-witness search plus a
  seeded batch of random polynomial identities.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("oracle-deep", "predict-2p1", "symbolic")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# seed-0 row values must match the stored reference to
# |got - want| <= ABS_TOL + REL_TOL * |want|; the reference was written with
# two BLAS threads, and thread count changes only the last few bits
ABS_TOL = 1e-8
REL_TOL = 1e-8

# drawn parameters stay inside ranges whose ends were validated once
# (edge guard and certificate windows hold at both ends; README.md)
COUPLING_RANGE = (0.08, 0.12)  # k, both config workloads
SECOND_COUPLING_RANGE = (0.03, 0.07)  # c, predict-2p1

SYMBOLIC_PAIRS = 200
SYMBOLIC_SMOKE_PAIRS = 8
WITNESS = ("p1*P1", "p1*Q1*P1", "q1^2*Q1")


class CheckFailure(Exception):
    """An output check failed; the operation counts as failed."""


def _draw(rng: random.Random, bounds: tuple) -> float:
    return round(rng.uniform(*bounds), 6)


def _grid(npoints: int, extent: float) -> dict:
    return {"npoints": npoints, "xmin": -extent, "xmax": extent}


def _bound_and_sweep(observables: list) -> dict:
    return {
        "bound": {"levels": [1, 2], "probabilities": [0.9, 0.99], "I_B": None},
        "sweep": {
            "times": [0.0, 0.4, 0.8, 1.2],
            "width_multipliers": [1.25, 2.0, 4.0],
            "observables": observables,
        },
    }


def oracle_deep_config(seed: int, smoke: bool = False) -> dict:
    """The shipped example (k = 0.1 at seed 0) on a reduced grid."""
    k = 0.1 if seed == 0 else _draw(random.Random(seed), COUPLING_RANGE)
    grid = _grid(32, 8.0) if smoke else _grid(48, 12.0)
    return {
        "version": 1,
        "system": {"classical": 1, "quantum": 1},
        "hbar": 1.0,
        "constants": {"m": 1.0, "M": 1.0, "k": k},
        "hamiltonian": "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2",
        "classical_grids": [grid],
        "quantum_grids": [grid],
        "classical_data": [{"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0}],
        "classical_state": [{"kind": "gaussian", "dq": 2.0**-0.5}],
        "quantum_state": [{"kind": "gaussian", "q0": 0.0, "p0": 1.0, "dq": 1.0}],
        **_bound_and_sweep(["q1", "p1", "Q1", "P1"]),
        "seed": seed,
    }


def predict_2p1_config(seed: int, smoke: bool = False) -> dict:
    """Two classical DOFs coupled to one quantum DOF through its momentum."""
    if seed == 0:
        k, c = 0.1, 0.05
    else:
        rng = random.Random(seed)
        k, c = _draw(rng, COUPLING_RANGE), _draw(rng, SECOND_COUPLING_RANGE)
    classical = _grid(32, 8.0) if smoke else _grid(64, 16.0)
    quantum = _grid(64, 8.0) if smoke else _grid(256, 16.0)
    return {
        "version": 1,
        "system": {"classical": 2, "quantum": 1},
        "hbar": 1.0,
        "constants": {"m": 1.0, "M": 1.0, "k": k, "c": c},
        "hamiltonian": "p1^2/(2*m) + p2^2/(2*m) + p3^2/(2*M) + k*q1*p3 + c*q2*p3",
        "classical_grids": [classical, classical],
        "quantum_grids": [quantum],
        "classical_data": [
            {"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0},
            {"q0": 1.0, "p0": -0.5, "delta_q": 1.0, "delta_p": 1.0},
        ],
        "classical_state": [
            {"kind": "gaussian", "dq": 2.0**-0.5},
            {"kind": "gaussian", "dq": 2.0**-0.5},
        ],
        "quantum_state": [{"kind": "gaussian", "q0": 0.0, "p0": 1.0, "dq": 1.0}],
        **_bound_and_sweep(["q1", "p1", "q2", "p2", "Q1", "P1"]),
        "seed": seed,
    }


def _random_poly_text(rng: random.Random, degree: int) -> str:
    """A random polynomial over q1, p1, q2, p2 in non-canonical text form."""
    terms = []
    for _ in range(rng.randint(2, 4)):
        coeff = f"({rng.randint(-9, 9)}/{rng.randint(1, 5)})"
        factors = [rng.choice(("q1", "p1", "q2", "p2")) for _ in range(rng.randint(0, degree))]
        terms.append("*".join([coeff] + factors))
    return " + ".join(terms)


def symbolic_input(seed: int, smoke: bool = False) -> dict:
    """Witness search degree and a batch of degree-4 polynomial pairs."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(SYMBOLIC_SMOKE_PAIRS if smoke else SYMBOLIC_PAIRS):
        x, y = _random_poly_text(rng, 4), _random_poly_text(rng, 4)
        lam = f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 2)}"
        pairs.append({"x": x, "y": y, "lam": lam})
    # the witness has degree 3; a degree-2 search must come back empty
    return {"witness_degree": 2 if smoke else 3, "pairs": pairs, "seed": seed}


def make_input(workload: str, seed: int, smoke: bool = False) -> dict:
    if workload == "oracle-deep":
        return oracle_deep_config(seed, smoke)
    if workload == "predict-2p1":
        return predict_2p1_config(seed, smoke)
    if workload == "symbolic":
        return symbolic_input(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def dimensions(workload: str, doc: dict) -> dict:
    """Problem dimensions recorded with every result."""
    if workload == "symbolic":
        return {"witness_degree": doc["witness_degree"], "pairs": len(doc["pairs"])}
    classical = math.prod(g["npoints"] for g in doc["classical_grids"])
    quantum = math.prod(g["npoints"] for g in doc["quantum_grids"])
    dims = {"classical_dim": classical, "quantum_dim": quantum}
    if workload == "oracle-deep":
        dims["oracle_dim"] = classical * quantum
    return dims


# --------------------------------------------------------------------------
# output checks; each raises CheckFailure with the first problem found


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _row_key(row: dict, *extra: str) -> str:
    fields = [row["observable"], row["t"], row["L"], row.get("p"), row.get("width_multiplier")]
    fields += [row[name] for name in extra]
    return json.dumps(fields)


def reference_rows(workload: str, outputs: dict) -> dict:
    """Row values that seed 0 must reproduce, keyed by row identity."""
    if workload == "oracle-deep":
        report = outputs["verify"]
        out = {}
        for row in report["rows"]:
            out["sandwich " + _row_key(row)] = [row["lower"], row["upper"], row["oracle_P"]]
        for row in report["leakage_rows"]:
            out["leakage " + _row_key(row, "which")] = [row["measured"]]
        for row in report["discrepancy_rows"]:
            out["discrepancy " + _row_key(row)] = [row["lhs"], row["rhs"]]
        return out
    if workload == "predict-2p1":
        return {
            "bounds " + _row_key(row): [row["lower"], row["upper"]]
            for row in outputs["bounds"]["rows"]
        }
    raise ValueError(f"{workload} has no reference rows")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}-seed0.json"


def _compare_reference(workload: str, outputs: dict) -> None:
    want = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    got = reference_rows(workload, outputs)
    _expect(set(got) == set(want), "row set differs from the seed-0 reference")
    for key, values in want.items():
        for g, w in zip(got[key], values):
            if not abs(g - w) <= ABS_TOL + REL_TOL * abs(w):
                raise CheckFailure(f"{key}: {g!r} differs from reference {w!r}")


def check_verify(rc: int, report: dict, compare_reference: bool) -> None:
    _expect(rc == 0, f"verify exited {rc}")
    _expect(report["status"] == "pass", f"status {report['status']}")
    _expect(len(report["rows"]) == 192, f"{len(report['rows'])} sandwich rows, want 192")
    _expect(
        len(report["leakage_rows"]) == 264,
        f"{len(report['leakage_rows'])} leakage rows, want 264",
    )
    _expect(
        len(report["discrepancy_rows"]) == 32,
        f"{len(report['discrepancy_rows'])} discrepancy rows, want 32",
    )
    _expect(all(r["verdict"] == "pass" for r in report["rows"]), "sandwich violation")
    _expect(
        all(r["verdict"] == "pass" for r in report["leakage_rows"] if r["which"] == "X1"),
        "X1 leakage over bound",
    )
    _expect(
        all(r["verdict"] == "pass" for r in report["discrepancy_rows"]),
        "discrepancy violation",
    )
    if compare_reference:
        _compare_reference("oracle-deep", {"verify": report})


def check_certify(rc: int, payload: dict) -> None:
    _expect(rc == 0, f"certify exited {rc}")
    certs = payload["certificates"]
    _expect(sorted(certs) == ["1", "2"], f"certificate levels {sorted(certs)}")
    for level, want_rows in (("1", 4), ("2", 16)):
        cert = certs[level]
        _expect(cert["verdict"] == "pass", f"certificate L={level} {cert['verdict']}")
        _expect(
            len(cert["rows"]) == want_rows,
            f"certificate L={level} has {len(cert['rows'])} rows, want {want_rows}",
        )


def check_bounds(rc: int, payload: dict, compare_reference: bool) -> None:
    _expect(rc == 0, f"bounds exited {rc}")
    rows = payload["rows"]
    _expect(len(rows) == 288, f"{len(rows)} bounds rows, want 288")
    for row in rows:
        lo, hi = row["lower"], row["upper"]
        _expect(math.isfinite(lo) and math.isfinite(hi), f"non-finite bound {row}")
        _expect(lo <= hi, f"lower {lo} > upper {hi}")
    if compare_reference:
        _compare_reference("predict-2p1", {"bounds": payload})


def check_witness(found, degree: int) -> None:
    """``found`` is None or (A, B, C, jacobiator) as canonical strings."""
    if degree < 3:
        _expect(found is None, f"unexpected witness below degree 3: {found}")
        return
    _expect(found is not None, "no jacobiator witness found")
    _expect(tuple(found[:3]) == WITNESS, f"witness {found[:3]}, want {WITNESS}")
    _expect(found[3] == "1/2*hbar^4", f"jacobiator {found[3]}, want 1/2*hbar^4")


def check_identities(flags: dict) -> None:
    """``flags`` maps identity name to whether it held for one pair."""
    failed = sorted(name for name, ok in flags.items() if not ok)
    _expect(not failed, f"identities failed: {failed}")
