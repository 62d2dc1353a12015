"""System configuration, the worked two-particle example, and the
full-quantum verification experiment.

The oracle path quantizes the configured classical Hamiltonian with every
DOF quantum, evolves the product initial state on the tensor grid, and
measures interval probabilities of the fundamental observables.  The
half-quantum path evolves observables symbolically with the hybrid
bracket and converts margins into sandwich bounds.  A verification run
checks, row by row, that the oracle probability falls inside the sandwich
and that the leakage and operator-discrepancy contracts hold.

Fundamental-observable probabilities are measured in the Schroedinger
picture (spectra of the t=0 operators against the evolved state), which
is unitarily identical to the Heisenberg-picture statement.  The oracle
is matrix-free: the Hamiltonian and the Heisenberg-picture observables
are compiled into per-DOF factors, states evolve by a Chebyshev
expansion on their action, and the only dense eigenproblems are those of
single-sector operators.  The Ehrenfest gap between the exact Heisenberg
observables and the propagated states checks the oracle in every run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .algebra import (
    AlgebraError,
    HybridExpression,
    Symbol,
    System,
    heisenberg_series,
    weyl_quantize,
)
from .bounds import (
    BoundConfig,
    HybridObservable,
    delta_L_margin,
    closed_form_margin,
    leakage_constant,
    operator_discrepancy,
    prediction_bounds,
    spread_Delta_L,
    tail_leakage,
    worst_case_errors,
    xi_states,
)
from .classicality import (
    ClassicalData,
    ClassicalDatum,
    certify,
    classicality_sequences,
)
from .grammar import format_expression, parse_expression, parse_symbol
from .hilbert import (
    Grid,
    GridError,
    SpectralDecomp,
    State,
    compile_expression,
    evolve_full_quantum,
    gaussian_state,
    interval_mask,
    momentum_operator,
    position_operator,
    spectral_decompose,
    tensor,
)

CONFIG_VERSION = 1

DEFAULT_TOLERANCES = {
    "edge_mass": 1e-6,
    "bound_slack": 1e-10,
    # rows with delta_L = I_B = 0 compare two discretizations of the same
    # spectral measure for equality; interval endpoints then carry
    # node-resolution blur that the theoretical bound has no slack to absorb
    "degenerate_slack": 5e-3,
    "leak_slack": 1e-10,
    "discrepancy_slack": 1e-6,
    # max |<psi0|A(t)|psi0> - <psi_t|A|psi_t>| over observables and times
    "ehrenfest": 1e-6,
}


class ConfigError(ValueError):
    """Malformed or inconsistent system configuration."""


@dataclass(frozen=True)
class StateSpec:
    """Initial wave function for one DOF: Gaussian parameters or a file of
    two-column (real, imaginary) amplitudes per grid point."""

    kind: str
    q0: float = 0.0
    p0: float = 0.0
    dq: float = 1.0
    path: str | None = None

    def realize(self, grid: Grid, hbar: float) -> State:
        if self.kind == "gaussian":
            return gaussian_state(grid, self.q0, self.p0, self.dq, hbar)
        if self.kind == "file":
            raw = np.loadtxt(self.path)
            if raw.ndim != 2 or raw.shape != (grid.npoints, 2):
                raise ConfigError(
                    f"amplitude file {self.path} must have {grid.npoints} rows "
                    "of (real, imaginary)"
                )
            amps = raw[:, 0] + 1j * raw[:, 1]
            norm = np.linalg.norm(amps)
            if norm == 0:
                raise ConfigError("amplitude file holds the zero vector")
            return State(amps / norm, (grid,))
        raise ConfigError(f"unknown state kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        if self.kind == "file":
            return {"kind": "file", "path": self.path}
        return {"kind": "gaussian", "q0": self.q0, "p0": self.p0, "dq": self.dq}

    @staticmethod
    def from_json_dict(raw: Mapping) -> "StateSpec":
        kind = raw.get("kind", "gaussian")
        if kind == "file":
            return StateSpec(kind="file", path=raw["path"])
        return StateSpec(
            kind="gaussian",
            q0=float(raw.get("q0", 0.0)),
            p0=float(raw.get("p0", 0.0)),
            dq=float(raw.get("dq", 1.0)),
        )


@dataclass(frozen=True)
class SweepSpec:
    times: tuple
    width_multipliers: tuple
    observables: tuple

    def __post_init__(self):
        if any(m <= 1.0 for m in self.width_multipliers):
            raise ConfigError("width multipliers must exceed 1 (D > Delta_L)")


@dataclass(frozen=True)
class SystemConfig:
    """Complete declaration of a half-quantum verification experiment."""

    system: System
    hbar: float
    constants: dict
    hamiltonian: str  # classical form over all M+N DOFs
    classical_grids: tuple
    quantum_grids: tuple
    classical_data: ClassicalData
    classical_state: tuple  # StateSpec per classical DOF
    quantum_state: tuple  # StateSpec per quantum DOF
    levels: tuple
    probabilities: tuple
    I_B: float | None
    sweep: SweepSpec
    tolerances: dict
    seed: int = 0

    def __post_init__(self):
        m, n = self.system.classical, self.system.quantum
        if len(self.classical_grids) != m or len(self.quantum_grids) != n:
            raise ConfigError("grid count does not match DOF counts")
        if self.classical_data.dofs != m:
            raise ConfigError("classical data count does not match DOF count")
        if len(self.classical_state) != m or len(self.quantum_state) != n:
            raise ConfigError("state spec count does not match DOF count")
        self.parse_hamiltonian()  # fail fast on syntax/range errors
        for name in self.sweep.observables:
            self.observable_symbol(name)

    # -- symbolic structure ---------------------------------------------------

    def classical_system(self) -> System:
        return System(self.system.classical + self.system.quantum, 0)

    def full_system(self) -> System:
        return System(0, self.system.classical + self.system.quantum)

    def parse_hamiltonian(self) -> HybridExpression:
        try:
            return parse_expression(
                self.hamiltonian, self.classical_system(), tuple(self.constants)
            )
        except ValueError as exc:
            raise ConfigError(f"bad Hamiltonian: {exc}") from exc

    def hybrid_hamiltonian(self) -> HybridExpression:
        from .algebra import half_quantize

        return half_quantize(
            self.parse_hamiltonian(), (self.system.classical, self.system.quantum)
        )

    def full_hamiltonian_expr(self) -> HybridExpression:
        return weyl_quantize(self.parse_hamiltonian())

    def observable_symbol(self, name: str) -> Symbol:
        try:
            sym = parse_symbol(name)
        except AlgebraError as exc:
            raise ConfigError(f"not an observable name: {name!r}") from exc
        if not self.system.contains(sym):
            raise ConfigError(f"observable {name} outside the declared system")
        return sym

    def observable_axis(self, name: str) -> int:
        """0-based tensor axis of the observable's DOF (classical DOFs first)."""
        sym = self.observable_symbol(name)
        return (sym.index - 1) if sym.is_classical else self.system.classical + sym.index - 1

    def all_grids(self) -> tuple:
        return tuple(self.classical_grids) + tuple(self.quantum_grids)

    # -- states -----------------------------------------------------------------

    def classical_factor(self) -> State:
        states = []
        for dof, spec in enumerate(self.classical_state, start=1):
            datum = self.classical_data.data[dof - 1]
            realized = StateSpec(
                kind=spec.kind,
                q0=datum.q0,
                p0=datum.p0,
                dq=spec.dq,
                path=spec.path,
            ).realize(self.classical_grids[dof - 1], self.hbar)
            states.append(realized)
        out = states[0]
        for st in states[1:]:
            out = tensor(out, st)
        return out

    def quantum_factor(self) -> State:
        states = [
            spec.realize(self.quantum_grids[dof - 1], self.hbar)
            for dof, spec in enumerate(self.quantum_state, start=1)
        ]
        out = states[0]
        for st in states[1:]:
            out = tensor(out, st)
        return out

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "system": {
                "classical": self.system.classical,
                "quantum": self.system.quantum,
            },
            "hbar": self.hbar,
            "constants": dict(sorted(self.constants.items())),
            "hamiltonian": self.hamiltonian,
            "classical_grids": [_grid_dict(g) for g in self.classical_grids],
            "quantum_grids": [_grid_dict(g) for g in self.quantum_grids],
            "classical_data": [
                {
                    "q0": d.q0,
                    "p0": d.p0,
                    "delta_q": d.delta_q,
                    "delta_p": d.delta_p,
                }
                for d in self.classical_data.data
            ],
            "classical_state": [s.to_json_dict() for s in self.classical_state],
            "quantum_state": [s.to_json_dict() for s in self.quantum_state],
            "bound": {
                "levels": list(self.levels),
                "probabilities": list(self.probabilities),
                "I_B": self.I_B,
            },
            "sweep": {
                "times": list(self.sweep.times),
                "width_multipliers": list(self.sweep.width_multipliers),
                "observables": list(self.sweep.observables),
            },
            "tolerances": dict(sorted(self.tolerances.items())),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(raw: Mapping) -> "SystemConfig":
        version = raw.get("version")
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}")
        system = System(int(raw["system"]["classical"]), int(raw["system"]["quantum"]))
        bound = raw.get("bound", {})
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(raw.get("tolerances", {}))
        return SystemConfig(
            system=system,
            hbar=float(raw.get("hbar", 1.0)),
            constants={k: float(v) for k, v in raw.get("constants", {}).items()},
            hamiltonian=raw["hamiltonian"],
            classical_grids=tuple(_grid_from(d) for d in raw["classical_grids"]),
            quantum_grids=tuple(_grid_from(d) for d in raw["quantum_grids"]),
            classical_data=ClassicalData(
                tuple(
                    ClassicalDatum(
                        float(d["q0"]),
                        float(d["p0"]),
                        float(d["delta_q"]),
                        float(d["delta_p"]),
                    )
                    for d in raw["classical_data"]
                )
            ),
            classical_state=tuple(
                StateSpec.from_json_dict(d) for d in raw["classical_state"]
            ),
            quantum_state=tuple(
                StateSpec.from_json_dict(d) for d in raw["quantum_state"]
            ),
            levels=tuple(int(x) for x in bound.get("levels", [1])),
            probabilities=tuple(float(x) for x in bound.get("probabilities", [0.99])),
            I_B=None if bound.get("I_B") is None else float(bound["I_B"]),
            sweep=SweepSpec(
                times=tuple(float(t) for t in raw["sweep"]["times"]),
                width_multipliers=tuple(
                    float(x) for x in raw["sweep"]["width_multipliers"]
                ),
                observables=tuple(raw["sweep"]["observables"]),
            ),
            tolerances=tolerances,
            seed=int(raw.get("seed", 0)),
        )

    @staticmethod
    def from_json(text: str) -> "SystemConfig":
        return SystemConfig.from_json_dict(json.loads(text))


def _grid_dict(g: Grid) -> dict:
    return {"npoints": g.npoints, "xmin": g.xmin, "xmax": g.xmax}


def _grid_from(d: Mapping) -> Grid:
    return Grid(int(d["npoints"]), float(d["xmin"]), float(d["xmax"]))


# --------------------------------------------------------------------------
# the worked example


def build_example(
    npoints: int = 64,
    extent: float = 16.0,
    coupling: float = 0.1,
    classical_mass: float = 1.0,
    quantum_mass: float = 1.0,
    levels: Sequence[int] = (1, 2),
    probabilities: Sequence[float] = (0.9, 0.99),
    times: Sequence[float] = (0.0, 0.4, 0.8, 1.2),
    packet_width: float = 2.0**-0.5,
) -> SystemConfig:
    """Two coupled particles: quantum kinetic + classical kinetic + k q P.

    Defaults: unit masses, k = 0.1, hbar = 1, 64-point grids, classical
    packet at the center of the Gaussian feasibility window for L <= 2.
    """
    grid = {"npoints": npoints, "xmin": -extent, "xmax": extent}
    raw = {
        "version": CONFIG_VERSION,
        "system": {"classical": 1, "quantum": 1},
        "hbar": 1.0,
        "constants": {"m": classical_mass, "M": quantum_mass, "k": coupling},
        "hamiltonian": "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2",
        "classical_grids": [grid],
        "quantum_grids": [grid],
        "classical_data": [{"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0}],
        "classical_state": [{"kind": "gaussian", "dq": packet_width}],
        "quantum_state": [{"kind": "gaussian", "q0": 0.0, "p0": 1.0, "dq": 1.0}],
        "bound": {
            "levels": list(levels),
            "probabilities": list(probabilities),
            "I_B": None,
        },
        "sweep": {
            "times": list(times),
            "width_multipliers": [1.25, 2.0, 4.0],
            "observables": ["q1", "p1", "Q1", "P1"],
        },
        "tolerances": dict(DEFAULT_TOLERANCES),
        "seed": 0,
    }
    return SystemConfig.from_json_dict(raw)


def hybrid_solutions(cfg: SystemConfig) -> dict:
    """Hybrid-bracket time evolution of every fundamental observable."""
    system = cfg.system
    h_tilde = cfg.hybrid_hamiltonian()
    out = {}
    for i in range(1, system.classical + 1):
        out[f"q{i}"] = heisenberg_series(system.q(i), h_tilde)
        out[f"p{i}"] = heisenberg_series(system.p(i), h_tilde)
    for a in range(1, system.quantum + 1):
        out[f"Q{a}"] = heisenberg_series(system.Q(a), h_tilde)
        out[f"P{a}"] = heisenberg_series(system.P(a), h_tilde)
    return out


def closed_form_check(cfg: SystemConfig) -> dict:
    """Golden test of the example: engine series and margins against the
    known closed-form solutions, as exact polynomial identities."""
    system = cfg.system
    if (system.classical, system.quantum) != (1, 1):
        raise ConfigError("closed-form check applies to the 1+1 DOF example")
    consts = tuple(cfg.constants)
    expected = {
        "q1": "q1 + t/m*p1 - k*t^2/(2*m)*P1",
        "p1": "p1 - k*t*P1",
        "Q1": "Q1 + t/M*P1 + k*t*q1 + k*t^2/(2*m)*p1 - k^2*t^3/(6*m)*P1",
        "P1": "P1",
    }
    expected_margins = {
        "q1": {"q1": "1", "p1": "t/m"},
        "p1": {"p1": "1"},
        "Q1": {"q1": "k*t", "p1": "k*t^2/(2*m)"},
        "P1": {},
    }
    sols = hybrid_solutions(cfg)
    time_consts = consts + ("t",)
    report = {}
    for name, sol in sols.items():
        want = parse_expression(expected[name], system, time_consts)
        series_ok = sol == want
        margins = closed_form_margin(sol)
        margin_sys = next(iter(margins.values())).system if margins else system
        want_m = {
            parse_symbol(k): parse_expression(v, margin_sys, time_consts)
            for k, v in expected_margins[name].items()
        }
        margins_ok = margins == want_m
        report[name] = {
            "series": format_expression(sol),
            "series_ok": series_ok,
            "margins": {s.name: format_expression(e) for s, e in margins.items()},
            "margins_ok": margins_ok,
            "ok": series_ok and margins_ok,
        }
    return report


def constants_check() -> list:
    """The worst-case sandwich-error constants at the two reference settings."""
    rows = []
    for cfg, checks in (
        (
            BoundConfig(1, 0.99),
            {"worst_error": (0.72, 0.02), "widening_over_delta": (20.0, 1e-9)},
        ),
        (
            BoundConfig(10, 0.99999),
            {
                "worst_error": (0.0019, 1e-4),
                "leakage": (9.4e-7, 1e-8),
                "widening_over_delta": (3.6, 0.05),
            },
        ),
    ):
        values = worst_case_errors(cfg)
        row = dict(values)
        row["checks"] = {}
        ok = True
        for key, (target, tol) in checks.items():
            good = abs(values[key] - target) <= tol
            row["checks"][key] = {
                "computed": values[key],
                "target": target,
                "tolerance": tol,
                "ok": good,
            }
            ok = ok and good
        row["ok"] = ok
        rows.append(row)
    return rows


# --------------------------------------------------------------------------
# verification


@dataclass
class _SectorDecomp:
    """Spectral data of a one-DOF operator embedded in the tensor space.

    Amplitudes against the full eigenbasis are tensor contractions on the
    DOF axis; nothing full-dimensional is materialized.
    """

    small: SpectralDecomp
    axis: int
    shape: tuple

    def flat_eigenvalues(self) -> np.ndarray:
        n = self.shape[self.axis]
        rest = int(np.prod(self.shape)) // n
        return np.repeat(self.small.eigenvalues, rest)

    def flat_amplitudes(self, amplitudes: np.ndarray) -> np.ndarray:
        """<a_i (x) e_rest | psi> flattened to match flat_eigenvalues; the
        columns of a (dim, k) batch stay columns."""
        moved = np.moveaxis(amplitudes.reshape(self.shape + (-1,)), self.axis, 0)
        n = self.shape[self.axis]
        contracted = self.small.eigenvectors.conj().T @ moved.reshape(n, -1)
        return contracted.reshape(amplitudes.shape)

    def interval_probability(self, psi: State, interval: tuple) -> float:
        amps = self.flat_amplitudes(psi.amplitudes)
        mask = interval_mask(self.flat_eigenvalues(), interval)
        return float(np.sum(np.abs(amps[mask]) ** 2))


@dataclass
class VerificationReport:
    status: str  # pass | fail | not_applicable
    certificates: dict
    rows: list
    leakage_rows: list
    discrepancy_rows: list
    constants: list
    closed_form: dict
    ehrenfest: float
    environment: dict
    config: dict
    notes: list

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list:
        """Plot-ready (observable, L, p, multiplier, t, lower, oracle, upper)."""
        out = [
            (
                "observable",
                "L",
                "p",
                "width_multiplier",
                "t",
                "lower",
                "oracle",
                "upper",
            )
        ]
        for row in self.rows:
            out.append(
                (
                    row["observable"],
                    row["L"],
                    row["p"],
                    row["width_multiplier"],
                    row["t"],
                    row["lower"],
                    row["oracle_P"],
                    row["upper"],
                )
            )
        return out


def run_verification(
    cfg: SystemConfig, deep: bool = True, progress=None
) -> VerificationReport:
    """Full verification: certify, evolve, and check every sweep row.

    ``deep`` adds the tail-leakage and operator-discrepancy rows (the
    expensive spectral double sums).  Raises :class:`GridError` when a
    state leaks probability onto the grid boundary (unconverged setup).
    """

    def note(msg):
        if progress is not None:
            progress(msg)

    tol = cfg.tolerances
    system = cfg.system
    hbar = cfg.hbar
    grids = cfg.all_grids()
    shape = tuple(g.npoints for g in grids)
    notes = []

    # certification gate
    sols = hybrid_solutions(cfg)
    sequences = classicality_sequences(sols.values(), system.classical)
    phi_c = cfg.classical_factor()
    certificates = {}
    active_levels = []
    for L in cfg.levels:
        cert = certify(phi_c, cfg.classical_data, L, sequences, hbar)
        certificates[str(L)] = cert.to_json_dict()
        if cert.passed:
            active_levels.append(L)
        else:
            notes.append(
                f"classical data not {L}-order valid: bounds at L={L} not applicable"
            )
    environment = {
        "halfq_version": __version__,
        "numpy_version": np.__version__,
        "grid_shape": list(shape),
        "full_dimension": int(np.prod(shape)),
        "tolerances": dict(sorted(tol.items())),
        "seed": cfg.seed,
        "picture": "schroedinger-equivalent",
    }
    constants_rows = constants_check()
    closed = closed_form_check(cfg) if _is_example_structure(cfg) else {}

    if not active_levels:
        return VerificationReport(
            status="not_applicable",
            certificates=certificates,
            rows=[],
            leakage_rows=[],
            discrepancy_rows=[],
            constants=constants_rows,
            closed_form=closed,
            ehrenfest=float("nan"),
            environment=environment,
            config=cfg.to_json_dict(),
            notes=notes,
        )

    # full-quantum oracle, matrix-free
    note("compiling full-quantum Hamiltonian")
    full_grids = {a + 1: g for a, g in enumerate(grids)}
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, full_grids, hbar, cfg.constants)
    phi_q = cfg.quantum_factor()
    psi0 = tensor(phi_c, phi_q)
    _edge_guard(psi0, tol["edge_mass"], "initial state")

    quantum_grid_map = {a: g for a, g in enumerate(cfg.quantum_grids, start=1)}
    rows = []
    leak_rows = []
    disc_rows = []
    time_values = [_exact(t) for t in cfg.sweep.times]
    evolved = {}
    for t_exact in time_values:
        t = float(t_exact)
        note(f"propagating the initial state to t={t}")
        evolved[t_exact] = evolve_full_quantum(h_op, psi0, t, hbar)
        _edge_guard(evolved[t_exact], tol["edge_mass"], f"state at t={t}")

    ehrenfest = 0.0
    for obs_name in cfg.sweep.observables:
        axis = cfg.observable_axis(obs_name)
        sector_grid = grids[axis]
        sym = cfg.observable_symbol(obs_name)
        base_op = (
            position_operator(sector_grid)
            if not sym.is_momentum
            else momentum_operator(sector_grid, hbar)
        )
        a_decomp = _SectorDecomp(spectral_decompose(base_op), axis, shape)
        flat_eigs = a_decomp.flat_eigenvalues()
        sol = sols[obs_name]
        # the exact Heisenberg-picture observable A(t) of the oracle
        a_expr = cfg.full_system().symbol((Symbol.P if sym.is_momentum else Symbol.Q)(axis + 1))
        a_op = compile_expression(a_expr, {}, full_grids, hbar)
        series = heisenberg_series(a_expr, h_expr, bracket="commutator")
        for t_exact in time_values:
            t = float(t_exact)
            note(f"observable {obs_name}, t={t}")
            subs = {name: _exact(v) for name, v in cfg.constants.items()}
            subs["t"] = t_exact
            a_t = compile_expression(
                series.substitute_constants(subs), {}, full_grids, hbar, cfg.constants
            )
            psi_t = evolved[t_exact]
            gap = np.vdot(psi0.amplitudes, a_t.apply(psi0.amplitudes)) - np.vdot(
                psi_t.amplitudes, a_op.apply(psi_t.amplitudes)
            )
            ehrenfest = max(ehrenfest, abs(gap))
            sol_t = sol.substitute_constants(subs)
            observable = HybridObservable(
                sol_t, cfg.classical_data, quantum_grid_map, hbar, {}
            )
            b_matrix = observable.matrix()
            b_decomp = spectral_decompose(b_matrix)
            a0 = float(b_matrix.expectation(phi_q).real)
            xi_cache = {}
            for L in active_levels:
                margin = delta_L_margin(observable, phi_q, L)
                if deep:
                    lhs, rhs = operator_discrepancy(
                        a_t, observable, phi_c, phi_q, L, margin
                    )
                    ok = lhs <= rhs * (1 + tol["discrepancy_slack"]) + 1e-12
                    disc_rows.append(
                        {
                            "observable": obs_name,
                            "t": t,
                            "L": L,
                            "lhs": lhs,
                            "rhs": rhs,
                            "verdict": "pass" if ok else "fail",
                        }
                    )
                for p in cfg.probabilities:
                    bc = BoundConfig(L, p, cfg.I_B)
                    delta = margin.total
                    i_b = delta if bc.I_B is None else bc.I_B
                    big_delta = spread_Delta_L(delta, bc)
                    xi_evolved = None
                    if deep and i_b > 0:
                        key = (round(i_b, 15), t)
                        if key not in xi_cache:
                            # xi states in the Schroedinger picture, against
                            # the eigenbasis of the t=0 observable
                            xis = xi_states(b_decomp, phi_q, phi_c, i_b)
                            cols = np.column_stack(
                                [x.state.amplitudes for x in xis]
                            )
                            evolved_cols = evolve_full_quantum(h_op, cols, t, hbar)
                            xi_cache[key] = (xis, a_decomp.flat_amplitudes(evolved_cols))
                        xi_evolved = xi_cache[key]
                    for mult in cfg.sweep.width_multipliers:
                        D = mult * big_delta if big_delta > 0 else mult
                        interval = (a0 - D, a0 + D)
                        pb = prediction_bounds(
                            observable, phi_q, bc, interval,
                            decomp=b_decomp, margin=margin,
                        )
                        oracle = a_decomp.interval_probability(psi_t, interval)
                        slack = (
                            tol["bound_slack"]
                            if pb.Delta_L > 0
                            else tol["degenerate_slack"]
                        )
                        ok = pb.lower - slack <= oracle <= pb.upper + slack
                        row = pb.to_json_dict()
                        row.update(
                            {
                                "observable": obs_name,
                                "t": t,
                                "a0": a0,
                                "D": D,
                                "width_multiplier": mult,
                                "oracle_P": oracle,
                                "verdict": "pass" if ok else "fail",
                            }
                        )
                        rows.append(row)
                        if xi_evolved is not None:
                            xis, xi_amps = xi_evolved
                            measured = tail_leakage(
                                flat_eigs, xi_amps, xis, interval, big_delta
                            )
                            bound = leakage_constant(delta, bc)
                            for which in ("X1", "X2"):
                                ok = measured[which] <= bound + tol["leak_slack"]
                                leak_rows.append(
                                    {
                                        "observable": obs_name,
                                        "t": t,
                                        "L": L,
                                        "p": p,
                                        "width_multiplier": mult,
                                        "which": which,
                                        "measured": measured[which],
                                        "bound": bound,
                                        "verdict": "pass" if ok else "fail",
                                    }
                                )

    if ehrenfest > tol["ehrenfest"]:
        raise GridError(
            f"oracle Ehrenfest gap {ehrenfest:.3e} exceeds {tol['ehrenfest']:.1e}"
        )
    bound_ok = all(r["verdict"] == "pass" for r in rows)
    disc_ok = all(r["verdict"] == "pass" for r in disc_rows)
    x1_ok = all(
        r["verdict"] == "pass" for r in leak_rows if r["which"] == "X1"
    )
    constants_ok = all(r["ok"] for r in constants_rows)
    closed_ok = all(v["ok"] for v in closed.values()) if closed else True
    status = (
        "pass" if (bound_ok and disc_ok and x1_ok and constants_ok and closed_ok) else "fail"
    )
    x2_bad = [r for r in leak_rows if r["which"] == "X2" and r["verdict"] != "pass"]
    if x2_bad:
        notes.append(
            f"{len(x2_bad)} X2 rows exceed the closed-form leakage constant "
            "(continuum approximation; informational, not gating)"
        )
    return VerificationReport(
        status=status,
        certificates=certificates,
        rows=rows,
        leakage_rows=leak_rows,
        discrepancy_rows=disc_rows,
        constants=constants_rows,
        closed_form=closed,
        ehrenfest=ehrenfest,
        environment=environment,
        config=cfg.to_json_dict(),
        notes=notes,
    )


def _is_example_structure(cfg: SystemConfig) -> bool:
    """True when the config carries the worked coupled-particle Hamiltonian
    (the closed-form golden check only applies there)."""
    if (cfg.system.classical, cfg.system.quantum) != (1, 1):
        return False
    if not {"m", "M", "k"} <= set(cfg.constants):
        return False
    try:
        want = parse_expression(
            "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2",
            cfg.classical_system(),
            tuple(cfg.constants),
        )
        return cfg.parse_hamiltonian() == want
    except ValueError:
        return False


def _edge_guard(state: State, tolerance: float, label: str):
    mass = state.boundary_mass()
    if mass > tolerance:
        raise GridError(
            f"{label} carries boundary mass {mass:.3e} > {tolerance:.1e}; "
            "enlarge the grids or shorten the sweep"
        )


def _exact(value: float) -> Fraction:
    """Nearest small rational: times and constants re-enter the exact
    coefficient ring before substitution."""
    return Fraction(value).limit_denominator(10**12)
