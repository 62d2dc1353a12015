"""System configuration, the worked two-particle example, and the
full-quantum verification experiment.

The half-quantum path evolves observables symbolically with the hybrid
bracket and turns margins into sandwich bounds: one certification gate
(:func:`certificates`) and one sweep (:func:`sandwich_sweep`) serve
``halfq certify``, ``halfq bounds`` and :func:`run_verification`.
Constants and times become numbers in one way, substituted exactly
(:func:`_substitutions`, :func:`_exact`) before anything is compiled, so
B, H and A(t) read the same values.

A verification run checks every sweep row against the full-quantum
evolution of psi0 = phi^C (x) phi^Q, in stages.  One :class:`Oracle`
guards psi0, compiles H, every DOF quantum, in its propagation basis, and
takes phi^C and the quantum factors to that basis once.  H is block diagonal
over its :func:`block_axes`, so the oracle lays the grid out with the
quantum block axes first and keeps an orthonormal basis of the quantum
factors' span over the other quantum axes, all-ones on the block axes
(one column in every shipped Hamiltonian); each factor is projected on
it once.  Every evolved state is phi^C (x) x for a quantum factor x:
phi^Q, and in a deep run the two leakage sectors P_S phi^Q of each row
(:func:`leakage_sectors`).  So one matrix-free Chebyshev propagation of
phi^C (x) that basis reaches every sweep time, and each psi_t is
edge-guarded in H's basis.  At each sweep point the oracle measures the
point's factors on the one-DOF spectrum of the t=0
observable, in the Schroedinger picture (unitarily identical to the
Heisenberg statement), without evolving them: each mass is a quadratic
form in the factors' coordinates, read off small tables of the
propagated columns (:func:`_gram`, :func:`_block_masses`,
:func:`_axis_masses`); the only dense eigenproblems are single-DOF
ones.  Both sides read interval probabilities off one spectral measure
(:func:`interval_mass`).
On psi0 the oracle also evaluates the exact Heisenberg observables A(t)
(:func:`heisenberg_series`; with no classical DOFs the hybrid bracket is
the commutator): <psi0|A(t)|psi0>, whose gap to the measured first moment
checks the oracle in every run, and the weights of A(t) - B.  Three row
judges read it: :func:`sandwich_rows`, :func:`leakage_rows` (X1 and X2)
and :func:`discrepancy_rows` (A(t) - B against B's margin).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .algebra import (
    AlgebraError,
    HybridExpression,
    Symbol,
    System,
    embed,
    half_quantize,
    heisenberg_series,
    weyl_quantize,
)
from .bounds import (
    BoundConfig,
    delta_L_margin,
    leakage_sectors,
    power_weights,
    prediction_bounds,
    worst_case_errors,
)
from .classicality import (
    ClassicalData,
    ClassicalDatum,
    certify,
    classicality_sequences,
)
from .grammar import parse_expression, parse_symbol
from .hilbert import (
    Grid,
    GridError,
    SpectralDecomp,
    State,
    block_axes,
    chebyshev_terms,
    compile_expression,
    evolve_full_quantum,
    fourier_axes,
    gaussian_state,
    interval_mass,
    spectral_decompose,
    tensor,
)

CONFIG_VERSION = 1

# fixed verification tolerances; every report echoes them and no config
# can change them, so a config cannot loosen the checks that judge it
TOLERANCES = {
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


# the most points of a grid, and dimensions of the quantum sector, whose dense
# matrices are built: every momentum axis gets an n x n DFT matrix and dense
# factors, and every sweep point diagonalizes the sector's dense B; one
# complex 4,096 x 4,096 matrix takes 268 MB
MAX_DENSE = 4096


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
            if not np.isfinite(raw).all():
                raise ConfigError(f"amplitude file {self.path} holds a non-finite number")
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
    def from_json_dict(raw: Mapping, what: str = "state") -> "StateSpec":
        kind = _object(raw, what, optional=None).get("kind", "gaussian")
        if kind == "file":
            _object(raw, what, required=("kind", "path"))
            return StateSpec(kind="file", path=_text(raw["path"], f"{what} path"))
        if kind != "gaussian":
            raise ConfigError(f"unknown state kind {kind!r} in {what}")
        _object(raw, what, optional=("kind", "q0", "p0", "dq"))
        dq = _finite(raw.get("dq", 1.0), "state dq")
        if dq <= 0:
            raise ConfigError(f"{what} dq must be positive, got {raw['dq']!r}")
        return StateSpec(
            kind="gaussian",
            q0=_finite(raw.get("q0", 0.0), "state q0"),
            p0=_finite(raw.get("p0", 0.0), "state p0"),
            dq=dq,
        )


@dataclass(frozen=True)
class SweepSpec:
    times: tuple
    width_multipliers: tuple
    observables: tuple  # Symbols

    def __post_init__(self):
        for field in ("times", "width_multipliers", "observables"):
            if not getattr(self, field):
                raise ConfigError(f"sweep {field} must not be empty")
        if any(m <= 1.0 for m in self.width_multipliers):
            raise ConfigError("width multipliers must exceed 1 (D > Delta_L)")


@dataclass(frozen=True)
class SystemConfig:
    """Complete declaration of a half-quantum verification experiment.

    The JSON form (:meth:`from_json_dict`) is an object with the required
    keys ``version`` (1), ``system`` (``classical``, ``quantum``: DOF
    counts, each at least 1), ``hamiltonian`` (classical form over
    q1..q(M+N), p1..p(M+N)), ``classical_grids`` and ``quantum_grids``
    (one ``npoints``, ``xmin``, ``xmax`` object per DOF),
    ``classical_data`` (one ``q0``, ``p0``, ``delta_q``, ``delta_p``
    object per classical DOF), ``classical_state`` and ``quantum_state``
    (one state object per DOF; a classical one sets no ``q0`` or ``p0``,
    which ``classical_data`` gives) and ``sweep`` (``times``,
    ``width_multipliers``, ``observables``: non-empty lists).  Optional
    keys: ``hbar`` (1.0), ``constants`` (``{}``, a map of names to
    numbers), ``bound`` (``levels`` ``[1]``, ``probabilities``
    ``[0.99]``, ``I_B`` ``null``) and ``seed`` (0).  A state object is
    ``{"kind": "gaussian"}`` (the default kind) with optional ``q0``
    (0.0), ``p0`` (0.0) and ``dq`` (1.0, positive), or ``{"kind":
    "file", "path": ...}``.  Unknown or missing keys, sections of the
    wrong JSON type, strings where numbers belong, list lengths that do
    not match the DOF counts, sweep observables outside the system, a
    Hamiltonian that does not parse or divides by a zero constant, and a
    grid or quantum sector larger than :data:`MAX_DENSE` raise
    :class:`ConfigError` in the loader, before any grid is built.  A sweep
    observable name is read as a symbol (``q01`` is q1) and printed in
    canonical form; the Hamiltonian is parsed once, in the loader, and
    kept beside its text.  Verification tolerances are fixed
    (:data:`TOLERANCES`).
    """

    system: System
    hbar: float
    constants: dict
    hamiltonian: str  # classical form over all M+N DOFs, as written
    classical_hamiltonian: HybridExpression  # ``hamiltonian`` parsed
    classical_grids: tuple
    quantum_grids: tuple
    classical_data: ClassicalData
    classical_state: tuple  # StateSpec per classical DOF
    quantum_state: tuple  # StateSpec per quantum DOF
    levels: tuple
    probabilities: tuple
    I_B: float | None
    sweep: SweepSpec
    seed: int = 0

    # -- symbolic structure ---------------------------------------------------

    def hybrid_hamiltonian(self) -> HybridExpression:
        return half_quantize(
            self.classical_hamiltonian, (self.system.classical, self.system.quantum)
        )

    def full_hamiltonian_expr(self) -> HybridExpression:
        """The Weyl-quantized Hamiltonian with every declared constant at
        its exact value (:func:`_substitutions`)."""
        return weyl_quantize(self.classical_hamiltonian.substitute_constants(_substitutions(self)))

    def all_grids(self) -> tuple:
        return tuple(self.classical_grids) + tuple(self.quantum_grids)

    # -- states -----------------------------------------------------------------

    def classical_factor(self) -> State:
        """Product of the classical packets, centered on the classical data."""
        specs = [
            replace(spec, q0=datum.q0, p0=datum.p0)
            for spec, datum in zip(self.classical_state, self.classical_data.data)
        ]
        return _product_state(specs, self.classical_grids, self.hbar, "classical factor")

    def quantum_factor(self) -> State:
        return _product_state(self.quantum_state, self.quantum_grids, self.hbar, "quantum factor")

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
            # classical_data centers the classical packets
            "classical_state": [
                {k: v for k, v in s.to_json_dict().items() if k not in ("q0", "p0")}
                for s in self.classical_state
            ],
            "quantum_state": [s.to_json_dict() for s in self.quantum_state],
            "bound": {
                "levels": list(self.levels),
                "probabilities": list(self.probabilities),
                "I_B": self.I_B,
            },
            "sweep": {
                "times": list(self.sweep.times),
                "width_multipliers": list(self.sweep.width_multipliers),
                "observables": [sym.name for sym in self.sweep.observables],
            },
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(raw: Mapping) -> "SystemConfig":
        version = _object(raw, "config", optional=None).get("version")
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}")
        _object(raw, "config", _REQUIRED_KEYS, ("hbar", "constants", "bound", "seed"))
        counts = _object(raw["system"], "system", ("classical", "quantum"))
        dofs = {k: _finite(counts[k], f"{k} DOF count", int) for k in ("classical", "quantum")}
        for key, count in dofs.items():
            if count < 1:
                raise ConfigError(f"{key} DOF count must be at least 1, got {count!r}")
        system = System(**dofs)
        hbar = _finite(raw.get("hbar", 1.0), "hbar")
        if hbar <= 0:
            raise ConfigError(f"hbar must be positive, got {hbar!r}")
        constants = {
            k: _finite(v, f"constant {k}")
            for k, v in _object(raw.get("constants", {}), "constants", optional=None).items()
        }
        if "t" in constants:
            raise ConfigError("constant 't' is reserved: t is the sweep time")
        levels, probabilities, i_b = _bound_from(raw.get("bound", {}))
        lists = _object(raw["sweep"], "sweep", ("times", "width_multipliers", "observables"))
        sweep = SweepSpec(
            times=tuple(_finite(t, "time") for t in _array(lists["times"], "sweep times")),
            width_multipliers=tuple(
                _finite(x, "width multiplier")
                for x in _array(lists["width_multipliers"], "sweep width_multipliers")
            ),
            observables=tuple(
                _observable_symbol(_text(name, "observable"), system)
                for name in _array(lists["observables"], "sweep observables")
            ),
        )
        data = []
        for i, d in enumerate(_objects(raw, "classical_data", _DATUM_KEYS)):
            datum = {k: _finite(d[k], f"classical {k}") for k in _DATUM_KEYS}
            for k in ("delta_q", "delta_p"):
                if datum[k] <= 0:
                    raise ConfigError(f"classical_data[{i}] {k} must be positive, got {d[k]!r}")
            data.append(ClassicalDatum(**datum))
        classical_data = ClassicalData(tuple(data))
        states = {
            key: tuple(
                StateSpec.from_json_dict(d, f"{key}[{i}]")
                for i, d in enumerate(_array(raw[key], key))
            )
            for key in ("classical_state", "quantum_state")
        }
        for i, d in enumerate(raw["classical_state"]):
            if d.get("kind", "gaussian") == "gaussian":
                what = f"classical_state[{i}] (classical_data[{i}] sets q0 and p0)"
                _object(d, what, optional=("kind", "dq"))
        hamiltonian = _text(raw["hamiltonian"], "hamiltonian")
        classical_hamiltonian = _parse_hamiltonian(
            hamiltonian, System(system.classical + system.quantum, 0), constants
        )
        seed = _finite(raw.get("seed", 0), "seed", int)
        grids = {
            key: [
                (
                    _finite(d["npoints"], "grid npoints", int),
                    _finite(d["xmin"], "grid xmin"),
                    _finite(d["xmax"], "grid xmax"),
                )
                for d in _objects(raw, key, ("npoints", "xmin", "xmax"))
            ]
            for key in ("classical_grids", "quantum_grids")
        }
        m, n = system.classical, system.quantum
        if len(grids["classical_grids"]) != m or len(grids["quantum_grids"]) != n:
            raise ConfigError("grid count does not match DOF counts")
        if classical_data.dofs != m:
            raise ConfigError("classical data count does not match DOF count")
        if len(states["classical_state"]) != m or len(states["quantum_state"]) != n:
            raise ConfigError("state spec count does not match DOF count")
        for key, specs in grids.items():
            for i, (npoints, _, _) in enumerate(specs):
                if npoints > MAX_DENSE:
                    raise ConfigError(
                        f"{key}[{i}] has {npoints} points; at most {MAX_DENSE} pass, "
                        "as its dense matrices are built"
                    )
        sector = math.prod(npoints for npoints, _, _ in grids["quantum_grids"])
        if sector > MAX_DENSE:
            raise ConfigError(
                f"quantum sector has {sector} dimensions; at most {MAX_DENSE} pass, "
                "as its dense B is diagonalized"
            )
        # every check above runs before any grid is built
        return SystemConfig(
            system=system,
            hbar=hbar,
            constants=constants,
            hamiltonian=hamiltonian,
            classical_hamiltonian=classical_hamiltonian,
            classical_grids=tuple(Grid(*args) for args in grids["classical_grids"]),
            quantum_grids=tuple(Grid(*args) for args in grids["quantum_grids"]),
            classical_data=classical_data,
            classical_state=states["classical_state"],
            quantum_state=states["quantum_state"],
            levels=levels,
            probabilities=probabilities,
            I_B=i_b,
            sweep=sweep,
            seed=seed,
        )

    @staticmethod
    def from_json(text: str) -> "SystemConfig":
        return SystemConfig.from_json_dict(json.loads(text))


def _parse_hamiltonian(text: str, system: System, constants: Mapping) -> HybridExpression:
    """The Hamiltonian over ``system``; a syntax error, or a constant it
    divides by whose exact value (:func:`_exact`) is zero, is a ConfigError."""
    try:
        expr = parse_expression(text, system, tuple(constants))
    except ValueError as exc:
        raise ConfigError(f"bad Hamiltonian: {exc}") from exc
    for (_, consts, _, _), _ in expr.terms():
        for name, exp in consts:
            if exp < 0 and _exact(constants[name]) == 0:
                raise ConfigError(
                    f"constant {name} = {constants[name]!r} reads as 0, "
                    "and the Hamiltonian divides by it"
                )
    return expr


def _observable_symbol(name: str, system: System) -> Symbol:
    """The fundamental observable ``name`` of ``system``; ConfigError if it
    names no symbol or one outside the system."""
    try:
        sym = parse_symbol(name)
    except AlgebraError as exc:
        raise ConfigError(f"not an observable name: {name!r}") from exc
    if not system.contains(sym):
        raise ConfigError(f"observable {name} outside the declared system")
    return sym


def _product_state(specs: Sequence, grids: Sequence[Grid], hbar: float, label: str) -> State:
    """Tensor product of one realized state per DOF, in DOF order, edge-guarded as ``label``."""
    states = [s.realize(g, hbar) for s, g in zip(specs, grids)]
    _edge_guard(label, *(_edge_masses(s.amplitudes, s.grids) for s in states))
    return reduce(tensor, states)


def _grid_dict(g: Grid) -> dict:
    return {"npoints": g.npoints, "xmin": g.xmin, "xmax": g.xmax}


def _bound_from(bound: Mapping) -> tuple:
    """(levels, probabilities, I_B) of a config's bound section; every
    (L, p) pair must make a valid :class:`BoundConfig`."""
    _object(bound, "bound", optional=("levels", "probabilities", "I_B"))
    levels = tuple(
        _finite(x, "level", int) for x in _array(bound.get("levels", [1]), "bound levels")
    )
    probabilities = tuple(
        _finite(x, "probability")
        for x in _array(bound.get("probabilities", [0.99]), "bound probabilities")
    )
    i_b = None if bound.get("I_B") is None else _finite(bound["I_B"], "I_B")
    if not levels or not probabilities:
        raise ConfigError("bound levels and probabilities must not be empty")
    for L, p in product(levels, probabilities):
        try:
            BoundConfig(L, p, i_b)
        except ValueError as exc:
            raise ConfigError(f"bad bound: {exc}") from exc
    return levels, probabilities, i_b


# keys a config and each of its classical_data entries must carry
_REQUIRED_KEYS = (
    "version", "system", "hamiltonian", "classical_grids", "quantum_grids",
    "classical_data", "classical_state", "quantum_state", "sweep",
)
_DATUM_KEYS = ("q0", "p0", "delta_q", "delta_p")


def _object(value, what: str, required=(), optional=()) -> Mapping:
    """``value`` if it is a JSON object that holds every key in ``required``
    and, unless ``optional`` is None, no key outside ``required`` and
    ``optional``; ConfigError naming the key and ``what`` otherwise."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    if optional is not None:
        allowed = set(required) | set(optional)
        unknown = sorted(k for k in value if k not in allowed)
        if unknown:
            allowed = ", ".join(sorted(allowed))
            raise ConfigError(f"unknown key {unknown[0]!r} in {what}; allowed: {allowed}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ConfigError(f"{what} is missing key {missing[0]!r}")
    return value


def _array(value, what: str) -> list:
    """``value``; ConfigError unless it is a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _objects(raw: Mapping, key: str, required: tuple) -> list:
    """The list ``raw[key]`` of objects with exactly the keys ``required``."""
    return [_object(d, f"{key}[{i}]", required) for i, d in enumerate(_array(raw[key], key))]


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _finite(value, what: str, kind=float):
    """``kind(value)``; ConfigError unless it is a finite JSON number
    (booleans and strings are not) and, for ``int``, an integral one."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{what} must be an integer, got {value!r}")
        return value if isinstance(value, int) else int(number)
    return number


# --------------------------------------------------------------------------
# the worked example


def build_example(
    npoints: int = 64,
    extent: float = 16.0,
    coupling: float = 0.1,
    classical_mass: float = 1.0,
    times: Sequence[float] = (0.0, 0.4, 0.8, 1.2),
    packet_width: float = 2.0**-0.5,
) -> SystemConfig:
    """Two coupled particles: quantum kinetic + classical kinetic + k q P.

    Defaults: unit masses (the quantum mass is always 1), k = 0.1,
    hbar = 1, 64-point grids, classical packet at the center of the
    Gaussian feasibility window for L <= 2; bounds at L in {1, 2} and
    p in {0.9, 0.99}.
    """
    grid = {"npoints": npoints, "xmin": -extent, "xmax": extent}
    raw = {
        "version": CONFIG_VERSION,
        "system": {"classical": 1, "quantum": 1},
        "hbar": 1.0,
        "constants": {"m": classical_mass, "M": 1.0, "k": coupling},
        "hamiltonian": "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2",
        "classical_grids": [grid],
        "quantum_grids": [grid],
        "classical_data": [{"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0}],
        "classical_state": [{"kind": "gaussian", "dq": packet_width}],
        "quantum_state": [{"kind": "gaussian", "q0": 0.0, "p0": 1.0, "dq": 1.0}],
        "bound": {"levels": [1, 2], "probabilities": [0.9, 0.99], "I_B": None},
        "sweep": {
            "times": list(times),
            "width_multipliers": [1.25, 2.0, 4.0],
            "observables": ["q1", "p1", "Q1", "P1"],
        },
        "seed": 0,
    }
    return SystemConfig.from_json_dict(raw)


def hybrid_solutions(cfg: SystemConfig) -> dict:
    """{Symbol: hybrid-bracket time evolution} of every fundamental
    observable, in :meth:`System.fundamental_symbols` order."""
    system = cfg.system
    h_tilde = cfg.hybrid_hamiltonian()
    return {
        sym: heisenberg_series(system.symbol(sym), h_tilde)
        for sym in system.fundamental_symbols()
    }


def reference_constants() -> list:
    """The worst-case sandwich-error constants (:func:`worst_case_errors`)
    at the two reference settings, (L, p) = (1, 0.99) and (10, 0.99999)."""
    return [worst_case_errors(BoundConfig(L, p)) for L, p in ((1, 0.99), (10, 0.99999))]


# --------------------------------------------------------------------------
# the half-quantum prediction


def certificates(cfg: SystemConfig, sols: Mapping) -> dict:
    """Classicality certificate of the classical factor per order L.

    The sequences come from the classical dependence of the hybrid
    solutions ``sols``; the sandwich rows at order L apply only where the
    certificate at L passes.
    """
    sequences = classicality_sequences(sols.values(), cfg.system.classical)
    phi_c = cfg.classical_factor()
    cfg.quantum_factor()  # refuses a quantum packet the grids miss, as the sweep would
    return {
        L: certify(phi_c, cfg.classical_data, L, sequences, cfg.hbar)
        for L in cfg.levels
    }


@dataclass(frozen=True)
class SandwichPoint:
    """The half-quantum prediction at one sweep (observable, t).

    ``expr`` is the exact sector expression B of the fundamental observable
    ``observable`` (a Symbol) at time ``t``, classical symbols free;
    ``margins`` maps each order L to its margin; ``rows`` holds one
    :class:`PredictionBound` per (L, p, width multiplier), each centered on
    ``a0 = <phi^Q|B|phi^Q>``.
    """

    observable: Symbol
    t: Fraction
    expr: HybridExpression
    margins: dict
    rows: tuple

    def key(self) -> dict:
        """The observable and t that every row of this point carries."""
        return {"observable": self.observable.name, "t": float(self.t)}


def sandwich_sweep(cfg: SystemConfig, sols: Mapping, levels: Sequence[int]):
    """Yield ``(point, decomp, amplitudes)`` for every sweep observable and
    time, observables outer, at each distinct order in ``levels``: the
    :class:`SandwichPoint`, B's spectrum, and phi^Q's projections on B's
    eigenbasis, taken once, whose squared moduli are the spectral measure
    every row reads.  A point whose B equals the previous point's (a
    conserved observable) reuses its spectrum, projections, margins and
    rows, with no second ``eigh``, under its own observable and t."""
    phi_q = cfg.quantum_factor()
    centers = cfg.classical_data.centers()
    subs = _substitutions(cfg)
    point = None
    for sym in cfg.sweep.observables:
        for t in cfg.sweep.times:
            t_exact = _exact(t)
            expr = sols[sym].substitute_constants(subs | {"t": t_exact})
            if point is not None and expr == point.expr:
                point = replace(point, observable=sym, t=t_exact)
                yield point, decomp, amplitudes
                continue
            b = compile_expression(expr, centers, cfg.quantum_grids, cfg.hbar)
            decomp = spectral_decompose(b.dense())
            amplitudes = decomp.amplitudes(phi_q.amplitudes)
            masses = np.abs(amplitudes) ** 2
            a0 = float(decomp.eigenvalues @ masses)
            margins = delta_L_margin(expr, cfg.classical_data, phi_q, cfg.hbar, levels)
            rows = tuple(
                prediction_bounds(
                    decomp.eigenvalues, masses, BoundConfig(L, p, cfg.I_B), a0, mult, margin
                )
                for L, margin in margins.items()
                for p in cfg.probabilities
                for mult in cfg.sweep.width_multipliers
            )
            point = SandwichPoint(sym, t_exact, expr, margins, rows)
            yield point, decomp, amplitudes


# --------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    status: str  # pass | fail | not_applicable
    certificates: dict
    rows: list
    leakage_rows: list
    discrepancy_rows: list
    ehrenfest: float | None  # None when no order certified and no oracle ran
    environment: dict
    config: dict
    notes: list

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def csv_rows(self) -> list:
        """Plot-ready (observable, L, p, multiplier, t, lower, oracle, upper)."""
        keys = ("observable", "L", "p", "width_multiplier", "t", "lower", "oracle_P", "upper")
        header = tuple("oracle" if k == "oracle_P" else k for k in keys)
        return [header] + [tuple(row[k] for k in keys) for row in self.rows]


def run_verification(
    cfg: SystemConfig, deep: bool = True, progress=None
) -> VerificationReport:
    """Full verification: certify, evolve, and check every sweep row.

    The certification gate is :func:`certificates` and the sandwich rows
    are those of :func:`sandwich_sweep` at the certified orders.  One
    :class:`Oracle` evolves phi^Q and, when ``deep``, each row's two
    leakage sectors; each point is measured once and judged by
    :func:`sandwich_rows`, :func:`leakage_rows` and, when ``deep``,
    :func:`discrepancy_rows`.  Raises :class:`GridError` when a state
    leaks probability onto the grid boundary (unconverged setup) or the
    oracle's Ehrenfest gap exceeds its tolerance.
    """
    note = progress or (lambda msg: None)
    sols = hybrid_solutions(cfg)
    certs = certificates(cfg, sols)
    levels = [L for L, cert in certs.items() if cert.passed]
    rows, leak_rows, disc_rows, ehrenfest = [], [], [], None
    if levels:
        # a deep run also evolves the two leakage sectors of each row with
        # I_B > 0, binned against its point's B as the sweep yields it, as
        # factors after phi_q; no point keeps its eigenbasis
        points, sectors = [], [cfg.quantum_factor().amplitudes]
        for point, decomp, amplitudes in sandwich_sweep(cfg, sols, levels):
            bounds = [pb for pb in point.rows if deep and pb.I_B > 0]
            sectors += [
                leakage_sectors(decomp, amplitudes, pb.I_B, pb.Imax, pb.Imin) for pb in bounds
            ]
            points.append((point, bounds))
        factors = np.column_stack(sectors)
        oracle = Oracle(cfg, cfg.full_hamiltonian_expr(), factors, progress)
        ehrenfest, start = 0.0, 1
        for point, bounds in points:
            note(f"observable {point.observable.name}, t={float(point.t)}")
            columns = [0, *range(start, start + 2 * len(bounds))]
            start += 2 * len(bounds)
            values, masses, reference = oracle.measure(point, columns)
            # <psi_t|A|psi_t> is the first moment of psi_t's spectral masses
            ehrenfest = max(ehrenfest, abs(reference - values @ masses[:, 0]))
            if deep:
                disc_rows += discrepancy_rows(point, oracle.discrepancy(point))
            rows += sandwich_rows(point, values, masses)
            leak_rows += leakage_rows(point, bounds, values, masses)
        if ehrenfest > TOLERANCES["ehrenfest"]:
            raise GridError(
                f"oracle Ehrenfest gap {ehrenfest:.3e} exceeds {TOLERANCES['ehrenfest']:.1e}"
            )
    return _report(cfg, certs, rows, leak_rows, disc_rows, ehrenfest)


def _report(cfg, certs, rows, leak_rows, disc_rows, ehrenfest) -> VerificationReport:
    """A run's report: its rows with the status, notes and environment."""
    notes = [note for note in [exact_zero_note(cfg)] if note] + [
        f"classical data not {L}-order valid: bounds at L={L} not applicable"
        for L, cert in certs.items() if not cert.passed
    ]
    gating = rows + disc_rows + [r for r in leak_rows if r["which"] == "X1"]
    passed = all(r["verdict"] == "pass" for r in gating)
    status = "not_applicable" if ehrenfest is None else "pass" if passed else "fail"
    x2_bad = [r for r in leak_rows if r["which"] == "X2" and r["verdict"] != "pass"]
    if x2_bad:
        notes.append(
            f"{len(x2_bad)} X2 rows exceed the closed-form leakage constant "
            "(continuum approximation; informational, not gating)"
        )
    shape = tuple(g.npoints for g in cfg.all_grids())
    environment = {
        "halfq_version": __version__,
        "numpy_version": np.__version__,
        "grid_shape": list(shape),
        "full_dimension": int(np.prod(shape)),
        "tolerances": dict(sorted(TOLERANCES.items())),
        "seed": cfg.seed,
        "picture": "schroedinger-equivalent",
    }
    certificate_dicts = {str(L): cert.to_json_dict() for L, cert in certs.items()}
    return VerificationReport(
        status, certificate_dicts, rows, leak_rows, disc_rows, ehrenfest, environment,
        cfg.to_json_dict(), notes,
    )


class Oracle:
    """The full-quantum side of a run: built once, then measured per point.

    Built from ``cfg``, H's exact expression ``h_expr`` and the quantum
    ``factors`` (an (N_Q, K) array, phi^Q first), it edge-guards psi0 =
    phi^C (x) phi^Q by its factors and forms it, compiles H, takes the
    factors and phi^C to H's basis once, owns the blocked layout, projects
    each factor once, propagates, edge-guards each later psi_t in H's basis,
    and builds each sweep observable's one-DOF spectrum and exact A(t).
    :meth:`measure` and :meth:`discrepancy` read a point at its t.
    """

    def __init__(self, cfg: SystemConfig, h_expr: HybridExpression, factors, progress=None):
        grids = cfg.all_grids()
        phi_c, phi_q = cfg.classical_factor(), State(factors[:, 0], cfg.quantum_grids)
        _edge_guard("initial state", *(_edge_masses(s.amplitudes, s.grids) for s in (phi_c, phi_q)))
        self.psi0 = tensor(phi_c, phi_q)
        if progress is not None:
            progress("compiling full-quantum Hamiltonian")
        self.cfg, self.h_expr, self.shape = cfg, h_expr, tuple(g.npoints for g in grids)
        self.h_op = compile_expression(h_expr, {}, grids, cfg.hbar, fourier_axes(h_expr))
        # on H's quantum block axes (C) a column all-ones in H's basis
        # carries every block, so the blocked layout puts them first, then
        # the other axes in order; every array here is in H's basis
        m, fourier = cfg.system.classical, self.h_op.fourier
        self.blocks = [a for a in block_axes(self.h_op) if a >= m]
        self.order = self.blocks + [a for a in range(len(self.shape)) if a not in self.blocks]
        quantum = (1,) * m + self.shape[m:]  # a quantum factor on the full grid's axes
        factors = np.fft.fftn(factors.reshape(quantum + (-1,)), axes=fourier, norm="ortho")
        # an orthonormal basis of the factors' span over the other quantum
        # axes (A) at every block index, r = min(N_A, N_C K); the factors lie
        # in it exactly, so no rank tolerance enters
        factors = self._blocked(factors, quantum)
        basis = np.linalg.qr(np.hstack(factors))[0]
        self.coordinates = basis.conj().T @ factors  # x[c] = basis^H factor[c]
        times = tuple(dict.fromkeys(map(_exact, cfg.sweep.times)))
        t_floats = [float(t) for t in times]
        if progress is not None:
            # the rotated axes are named by DOF number, as in the Hamiltonian's Q_a
            rotated = ", ".join(str(axis + 1) for axis in fourier)
            progress(
                f"propagating r={basis.shape[1]} columns to {len(times)} times in "
                f"{chebyshev_terms(self.h_op, t_floats)} Chebyshev terms; "
                + (f"Fourier basis on axes {rotated}" if rotated else "position basis")
            )
        columns = self._unblocked(np.broadcast_to(basis, (len(factors),) + basis.shape), quantum)
        phi_c = phi_c.amplitudes.reshape(self.shape[:m] + (1,) * len(quantum[m:]))
        phi_c = np.fft.fftn(phi_c, axes=fourier, norm="ortho")
        columns = np.kron(phi_c.reshape(-1, 1), columns)
        self.propagated = dict(zip(times, self.propagate(columns, t_floats)))
        for t in filter(None, times):  # t = 0 is psi0, guarded above
            psi = self._unblocked(np.matmul(self.propagated[t], self.coordinates[..., :1]))
            _edge_guard(f"state at t={float(t)}", _edge_masses(psi, grids, fourier))
        self.observables = {sym: self._observable(cfg, sym) for sym in cfg.sweep.observables}
        self.grams = {}  # (t, place) -> the Gram table of a block axis at t

    def propagate(self, columns: np.ndarray, times: Sequence[float]) -> list:
        """The (dim, r) ``columns`` phi_c (x) basis, in H's basis, evolved to
        each of ``times`` in one recurrence, as W_t in the blocked layout:
        at each block index c, exp(-iHt/hbar)(phi_c (x) x) = W_t[c] basis^H x[c]."""
        return [self._blocked(w) for w in evolve_full_quantum(self.h_op, columns, times)]

    def _observable(self, cfg: SystemConfig, sym: Symbol) -> tuple:
        """The place of ``sym``'s axis (classical DOFs first) in the blocked
        layout, the one-DOF spectrum of the t=0 operator A, Q or P on that
        axis in H's basis, and the exact Heisenberg-picture series A(t)
        under H, whose one free constant is t."""
        axis = sym.index - 1 + (0 if sym.is_classical else cfg.system.classical)
        quantized = Symbol.P if sym.is_momentum else Symbol.Q
        one = System(0, 1).symbol(quantized(1))
        grid = (cfg.all_grids()[axis],)
        fourier = (0,) if axis in self.h_op.fourier else ()
        base_op = compile_expression(one, {}, grid, cfg.hbar, fourier)
        series = heisenberg_series(self.h_expr.system.symbol(quantized(axis + 1)), self.h_expr)
        return self.order.index(axis), spectral_decompose(base_op.dense()), series

    def measure(self, point: SandwichPoint, columns: Sequence[int]) -> tuple:
        """(eigenvalues, masses, reference): the spectrum of ``point``'s t=0
        observable, the spectral masses of the factor ``columns`` evolved to
        its t, one column each, and <psi0|A(t)|psi0>.  Each mass is a
        quadratic form in the columns' coordinates x[c], read off a table of
        W_t (:func:`_gram`, :func:`_block_masses` and :func:`_axis_masses`);
        no evolved factor is formed."""
        place, decomp, _ = self.observables[point.observable]
        layout, nb = tuple(self.shape[a] for a in self.order), len(self.blocks)
        x = self.coordinates[..., columns]
        if place < nb:
            # one Gram table per (t, block axis), shared by its observables
            split, key = _split(layout[:nb], place), (point.t, place)
            if key not in self.grams:
                self.grams[key] = _gram(self.propagated[point.t], split)
            masses = _block_masses(self.grams[key], x, decomp, split)
        else:
            split = _split(layout[nb:], place - nb)
            masses = _axis_masses(self.propagated[point.t], x, decomp, split)
        psi0 = self.psi0.amplitudes
        a_op = compile_expression(self._heisenberg(point), {}, self.psi0.grids, self.cfg.hbar)
        return decomp.eigenvalues, masses, np.vdot(psi0, a_op.apply(psi0))

    def _heisenberg(self, point: SandwichPoint) -> HybridExpression:
        """The exact Heisenberg observable A(t) of ``point``'s observable at its t."""
        return self.observables[point.observable][2].substitute_constants({"t": point.t})

    def discrepancy(self, point: SandwichPoint) -> dict:
        """{L: ||(A(t) - B)^L psi0||^(1/L)} at each order L of ``point``'s
        margins, B's classical symbols at their centres as in the sweep."""
        # A(t) - B over M classical and M + N quantum DOFs, B's quantum DOF a at M + a
        full = System(self.cfg.system.classical, len(self.shape))
        diff = embed(self._heisenberg(point), full, 0) - embed(point.expr, full, full.classical)
        centers = self.cfg.classical_data.centers()
        return power_weights(diff, centers, self.psi0, self.cfg.hbar, point.margins)

    def _blocked(self, x: np.ndarray, grid: tuple | None = None) -> np.ndarray:
        """A (dim, k) batch on ``grid`` (default: the full grid) in the
        blocked layout, (N_C, rest, k): its axes permuted, block axes first."""
        x = x.reshape((grid or self.shape) + (-1,))
        x = np.moveaxis(x, self.blocks, range(len(self.blocks)))
        return x.reshape(math.prod(self.shape[a] for a in self.blocks), -1, x.shape[-1])

    def _unblocked(self, x: np.ndarray, grid: tuple | None = None) -> np.ndarray:
        """The (dim, k) batch on ``grid`` of a blocked one."""
        x = x.reshape(tuple((grid or self.shape)[a] for a in self.order) + (-1,))
        return np.moveaxis(x, range(len(self.blocks)), self.blocks).reshape(-1, x.shape[-1])


def _split(dims: tuple, place: int) -> tuple:
    """(before, n, after): the sizes of ``dims`` before ``place``, at it and after it."""
    return math.prod(dims[:place]), dims[place], math.prod(dims[place + 1:])


def _gram(w: np.ndarray, split: tuple) -> np.ndarray:
    """G_t for an observable on a block axis: with W_t = ``w``, (N_C, R, r),
    and ``split`` the block axes' sizes around that axis, one Gram matrix
    over R of (that axis's index a, column s) per index g of the other
    block axes, (N_g, n r, n r); it depends on t alone."""
    before, n, after = split
    m = w.reshape(before, n, after, -1, w.shape[-1]).transpose(0, 2, 3, 1, 4)
    m = m.reshape(before * after, m.shape[2], -1)
    return np.matmul(m.conj().swapaxes(1, 2), m)


def _block_masses(gram: np.ndarray, x: np.ndarray, decomp: SpectralDecomp, split) -> np.ndarray:
    """(n, k) masses of the columns ``x``, (N_C, r, k), on ``decomp``'s
    eigenbasis V of a block axis: masses[i, j] = sum_g u^H G_g u with
    u[(a, s)] = V^H[i, a] x_j[(g, a), s], for the :func:`_gram` table."""
    before, n, after = split
    _, r, k = x.shape
    x = x.reshape(before, n, after, r, k).swapaxes(1, 2)
    u = decomp.eigenvectors.conj()[:, None, :, None] * x[..., None, :]
    u = u.reshape(before * after, n * r, n * k)
    gu = np.matmul(gram, u)
    gu *= np.conjugate(u, out=u)  # u is spent: no third array of its size
    return gu.real.sum(axis=(0, 1)).reshape(n, k)


def _axis_masses(w: np.ndarray, x: np.ndarray, decomp: SpectralDecomp, split) -> np.ndarray:
    """(n, k) masses of the columns ``x``, (N_C, r, k), on ``decomp``'s
    eigenbasis V of an axis inside R, with W_t = ``w``, (N_C, R, r), and
    ``split`` R's sizes around that axis.  Y = V^H on that axis of W_t gives
    the r x r tables H[c, i] = Y_i[c]^H Y_i[c], and masses[i, j] =
    sum_c x_j[c]^H H[c, i] x_j[c]."""
    before, n, after = split
    n_c, _, r = w.shape
    y = decomp.amplitudes(w.reshape(n_c * before, n, after * r), 1)
    # Y_i[c] is (before * after, r); a view unless the axis has both sides
    y = y.reshape(n_c, before, n, after, r).transpose(0, 2, 1, 3, 4).reshape(n_c, n, -1, r)
    h = np.matmul(y.conj().swapaxes(2, 3), y).reshape(n_c, n, r * r)
    outer = x.conj()[:, :, None] * x[:, None]  # [c, s, s', j] = conj(x[c, s, j]) x[c, s', j]
    return np.matmul(h.swapaxes(0, 1).reshape(n, -1), outer.reshape(n_c * r * r, -1)).real


def sandwich_rows(point: SandwichPoint, values: np.ndarray, masses: np.ndarray) -> list:
    """``point``'s sandwich rows, each with its oracle probability (the
    mass that column 0 of ``masses``, on the eigenvalues ``values``, puts
    in I0) and whether it lies in [lower, upper] up to the slack."""
    rows = []
    for pb in point.rows:
        oracle_p = float(interval_mass(values, masses, pb.I0)[0])
        slack = TOLERANCES["bound_slack" if pb.Delta_L > 0 else "degenerate_slack"]
        ok = pb.lower - slack <= oracle_p <= pb.upper + slack
        row = pb.to_json_dict() | point.key()
        rows.append(row | dict(D=pb.D, oracle_P=oracle_p, verdict="pass" if ok else "fail"))
    return rows


def leakage_rows(point: SandwichPoint, bounds: Sequence, values: np.ndarray, masses) -> list:
    """The X1 and X2 rows of ``point``'s sandwich rows ``bounds``, whose
    sector pairs are the columns of ``masses`` after 0: X1 is a row's first
    sector's mass in I0, X2 its second's outside it."""
    rows, totals = [], masses.sum(axis=0)
    sector_masses = masses[:, 1:].reshape(len(masses), -1, 2).swapaxes(0, 1)
    for pb, pair, total in zip(bounds, sector_masses, totals[1:].reshape(-1, 2)):
        inside = interval_mass(values, pair, pb.I0)
        for which, mass in (("X1", inside[0]), ("X2", total[1] - inside[1])):
            measured = float(mass)
            ok = measured <= pb.leakage + TOLERANCES["leak_slack"]
            rows.append(point.key() | dict(
                L=pb.L, p=pb.p, width_multiplier=pb.width_multiplier, which=which,
                measured=measured, bound=pb.leakage, verdict="pass" if ok else "fail",
            ))
    return rows


def discrepancy_rows(point: SandwichPoint, weights: Mapping) -> list:
    """One row per order L of ``point``: ``weights[L]``, the weight of the exact
    A(t) - B on psi0 (:meth:`Oracle.discrepancy`), against B's margin at L."""
    rows = []
    for L, margin in point.margins.items():
        lhs, rhs = weights[L], margin.with_second_order
        ok = lhs <= rhs * (1 + TOLERANCES["discrepancy_slack"])
        rows.append(point.key() | dict(L=L, lhs=lhs, rhs=rhs, verdict="pass" if ok else "fail"))
    return rows


def _edge_masses(x: np.ndarray, grids: tuple, fourier: tuple = ()) -> np.ndarray:
    """[boundary, momentum edge]: the marginal masses of the state ``x`` on
    ``grids`` (unitary DFT on the axes ``fourier``, else position) on
    each axis's two outermost cells and unitary-DFT modes n/2 - 1 to n/2 + 1,
    summed over the axes.  A marginal sums over the other axes in any basis,
    so an axis takes one 1-D transform, to the basis it is not in; a product
    of unit factors has the sum of its factors' masses."""
    x, masses = x.reshape([g.npoints for g in grids]), np.zeros(2)
    for a, n in enumerate(x.shape):
        other = (np.fft.ifft if a in fourier else np.fft.fft)(x, axis=a, norm="ortho")
        position, momentum = (other, x) if a in fourier else (x, other)
        edges = ((position, [0, n - 1]), (momentum, range(n // 2 - 1, n // 2 + 2)))
        masses += [np.sum(np.abs(np.take(y, cells, axis=a)) ** 2) for y, cells in edges]
    return masses


def _edge_guard(label: str, *masses: np.ndarray) -> None:
    """GridError naming ``label`` if the summed :func:`_edge_masses` are too large."""
    for edge, mass in zip(("boundary", "momentum-edge"), sum(masses)):
        if mass > TOLERANCES["edge_mass"]:
            raise GridError(
                f"{label} carries {edge} mass {mass:.3e} > {TOLERANCES['edge_mass']:.1e}; "
                "widen or refine the grids, or shorten the sweep"
            )


def _exact(value: float) -> Fraction:
    """Times and constants re-enter the exact coefficient ring as the nearest
    rational of denominator <= 10^12 when it is the same float (0.4 -> 2/5) or
    0 (below 5e-13, named by :func:`exact_zero_note`), else as the float's
    exact value: no other nonzero value moves."""
    near = Fraction(value).limit_denominator(10**12)
    return near if not near or float(near) == value else Fraction(value)


def exact_zero_note(cfg: SystemConfig) -> str | None:
    """The note naming each nonzero constant and sweep time that the exact
    layer reads as 0 (:func:`_exact`), or None when there is none."""
    zeros = [f"constant {name} = {v!r}" for name, v in cfg.constants.items() if v and not _exact(v)]
    zeros += [f"time {t!r}" for t in dict.fromkeys(cfg.sweep.times) if t and not _exact(t)]
    if not zeros:
        return None
    return f"{', '.join(zeros)} read as 0: the exact layer resolves no value below 5e-13"


def _substitutions(cfg: SystemConfig) -> dict:
    """Exact values of the declared constants: the one way a constant
    becomes a number, in B, A(t) and H alike."""
    return {name: _exact(v) for name, v in cfg.constants.items()}
