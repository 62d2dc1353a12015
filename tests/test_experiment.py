"""Configs, the worked example, and the verification harness (small grids)."""

import json
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from halfq.algebra import Symbol
from halfq.classicality import certify, classicality_sequences, gaussian_feasibility
from halfq.experiment import (
    TOLERANCES,
    _edge_masses,
    ConfigError,
    StateSpec,
    SystemConfig,
    build_example,
    hybrid_solutions,
    run_verification,
    sandwich_sweep,
)
from halfq.hilbert import Grid, GridError, SpectralDecomp, compile_expression, gaussian_state


def small_example(**overrides):
    kwargs = {"npoints": 32, "extent": 8.0}
    kwargs.update(overrides)
    return build_example(**kwargs)


def test_config_json_round_trip():
    cfg = build_example()
    text = cfg.to_json()
    again = SystemConfig.from_json(text)
    assert again.to_json() == text


def test_config_version_gate():
    raw = build_example().to_json_dict()
    raw["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        SystemConfig.from_json_dict(raw)


def test_config_validates_counts():
    raw = build_example().to_json_dict()
    raw["classical_grids"] = []
    with pytest.raises(ConfigError, match="grid count"):
        SystemConfig.from_json_dict(raw)


def test_config_rejects_bad_hamiltonian():
    raw = build_example().to_json_dict()
    raw["hamiltonian"] = "p1^2 + q7"
    with pytest.raises(ConfigError, match="Hamiltonian"):
        SystemConfig.from_json_dict(raw)


def _sized(classical: int, quantum: list) -> dict:
    """The example with a ``classical``-point classical grid and one quantum
    DOF per entry of ``quantum``, on grids of that many points."""
    raw = build_example().to_json_dict()
    grids = [{"npoints": n, "xmin": -16.0, "xmax": 16.0} for n in [classical, *quantum]]
    kinetic = " + ".join(f"p{i}^2" for i in range(1, len(grids) + 1))
    return raw | {
        "system": {"classical": 1, "quantum": len(quantum)},
        "hamiltonian": kinetic + " + k*q1*p2",
        "classical_grids": grids[:1],
        "quantum_grids": grids[1:],
        "quantum_state": raw["quantum_state"] * len(quantum),
    }


@pytest.mark.parametrize(
    "classical, quantum, match",
    [
        (4097, [32], r"classical_grids\[0\] has 4097 points; at most 4096 pass"),
        (32, [4097], r"quantum_grids\[0\] has 4097 points; at most 4096 pass"),
        (32, [64, 65], "quantum sector has 4160 dimensions; at most 4096 pass"),
    ],
)
def test_config_refuses_dense_matrices_it_cannot_build(classical, quantum, match, monkeypatch):
    # a grid's n x n DFT matrix and the quantum sector's dense B are capped
    # at 4,096: the 1+2 sector at 64 points, exactly at the cap, loads, and
    # the loader refuses sizes just above it before any grid or array exists
    import halfq.experiment
    import halfq.hilbert

    assert SystemConfig.from_json_dict(_sized(64, [64, 64])).full_hamiltonian_expr()
    raw = _sized(classical, quantum)

    def built(*args, **kwargs):
        raise AssertionError("a grid or array was built")

    for module, name in ((halfq.experiment, "Grid"), (halfq.hilbert, "_fourier_basis"),
                         (np, "zeros"), (np, "empty"), (np, "eye")):
        monkeypatch.setattr(module, name, built)
    with pytest.raises(ConfigError, match=match):
        SystemConfig.from_json_dict(raw)


def test_config_rejects_narrow_multipliers():
    raw = build_example().to_json_dict()
    raw["sweep"]["width_multipliers"] = [0.9]
    with pytest.raises(ConfigError, match="exceed"):
        SystemConfig.from_json_dict(raw)


MISSING = object()  # the key is deleted instead of set


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("hbar",), -1.0, "hbar must be positive"),
        (("hbar",), 0.0, "hbar must be positive"),
        (("constants", "k"), float("nan"), "constant k must be a finite number"),
        (
            ("tolerances",),
            {"edge_mass": 1.0, "ehrenfest": 1e3},
            "unknown key 'tolerances' in config",
        ),
        (("sweep", "times"), [], "sweep times must not be empty"),
        (("sweep", "observables"), [], "sweep observables must not be empty"),
        (("sweep", "width_multipliers"), [], "sweep width_multipliers must not be empty"),
        (("bound", "probabilities"), [], "levels and probabilities must not be empty"),
        (("bound", "levels"), [], "levels and probabilities must not be empty"),
        (("bound", "levels"), [1.5, 2.9], "level must be an integer, got 1.5"),
        (("classical_grids", 0, "npoints"), 32.7, "grid npoints must be an integer"),
        (("system", "classical"), 1.9, "classical DOF count must be an integer"),
        (("system", "quantum"), True, "quantum DOF count must be a finite number, got True"),
        (("bound", "probabilities"), [0.9, 1.0], r"probability p must lie in \(0,1\)"),
        (("bound", "levels"), [0, 1], "order L must be a positive integer"),
        (("bound", "I_B"), -0.5, "I_B must be positive"),
        (("bound", "I_B"), 0.0, "bad bound: I_B must be positive"),
        (("h_bar",), 0.5, "unknown key 'h_bar' in config; allowed: .*hbar"),
        (("bound", "level"), [1, 2], "unknown key 'level' in bound; allowed: .*levels"),
        (("quantum_state", 0, "width"), 1.0, r"unknown key 'width' in quantum_state\[0\]"),
        (("classical_grids", 0, "n"), 32, r"unknown key 'n' in classical_grids\[0\]"),
        (("system", "quantun"), 1, "unknown key 'quantun' in system"),
        (("sweep", "time"), [0.0], "unknown key 'time' in sweep"),
        (("classical_data", 0, "dq"), 1.0, r"unknown key 'dq' in classical_data\[0\]"),
        (("hamiltonian",), MISSING, "config is missing key 'hamiltonian'"),
        (
            ("classical_data", 0, "delta_p"),
            MISSING,
            r"classical_data\[0\] is missing key 'delta_p'",
        ),
        (("quantum_grids", 0, "xmax"), MISSING, r"quantum_grids\[0\] is missing key 'xmax'"),
        (("system", "quantum"), MISSING, "system is missing key 'quantum'"),
        (("sweep",), 5, "sweep must be an object, got 5"),
        (("bound",), [1, 2], "bound must be an object"),
        (("constants",), [1.0], "constants must be an object"),
        (("classical_state", 0), 2.0, r"classical_state\[0\] must be an object"),
        (("sweep", "times"), 0.4, "sweep times must be a list, got 0.4"),
        (("classical_grids",), {"npoints": 32}, "classical_grids must be a list"),
        (("sweep", "observables"), [1], "observable must be a string, got 1"),
        (("hamiltonian",), 5, "hamiltonian must be a string, got 5"),
        (
            ("quantum_state", 0, "kind"),
            "gausian",
            r"unknown state kind 'gausian' in quantum_state\[0\]",
        ),
        (("quantum_state", 0), {"kind": "file"}, r"quantum_state\[0\] is missing key 'path'"),
        (("quantum_state", 0), {"kind": "file", "path": 5}, "path must be a string, got 5"),
        (("hbar",), "1.0", "hbar must be a finite number, got '1.0'"),
        (("classical_grids", 0, "npoints"), "32", "grid npoints must be a finite number"),
        (("bound", "levels"), ["1", "2"], "level must be a finite number, got '1'"),
        (("constants", "t"), 5.0, "constant 't' is reserved"),
        (
            ("classical_data", 0, "delta_q"),
            0.0,
            r"classical_data\[0\] delta_q must be positive, got 0\.0",
        ),
        (
            ("classical_data", 0, "delta_p"),
            -1,
            r"classical_data\[0\] delta_p must be positive, got -1",
        ),
        (("classical_state", 0, "q0"), 3.0, r"unknown key 'q0' in classical_state\[0\]"),
        (("classical_state", 0, "p0"), 0.0, r"unknown key 'p0' in classical_state\[0\]"),
        # the example Hamiltonian holds p2^2/(2*M)
        (
            ("constants", "M"),
            0.0,
            r"constant M = 0\.0 reads as 0, and the Hamiltonian divides by it",
        ),
        (("constants", "M"), 1e-13, "constant M = 1e-13 reads as 0"),
        (("hbar",), 10**400, "hbar must be a finite number"),
        (("quantum_state", 0, "dq"), 0, r"quantum_state\[0\] dq must be positive, got 0"),
        (("classical_state", 0, "dq"), -0.5, r"classical_state\[0\] dq must be positive"),
        (("system", "quantum"), 0, "quantum DOF count must be at least 1, got 0"),
        (("system", "quantum"), -1, "quantum DOF count must be at least 1, got -1"),
        (("sweep", "observables"), ["q1", "x1"], "not an observable name: 'x1'"),
        (("sweep", "observables"), ["Q2"], "observable Q2 outside the declared system"),
        (
            ("classical_data",),
            [{"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0}] * 2,
            "classical data count does not match DOF count",
        ),
        (("quantum_state",), [{"kind": "gaussian"}] * 2, "state spec count does not match"),
    ],
    ids=[
        "hbar-negative", "hbar-zero", "k-nan", "tolerances-section",
        "times-empty", "observables-empty", "multipliers-empty",
        "probabilities-empty", "levels-empty", "level-fractional",
        "npoints-fractional", "dof-count-fractional", "dof-count-bool",
        "probability-one", "level-zero", "I_B-negative", "I_B-zero",
        "hbar-typo", "levels-typo", "state-width-typo", "grid-unknown-key",
        "system-unknown-key", "sweep-unknown-key", "datum-unknown-key",
        "hamiltonian-missing", "delta_p-missing", "grid-xmax-missing",
        "dof-count-missing", "sweep-not-object", "bound-not-object",
        "constants-not-object", "state-not-object", "times-not-list",
        "grids-not-list", "observable-not-string", "hamiltonian-not-string",
        "state-kind-typo", "file-state-path-missing", "file-state-path-number",
        "hbar-string", "npoints-string", "levels-strings", "constant-t-reserved",
        "delta_q-zero", "delta_p-negative", "classical-state-q0", "classical-state-p0",
        "divisor-constant-zero", "divisor-constant-below-precision",
        "hbar-overflow", "quantum-dq-zero", "classical-dq-negative", "dof-count-zero",
        "dof-count-negative", "observable-not-a-symbol", "observable-outside-system",
        "classical-data-extra", "quantum-state-extra",
    ],
)
def test_config_rejects_bad_numbers_before_any_grid(monkeypatch, path, value, match):
    import halfq.experiment

    raw = build_example().to_json_dict()
    section = raw
    for key in path[:-1]:
        section = section[key]
    if value is MISSING:
        del section[path[-1]]
    else:
        section[path[-1]] = value

    def no_grid(*args):
        raise AssertionError("a grid was built before the numbers were checked")

    monkeypatch.setattr(halfq.experiment, "Grid", no_grid)
    with pytest.raises(ConfigError, match=match):
        SystemConfig.from_json(json.dumps(raw))


def test_benchmark_configs_load_and_round_trip():
    # every config document the benchmark generates must pass the loader
    # unchanged; the module is read by path so the benchmark stays as it is
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def contains(whole, part):
        if isinstance(part, dict):
            return all(k in whole and contains(whole[k], v) for k, v in part.items())
        if isinstance(part, list):
            return len(whole) == len(part) and all(map(contains, whole, part))
        return whole == part

    for workload in ("oracle-deep", "predict-2p1"):
        for seed in range(4):
            for smoke in (False, True):
                doc = workloads.make_input(workload, seed, smoke)
                cfg = SystemConfig.from_json(json.dumps(doc))
                text = cfg.to_json()
                assert SystemConfig.from_json(text).to_json() == text
                assert contains(json.loads(text), doc), (workload, seed, smoke)


def test_example_defaults_are_feasible():
    cfg = build_example()
    assert cfg.classical_data.uncertainty_feasible(cfg.hbar)
    dq = cfg.classical_state[0].dq
    for L in (1, 2):
        window = gaussian_feasibility(cfg.classical_data, L, cfg.hbar)
        assert window.feasible
        assert window.lower <= dq <= window.upper
    sols = hybrid_solutions(cfg)
    seqs = classicality_sequences(sols.values(), 1)
    phi_c = cfg.classical_factor()
    for L in (1, 2):
        assert certify(phi_c, cfg.classical_data, L, seqs, cfg.hbar).passed


def test_decoupled_system_margins_vanish():
    # k = 0: the quantum-sector observables carry no classical error and
    # their bounds degenerate to exact quantum-sector probabilities
    # (equality rows carry no slack, so keep t small against node blur)
    cfg = small_example(coupling=0.0, times=(0.0, 0.4))
    sols = hybrid_solutions(cfg)
    from halfq.grammar import parse_expression

    free = sols[Symbol.Q(1)].substitute_constants({"k": 0})
    assert free == parse_expression("Q1 + t/M*P1", cfg.system, ("M", "t"))
    assert not free.classical_symbols()
    report = run_verification(cfg, deep=False)
    assert report.status == "pass"
    for row in report.rows:
        if row["observable"] in ("Q1", "P1"):
            assert row["delta_L"] == 0.0
            assert row["Emin"] == 0.0 and row["Emax"] == 0.0
            # P is conserved: the degenerate bound is exact; Q picks up
            # node-resolution blur at t > 0
            tol = 1e-9 if (row["observable"] == "P1" or row["t"] == 0.0) else 5e-3
            assert abs(row["oracle_P"] - row["lower"]) < tol


@pytest.mark.xfail(
    strict=True,
    reason="node-counting measure: degenerate Q1 rows miss by up to 2.1e-2 at t = 0.8",
)
def test_decoupled_system_passes_every_row_at_later_times():
    # k = 0 is two free particles and B for Q1 is the oracle's own
    # Q1 + t*P1, yet the 32x32 grid's degenerate Q1 rows at t = 0.8 miss
    # degenerate_slack: the grid measure counts whole nodes at the interval
    # ends.  This passes once the measure resolves the endpoints
    cfg = small_example(coupling=0.0, times=(0.8,))
    report = run_verification(cfg, deep=False)
    assert [r for r in report.rows if r["verdict"] != "pass"] == []


@pytest.mark.xfail(
    strict=True,
    reason="node-counting measure: oracle_P moves by up to 9.2e-2 from 64 to 128 points",
)
def test_grid_refinement_leaves_the_oracle_probabilities():
    # doubling the points at extent 16 halves the spacing; a converged
    # oracle moves no row's oracle_P by 1e-2, yet today 21 of 192 rows move
    # further, Q1 at t = 0.4 the most.  This passes once the measure
    # resolves the interval endpoints
    def oracle_p(npoints):
        report = run_verification(build_example(npoints=npoints, extent=16.0), deep=False)
        assert report.status == "pass"
        return {
            (r["observable"], r["t"], r["L"], r["p"], r["width_multiplier"]): r["oracle_P"]
            for r in report.rows
        }

    coarse, fine = oracle_p(64), oracle_p(128)
    assert coarse.keys() == fine.keys()
    assert max(abs(coarse[key] - fine[key]) for key in coarse) < 1e-2


def test_heavy_classical_mass_shrinks_momentum_margin():
    from fractions import Fraction

    from halfq.bounds import delta_L_margin

    light = small_example(classical_mass=1.0)
    heavy = small_example(classical_mass=10.0)
    margins = {}
    for cfg in (light, heavy):
        sols = hybrid_solutions(cfg)
        subs = {c: Fraction(v).limit_denominator() for c, v in cfg.constants.items()}
        subs["t"] = 1
        expr = sols[Symbol.q(1)].substitute_constants(subs)
        margin = delta_L_margin(expr, cfg.classical_data, cfg.quantum_factor(), cfg.hbar, [1])
        margins[cfg.constants["m"]] = margin[1].total
    assert margins[10.0] < margins[1.0]
    assert abs(margins[1.0] - 2.0) < 1e-12  # delta_q + delta_p
    assert abs(margins[10.0] - 1.1) < 1e-12  # delta_q + delta_p/10


def test_verification_passes_on_small_example():
    cfg = small_example(times=(0.0, 0.5, 1.0))
    report = run_verification(cfg, deep=True)
    assert report.status == "pass"
    assert all(r["verdict"] == "pass" for r in report.rows)
    assert all(r["verdict"] == "pass" for r in report.discrepancy_rows)
    assert all(
        r["verdict"] == "pass"
        for r in report.leakage_rows
        if r["which"] == "X1"
    )
    # independent in-run oracle check: exact Heisenberg observables against
    # the propagated states (measured 1.3e-8 here)
    assert report.ehrenfest <= TOLERANCES["ehrenfest"]
    # enough coverage: distinct (t, I0) pairs beyond the spec's floor
    pairs = {(r["t"], tuple(r["I0"])) for r in report.rows}
    assert len(pairs) >= 20


def test_exact_values_move_no_nonzero_float():
    from halfq.experiment import _exact

    assert _exact(0.4) == Fraction(2, 5)
    # a six-decimal coupling as the benchmark draws it keeps its small rational
    assert _exact(0.093517) == Fraction(0.093517).limit_denominator(10**12)
    assert float(_exact(0.093517)) == 0.093517
    # 6e-13 is nearest 1/10^12 among denominators <= 10^12, 67% off
    assert _exact(6e-13) == Fraction(6e-13)
    assert _exact(1.0000000000001) == Fraction(1.0000000000001)
    # below 5e-13 a value reads as 0, as the run below relies on
    assert _exact(1e-13) == 0


def test_values_read_as_zero_are_named():
    from halfq.experiment import exact_zero_note

    assert exact_zero_note(small_example()) is None
    # 0 itself and 6e-13 (kept as its float's value) are not named
    cfg = small_example(coupling=4e-13, classical_mass=6e-13, times=(0.0, 1e-13, 1e-13, -2e-13))
    assert exact_zero_note(cfg) == (
        "constant k = 4e-13, time 1e-13, time -2e-13 read as 0: "
        "the exact layer resolves no value below 5e-13"
    )


def test_constants_read_as_zero_everywhere_alike():
    # k = 1e-13 enters the exact layer as 0: B, A(t) and the oracle's H all
    # take it from there, so the run is the k = 0 run row for row
    tiny = run_verification(small_example(coupling=1e-13, times=(0.0, 0.4)), deep=False)
    zero = run_verification(small_example(coupling=0.0, times=(0.0, 0.4)), deep=False)
    assert len(zero.rows) == 96
    assert tiny.rows == zero.rows


def test_deep_verification_forms_no_oracle_dimension_matrix(monkeypatch):
    import tracemalloc

    import halfq.experiment
    import halfq.hilbert

    cfg = small_example()
    sector = max(g.npoints for g in cfg.all_grids())
    full = sector**2
    decomposed, built = [], []
    original_decompose = halfq.hilbert.spectral_decompose
    original_dense = halfq.hilbert.CompiledOperator.dense

    def decompose(mat):
        decomposed.append(mat.shape[0])
        return original_decompose(mat)

    def dense(self):
        built.append(self.dim)
        return original_dense(self)

    # experiment is the only module that decomposes: every spectrum reaches
    # bounds as an argument
    monkeypatch.setattr(halfq.experiment, "spectral_decompose", decompose)
    monkeypatch.setattr(halfq.hilbert.CompiledOperator, "dense", dense)
    tracemalloc.start()
    try:
        report = run_verification(cfg, deep=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass" and report.discrepancy_rows
    assert decomposed and max(decomposed) <= sector
    assert built and max(built) <= sector
    # one complex full-dimension matrix would take full^2 * 16 bytes
    assert peak < full * full * 16


@pytest.mark.parametrize("deep", [True, False])
def test_no_sector_eigenbasis_outlives_its_leakage_sectors(monkeypatch, deep):
    # each point's B spectrum is binned into leakage sectors as the sweep
    # yields it: when the oracle is built, at most one sector-sized
    # SpectralDecomp made by the run (the loop's last) is alive, not one per
    # distinct point
    import gc

    import halfq.experiment

    cfg = small_example()
    sector = cfg.quantum_grids[0].npoints

    def alive():
        gc.collect()
        return sum(
            1 for obj in gc.get_objects() if type(obj) is SpectralDecomp and obj.dim == sector
        )

    before, counts = alive(), []
    init = halfq.experiment.Oracle.__init__

    def counted(self, *args, **kwargs):
        counts.append(alive() - before)
        init(self, *args, **kwargs)

    monkeypatch.setattr(halfq.experiment.Oracle, "__init__", counted)
    assert run_verification(cfg, deep=deep).status == "pass"
    assert len(counts) == 1 and counts[0] <= 1, counts


def test_an_explicit_interval_width_runs_end_to_end():
    # every other run takes I_B = null (each row's Delta_L); an explicit
    # I_B = 0.5 sets every row's window width and so gives every row its two
    # leakage sectors, and the deep run passes on all of them
    raw = build_example(npoints=32, extent=8.0).to_json_dict()
    raw["bound"]["I_B"] = 0.5
    report = run_verification(SystemConfig.from_json_dict(raw), deep=True)
    assert report.status == "pass" and report.config["bound"]["I_B"] == 0.5
    assert len(report.rows) == 192 and len(report.leakage_rows) == 2 * 192
    assert {r["I_B"] for r in report.rows} == {0.5}
    assert not _failing(report.rows + report.leakage_rows + report.discrepancy_rows)


def test_exact_discrepancy_rows_read_zero_with_no_absolute_allowance():
    # for P1, A(t) - B is exactly zero (P1 is conserved on both sides), so
    # its discrepancy rows read 0.0 against a margin of exactly 0; every
    # verdict is the relative rule alone
    report = run_verification(small_example(), deep=True)
    p1 = [r for r in report.discrepancy_rows if r["observable"] == "P1"]
    assert len(p1) == 8
    assert all(r["lhs"] == 0.0 and r["rhs"] == 0.0 for r in p1), p1
    for r in report.discrepancy_rows:
        within = r["lhs"] <= r["rhs"] * (1 + TOLERANCES["discrepancy_slack"])
        assert r["verdict"] == ("pass" if within else "fail"), r
        assert r["verdict"] == "pass", r


def test_deep_verification_realizes_each_operator_once(monkeypatch):
    import halfq.experiment

    original = halfq.experiment.spectral_decompose
    dims = []

    def decompose(mat):
        dims.append(mat.shape[0])
        return original(mat)

    monkeypatch.setattr(halfq.experiment, "spectral_decompose", decompose)
    project = SpectralDecomp.amplitudes
    projections = []

    def amplitudes(self, psi, *axis):
        projections.append(self.dim)
        return project(self, psi, *axis)

    monkeypatch.setattr(SpectralDecomp, "amplitudes", amplitudes)
    gram = halfq.experiment._gram
    grams = []
    monkeypatch.setattr(
        halfq.experiment, "_gram", lambda w, split: grams.append(split) or gram(w, split)
    )
    classical_factor = SystemConfig.classical_factor
    realized = []
    monkeypatch.setattr(
        SystemConfig, "classical_factor", lambda cfg: realized.append(cfg) or classical_factor(cfg)
    )
    report = run_verification(small_example(), deep=True)
    assert report.discrepancy_rows
    # phi^C is realized by the certificates and by the oracle, which forms
    # psi0 from it
    assert len(realized) == 2
    # one dense B per distinct (observable, t), shared by the sandwich,
    # leakage and discrepancy rows of every order: 4 observables x 4 times
    # less the 3 repeats of the conserved P1, whose B is the same at every
    # t; and one one-DOF spectrum per oracle observable
    assert dims == [32] * (13 + 4)
    # one projection of phi^Q on each distinct B's eigenbasis, and one table
    # projection of W_t per point on the classical axis (q1 and p1 at 4
    # times); the points on the quantum block axis (Q1 and P1) project
    # nothing: they share one Gram table per t
    assert projections == [32] * (13 + 8)
    assert grams == [(1, 32, 1)] * 4


def test_sweep_a0_is_the_expectation_of_B():
    # a0, on every row, is the first moment of phi^Q's spectral masses on
    # B's eigenbasis
    cfg = build_example()
    phi = cfg.quantum_factor().amplitudes
    centers = cfg.classical_data.centers()
    points = [point for point, _, _ in sandwich_sweep(cfg, hybrid_solutions(cfg), cfg.levels)]
    assert len(points) == 16
    for point in points:
        b = compile_expression(point.expr, centers, cfg.quantum_grids, cfg.hbar)
        want = np.vdot(phi, b.apply(phi)).real
        for pb in point.rows:
            assert abs(pb.a0 - want) < 1e-12, (point.observable, point.t)


def test_sweep_margins_take_each_derivative_once(monkeypatch):
    # delta_L_margin differentiates and compiles each first and second
    # derivative once for all levels; each level's margin equals, bit for
    # bit, the margin of a sweep at that level alone
    import halfq.bounds
    import halfq.experiment

    cfg = small_example()
    sols = hybrid_solutions(cfg)
    calls = {"partial_derivative": 0, "compile_expression": 0}
    # derivatives are compiled in bounds, each point's B in experiment
    for module, name in (
        (halfq.bounds, "partial_derivative"),
        (halfq.bounds, "compile_expression"),
        (halfq.experiment, "compile_expression"),
    ):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    points = [point for point, _, _ in sandwich_sweep(cfg, sols, (1, 2))]
    # 16 points, 13 distinct: P1's B repeats at every t and its point is
    # reused; 30 compiles are 17 derivatives and each distinct point's B
    assert calls == {"partial_derivative": 60, "compile_expression": 30}
    monkeypatch.undo()
    for L in (1, 2):
        alone = sandwich_sweep(cfg, sols, (L,))
        assert all(a.margins[L] == b.margins[L] for (a, _, _), b in zip(alone, points))


def test_verification_propagates_once(monkeypatch):
    import halfq.experiment

    original = halfq.experiment.evolve_full_quantum
    calls = []

    def evolve(H, vectors, times):
        calls.append(np.shape(vectors))
        return original(H, vectors, times)

    monkeypatch.setattr(halfq.experiment, "evolve_full_quantum", evolve)
    cfg = small_example()
    for deep in (True, False):
        calls.clear()
        notes = []
        assert run_verification(cfg, deep=deep, progress=notes.append).status == "pass"
        assert len(calls) == 1
        (dim, columns), = calls
        assert dim == 32 * 32
        # the quantum axis is a block axis of H, so one column all-ones in
        # its DFT basis carries phi_q and every xi state's quantum factor
        assert columns == 1
        # one progress note gives the propagation's size
        (note,) = [n for n in notes if n.startswith("propagating")]
        assert note.startswith(f"propagating r={columns} columns to 4 times in ")
        # the quantum DOF's axis is all momentum powers (P2^2 and k*Q1*P2);
        # the classical one ties P1^2 against Q1 and stays in position
        assert note.endswith(" Chebyshev terms; Fourier basis on axes 2")


def test_a_classical_axis_in_the_dft_basis_is_a_block_axis_of_h():
    # with the coupling k*p1*p2 every term of H is a power of P on both axes,
    # so H is diagonal in the DFT basis of both and the classical axis is a
    # block axis too: the edge guard reads each psi_t's classical boundary
    # through an inverse DFT.  The 32x32 grid's small extent leaves an
    # Ehrenfest gap of 2.4e-7, and one X2 row (informational) over its constant
    from halfq.hilbert import block_axes, fourier_axes

    raw = small_example().to_json_dict()
    raw["hamiltonian"] = raw["hamiltonian"].replace("k*q1*p2", "k*p1*p2")
    cfg = SystemConfig.from_json_dict(raw)
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, cfg.all_grids(), cfg.hbar, fourier_axes(h_expr))
    assert h_op.fourier == (0, 1) and block_axes(h_op) == (0, 1)
    notes = []
    report = run_verification(cfg, deep=True, progress=notes.append)
    assert report.status == "pass" and report.ehrenfest < 1e-6
    (note,) = [n for n in notes if n.startswith("propagating")]
    assert note == (
        "propagating r=1 columns to 4 times in 61 Chebyshev terms; Fourier basis on axes 1, 2"
    )
    assert (len(report.rows), len(report.leakage_rows), len(report.discrepancy_rows)) == (
        192, 264, 32,
    )
    gating = report.rows + report.discrepancy_rows
    gating += [r for r in report.leakage_rows if r["which"] == "X1"]
    assert all(r["verdict"] == "pass" for r in gating)
    assert [r["which"] for r in report.leakage_rows if r["verdict"] != "pass"] == ["X2"]
    assert report.notes == [
        "1 X2 rows exceed the closed-form leakage constant "
        "(continuum approximation; informational, not gating)"
    ]


def two_plus_one():
    """Two classical DOFs coupled to one quantum DOF through its momentum,
    on 32x32x64 grids: a 65,536-dimensional oracle."""
    classical = {"npoints": 32, "xmin": -8.0, "xmax": 8.0}
    packet = {"kind": "gaussian", "dq": 2.0**-0.5}
    return {
        "version": 1,
        "system": {"classical": 2, "quantum": 1},
        "hbar": 1.0,
        "constants": {"m": 1.0, "M": 1.0, "k": 0.1, "c": 0.05},
        "hamiltonian": "p1^2/(2*m) + p2^2/(2*m) + p3^2/(2*M) + k*q1*p3 + c*q2*p3",
        "classical_grids": [classical, classical],
        "quantum_grids": [{"npoints": 64, "xmin": -8.0, "xmax": 8.0}],
        "classical_data": [
            {"q0": 0.0, "p0": 1.0, "delta_q": 1.0, "delta_p": 1.0},
            {"q0": 1.0, "p0": -0.5, "delta_q": 1.0, "delta_p": 1.0},
        ],
        "classical_state": [packet, packet],
        "quantum_state": [{"kind": "gaussian", "q0": 0.0, "p0": 1.0, "dq": 1.0}],
        "bound": {"levels": [1, 2], "probabilities": [0.9, 0.99], "I_B": None},
        "sweep": {
            "times": [0.0, 0.4, 0.8, 1.2],
            "width_multipliers": [1.25, 2.0, 4.0],
            "observables": ["q1", "p1", "q2", "p2", "Q1", "P1"],
        },
    }


def _evolved_factor_columns(cfg, monkeypatch, limit=None):
    """Run a deep verification of ``cfg`` and return the width of each
    propagation it made and, per sweep point, its time, its measured
    factors (phi_q and the point's leakage sectors) evolved by the run's
    oracle and read in position, and the same factors evolved directly as
    phi_c (x) x; with ``limit``, only that many columns of the first
    ``limit`` points."""
    import halfq.experiment as ex
    from halfq.hilbert import fourier_axes

    evolve = ex.evolve_full_quantum
    widths, built, measured = [], [], []

    class Recorded(ex.Oracle):
        def __init__(self, cfg, h_expr, factors, progress=None):
            built.append((self, factors))
            super().__init__(cfg, h_expr, factors, progress)

        def measure(self, point, columns):
            measured.append((point.t, columns))
            return super().measure(point, columns)

    monkeypatch.setattr(
        ex, "evolve_full_quantum", lambda h, v, t: widths.append(v.shape[1]) or evolve(h, v, t)
    )
    monkeypatch.setattr(ex, "Oracle", Recorded)
    report = run_verification(cfg, deep=True)
    assert report.status == "pass" and report.leakage_rows
    ((oracle, factors),) = built
    # the quantum axis is a block axis, first in the measured layout, in
    # its DFT basis; the classical axes follow
    m = cfg.system.classical
    assert oracle.blocks == [m] and oracle.h_op.fourier == (m,)
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, cfg.all_grids(), cfg.hbar, fourier_axes(h_expr))
    phi_c = cfg.classical_factor().amplitudes
    assert np.array_equal(factors[:, 0], cfg.quantum_factor().amplitudes)
    # every factor is measured once: phi_q at every point, each sector at its own
    assert sorted(c for _, columns in measured for c in columns[1:]) == list(
        range(1, factors.shape[1])
    )
    # the direct propagation works in H's basis: each factor goes there and
    # back by the unitary DFT on H's Fourier axes
    shape, axes = oracle.shape, h_op.fourier
    out = []
    for t, columns in measured[:limit]:
        got = np.matmul(oracle.propagated[t], oracle.coordinates[..., columns[:limit]])
        got = oracle._unblocked(got).reshape(shape + (-1,))
        got = np.fft.ifftn(got, axes=axes, norm="ortho").reshape(-1, got.shape[-1])
        x = np.kron(phi_c[:, None], factors[:, columns[:limit]]).reshape(shape + (-1,))
        x = np.fft.fftn(x, axes=axes, norm="ortho").reshape(got.shape)
        (want,) = evolve(h_op, x, (float(t),))
        want = np.fft.ifftn(want.reshape(shape + (-1,)), axes=axes, norm="ortho")
        out.append((t, got, want.reshape(got.shape)))
    return widths, out


@pytest.mark.parametrize("which", ["example-48", "2p1-32x32x64"])
def test_block_columns_evolve_every_factor_as_a_direct_propagation(which, monkeypatch):
    # one propagated column, all-ones in the quantum axis's DFT basis,
    # carries every block; each measured column (phi_q and every leakage
    # sector of every point, evolved) equals that factor's own propagation;
    # the 2+1 config checks four columns of each of its first four points
    if which == "example-48":
        cfg, limit = build_example(npoints=48, extent=12.0), None
    else:
        cfg, limit = SystemConfig.from_json_dict(two_plus_one()), 4
    widths, evolved = _evolved_factor_columns(cfg, monkeypatch, limit)
    assert widths == [1]
    assert len(evolved) == (16 if limit is None else limit)
    for t, got, want in evolved:
        assert np.max(np.abs(got - want)) <= 1e-13, t


# oracle_P of six rows of the 32x32 example plus c*q2 (c = 0.05), as the
# QR-basis propagation read them before the block columns; with no block
# axis the oracle is that propagation
MIXING_ORACLE_P = {
    ("Q1", 0.4, 1, 0.9, 1.25): 0.19465572822870897,
    ("Q1", 0.8, 1, 0.9, 1.25): 0.6496150411548244,
    ("Q1", 1.2, 1, 0.9, 1.25): 0.8037135896757236,
    ("P1", 0.4, 1, 0.9, 1.25): 0.9843996262610472,
    ("P1", 0.8, 1, 0.9, 1.25): 0.9842972394553666,
    ("P1", 1.2, 1, 0.9, 1.25): 0.9840204196793695,
}


def test_mixing_quantum_axis_keeps_a_basis_of_the_quantum_grid():
    # c*Q2 is dense on the quantum axis in its DFT basis, so that axis is no
    # block axis: the oracle propagates an orthonormal basis of the factors'
    # span, r = min(N_q, rank) = 32 columns, and reads every state off it
    from halfq.hilbert import block_axes, fourier_axes

    raw = small_example().to_json_dict()
    raw["hamiltonian"] += " + c*q2"
    raw["constants"]["c"] = 0.05
    cfg = SystemConfig.from_json_dict(raw)
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, cfg.all_grids(), cfg.hbar, fourier_axes(h_expr))
    assert block_axes(h_op) == () and h_op.fourier == (1,)
    notes = []
    report = run_verification(cfg, deep=True, progress=notes.append)
    assert report.status == "pass"
    (note,) = [n for n in notes if n.startswith("propagating")]
    assert note.startswith("propagating r=32 columns to 4 times")
    oracle = {
        (r["observable"], r["t"], r["L"], r["p"], r["width_multiplier"]): r["oracle_P"]
        for r in report.rows
    }
    for key, want in MIXING_ORACLE_P.items():
        assert abs(oracle[key] - want) <= 1e-14, key


def test_shallow_verification_with_two_classical_dofs():
    """The paper's M+N setting beyond 1+1 (:func:`two_plus_one`)."""
    report = run_verification(SystemConfig.from_json_dict(two_plus_one()), deep=False)
    assert report.environment["full_dimension"] == 65536
    assert report.status == "pass"
    # 6 observables x 4 times x 2 orders x 2 probabilities x 3 widths
    assert len(report.rows) == 288
    assert all(r["verdict"] == "pass" for r in report.rows)


def test_degenerate_observable_rows_are_exact():
    cfg = small_example(times=(0.0, 0.5))
    report = run_verification(cfg, deep=False)
    p_rows = [r for r in report.rows if r["observable"] == "P1"]
    assert p_rows
    for row in p_rows:
        assert row["delta_L"] == 0.0
        assert row["Emin"] == 0.0 and row["Emax"] == 0.0
        # bound degenerates to the exact quantum-sector probability
        assert abs(row["lower"] - row["upper"]) < 1e-12
        assert abs(row["oracle_P"] - row["lower"]) < 1e-9


def test_uncertified_classical_factor_is_not_applicable():
    cfg = small_example(packet_width=1.2)  # variance exceeds the margins
    report = run_verification(cfg, deep=False)
    assert report.status == "not_applicable"
    assert report.rows == []
    assert any("not applicable" in n or "not" in n for n in report.notes)
    assert not any(cert["verdict"] == "pass" for cert in report.certificates.values())


def test_verification_report_is_deterministic():
    cfg = small_example(times=(0.0, 0.4))
    a = json.dumps(run_verification(cfg, deep=False).to_json_dict(), sort_keys=True)
    b = json.dumps(run_verification(cfg, deep=False).to_json_dict(), sort_keys=True)
    assert a == b


def test_edge_guard_aborts_unconverged_runs():
    # the drifting packet wraps the periodic box at large t and smears over
    # the boundary cells; the guard must abort rather than report bounds
    cfg = build_example(npoints=32, extent=8.0, times=(40.0,))
    with pytest.raises(GridError, match="boundary mass"):
        run_verification(cfg, deep=False)


@pytest.mark.parametrize("npoints, extent", [(20, 12.0), (24, 12.0), (32, 16.0)])
def test_edge_guard_sees_the_momentum_edge(npoints, extent, monkeypatch):
    # these grids put 4.5e-2, 6.5e-3 and 4.2e-3 of psi0's mass in the
    # unitary-DFT modes around the Nyquist mode, yet no position cell at the
    # boundary; the classical factor carries most of it (3.9e-2, 6.3e-3 and
    # 4.1e-3), and the run must stop where it is realized, before any
    # propagation
    import halfq.experiment

    def propagate(*args, **kwargs):
        raise AssertionError("propagated past the edge guard")

    monkeypatch.setattr(halfq.experiment, "evolve_full_quantum", propagate)
    cfg = build_example(npoints=npoints, extent=extent, times=(0.0,))
    with pytest.raises(GridError, match="classical factor carries momentum-edge mass"):
        run_verification(cfg, deep=False)


def test_edge_guard_sees_an_initial_state_whose_factors_pass(monkeypatch):
    # the classical factor carries 7.8e-7 of momentum-edge mass on its
    # 28-point grid and the quantum factor 8.3e-7 on its 32-point one; each
    # passes, psi0 carries their sum, and the run stops there, before the
    # oracle's first note and any propagation
    import halfq.experiment

    def propagate(*args, **kwargs):
        raise AssertionError("propagated past the edge guard")

    monkeypatch.setattr(halfq.experiment, "evolve_full_quantum", propagate)
    raw = build_example(times=(0.0, 0.4)).to_json_dict()
    raw["classical_grids"] = [{"npoints": 28, "xmin": -9.0, "xmax": 9.0}]
    raw["quantum_grids"] = [{"npoints": 32, "xmin": -13.5, "xmax": 13.5}]
    notes = []
    with pytest.raises(GridError, match=r"^initial state carries momentum-edge mass 1\.611e-06"):
        run_verification(SystemConfig.from_json_dict(raw), deep=False, progress=notes.append)
    assert notes == []


def test_edge_guard_sees_a_late_time_momentum_edge():
    # a force F*q1 (F = 8) drives the classical packet's momentum toward the
    # 32x32 grid's momentum edge while it stays clear of the boundary: psi_t
    # is clean at t = 0.2 and carries momentum-edge mass 7.7e-5 at t = 0.5,
    # read in position through the oracle's one inverse DFT
    def forced(times):
        raw = build_example(npoints=32, extent=8.0, times=times).to_json_dict()
        raw["hamiltonian"] += " + F*q1"
        raw["constants"]["F"] = 8.0
        return SystemConfig.from_json_dict(raw)

    report = run_verification(forced((0.0, 0.2)), deep=False)
    assert report.status == "pass" and report.ehrenfest < 1e-11
    with pytest.raises(GridError, match=r"state at t=0\.5 carries momentum-edge mass 7\.704e-05"):
        run_verification(forced((0.0, 0.5)), deep=False)


def test_edge_masses_detect_boundary_weight():
    g = Grid(32, -8.0, 8.0)
    mid = gaussian_state(g, 0.0, 0.0, 1.0, 1.0)
    assert _edge_masses(mid.amplitudes, mid.grids)[0] < 1e-12
    amps = np.zeros(32, dtype=complex)
    amps[0] = 1.0
    assert _edge_masses(amps, (g,))[0] > 0.5


def _position_edge_masses(amps: np.ndarray, shape: tuple) -> tuple:
    """(boundary, momentum edge) of a state in position, read off the whole
    grid: the density on each axis's outermost cells, and each axis's
    unitary-DFT modes n/2 - 1 to n/2 + 1 after a transform of that axis."""
    amps = amps.reshape(shape)
    dens = np.abs(amps) ** 2
    boundary = sum(np.take(dens, [0, -1], axis=a).sum() for a in range(dens.ndim))
    edges = (range(n // 2 - 1, n // 2 + 2) for n in shape)
    momentum = sum(
        np.sum(np.abs(np.take(np.fft.fft(amps, axis=a, norm="ortho"), k, axis=a)) ** 2)
        for a, k in enumerate(edges)
    )
    return boundary, momentum


@pytest.mark.parametrize("shape", [(8, 11), (9, 8, 12)])
def test_edge_masses_read_each_axis_in_the_basis_it_is_in(shape):
    # a random state read in every mix of position and DFT axes gives the
    # masses read in position; a product of unit factors reads its factors' sum
    rng = np.random.default_rng(len(shape))
    grids = tuple(Grid(n, -1.0, 1.0) for n in shape)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x /= np.linalg.norm(x)
    want = _position_edge_masses(x, shape)
    for r in range(len(shape) + 1):
        for fourier in combinations(range(len(shape)), r):
            y = np.fft.fftn(x, axes=fourier, norm="ortho") if fourier else x
            got = _edge_masses(y.ravel(), grids, fourier)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=str(fourier))
    factors = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in shape]
    factors = [f / np.linalg.norm(f) for f in factors]
    total = sum(_edge_masses(f, (g,)) for f, g in zip(factors, grids))
    np.testing.assert_allclose(_edge_masses(reduce(np.kron, factors), grids), total, rtol=1e-12)


def test_guards_transform_the_full_grid_once_per_axis_of_each_later_state(monkeypatch):
    # the shipped 64x64 example, deep: psi0 is guarded by its factors' masses
    # before any propagation, with no full-grid transform; each psi_t at
    # t = 0.4, 0.8 and 1.2 is read in H's basis (DFT on the quantum axis),
    # one 1-D transform per axis: 6 in all, where reading each state in
    # position took 11 (2 for psi0, an inverse DFT and 2 for each psi_t)
    import halfq.experiment

    full, propagated = [], []
    for name in ("fft", "ifft", "fftn", "ifftn"):

        def counted(a, *args, _original=getattr(np.fft, name), _name=name, **kwargs):
            if np.iscomplexobj(a) and np.ndim(a) > 1 and np.size(a) == 64 * 64:
                full.append((_name, bool(propagated)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    evolve = halfq.experiment.evolve_full_quantum
    monkeypatch.setattr(
        halfq.experiment, "evolve_full_quantum", lambda *a: propagated.append(a) or evolve(*a)
    )
    assert run_verification(build_example(), deep=True).status == "pass"
    assert len(propagated) == 1
    assert full == [("fft", True), ("ifft", True)] * 3


def test_wrapped_packets_cannot_loosen_the_guards():
    # by t = 2 the packets reach the edges of the periodic 32-point box;
    # the edge guard must stop the run, and a config cannot relax it
    cfg = build_example(npoints=32, extent=8.0, times=(0.0, 2.0, 4.0, 6.0))
    with pytest.raises(GridError, match="boundary mass"):
        run_verification(cfg, deep=True)
    raw = cfg.to_json_dict()
    raw["tolerances"] = {"edge_mass": 1.0, "ehrenfest": 1e3}
    with pytest.raises(ConfigError, match="unknown key 'tolerances'"):
        SystemConfig.from_json_dict(raw)
    assert not hasattr(cfg, "tolerances")


# planted defects in the oracle alone, on the shipped 64x64 example, deep; a
# check family that cannot fail with its defect planted checks nothing


def _failing(rows):
    return [r for r in rows if r["verdict"] != "pass"]


def test_verify_passes_the_example_with_no_defect():
    report = run_verification(build_example())
    assert report.status == "pass"
    assert report.ehrenfest < 1e-11
    x2_rows = [r for r in report.leakage_rows if r["which"] == "X2"]
    assert x2_rows and not _failing(x2_rows)
    assert not any("X2" in note for note in report.notes)


def _plant_coupling(monkeypatch, coupling):
    """Make every run's oracle evolve under H + ``coupling``*Q1*P2, its H alone."""
    import halfq.experiment as ex
    from halfq import parse_expression

    class Coupled(ex.Oracle):
        def __init__(self, cfg, h_expr, factors, progress=None):
            planted = h_expr + parse_expression(f"{coupling}*Q1*P2", h_expr.system)
            super().__init__(cfg, planted, factors, progress)

    monkeypatch.setattr(ex, "Oracle", Coupled)


@pytest.mark.parametrize("coupling", ["0.03", "0.3"])
def test_discrepancy_rows_see_a_coupling_planted_in_the_oracle(coupling, monkeypatch):
    _plant_coupling(monkeypatch, coupling)
    report = run_verification(build_example())
    assert report.status == "fail"
    assert _failing(report.discrepancy_rows)
    # the oracle's own series moves with its H, so the gap stays at rounding
    assert report.ehrenfest < 1e-11
    x1_rows = [r for r in report.leakage_rows if r["which"] == "X1"]
    assert not _failing(report.rows) and not _failing(x1_rows)


def test_x1_rows_see_a_large_coupling_planted_in_the_oracle(monkeypatch):
    # at +1.0 the evolved leakage sectors move into I0: two X1 rows fail,
    # beside eleven discrepancy rows, while every sandwich row still holds;
    # eleven X2 rows fail too, and the report says so in a note that does
    # not gate
    _plant_coupling(monkeypatch, "1.0")
    report = run_verification(build_example())
    assert report.status == "fail"
    x1_rows = [r for r in report.leakage_rows if r["which"] == "X1"]
    assert len(_failing(x1_rows)) == 2
    assert len(_failing(report.discrepancy_rows)) == 11
    assert not _failing(report.rows)
    x2_rows = [r for r in report.leakage_rows if r["which"] == "X2"]
    assert len(_failing(x2_rows)) == 11
    assert (
        "11 X2 rows exceed the closed-form leakage constant "
        "(continuum approximation; informational, not gating)"
    ) in report.notes


def test_ehrenfest_gap_sees_an_oracle_propagated_too_far(monkeypatch):
    import halfq.experiment as ex

    class Late(ex.Oracle):
        def propagate(self, columns, times):
            return super().propagate(columns, [1.001 * t for t in times])

    monkeypatch.setattr(ex, "Oracle", Late)
    with pytest.raises(GridError, match=r"oracle Ehrenfest gap 1\.\d+e-03 exceeds 1\.0e-06"):
        run_verification(build_example())


@pytest.mark.parametrize("shift, verdicts", [
    (0.0, {"1": "pass", "2": "pass"}),
    (0.3, {"1": "pass", "2": "fail"}),
    (1.0, {"1": "fail", "2": "fail"}),
])
def test_certificates_see_a_miscentred_classical_packet(shift, verdicts, tmp_path):
    # the classical packet is read from a file, centred ``shift`` from the
    # classical data's q0; the data, and so the margins, stay where they were
    raw = build_example().to_json_dict()
    datum, grid = raw["classical_data"][0], Grid(**raw["classical_grids"][0])
    packet = gaussian_state(grid, datum["q0"] + shift, datum["p0"], 2.0**-0.5, raw["hbar"])
    path = tmp_path / "packet.txt"
    np.savetxt(path, np.column_stack([packet.amplitudes.real, packet.amplitudes.imag]))
    raw["classical_state"] = [{"kind": "file", "path": str(path)}]
    report = run_verification(SystemConfig.from_json_dict(raw))
    assert {L: cert["verdict"] for L, cert in report.certificates.items()} == verdicts
    failed = [L for L, verdict in verdicts.items() if verdict == "fail"]
    assert [n for n in report.notes if "not applicable" in n] == [
        f"classical data not {L}-order valid: bounds at L={L} not applicable" for L in failed
    ]
    # the rows run, and pass, at the certified orders alone
    assert report.status == ("not_applicable" if len(failed) == 2 else "pass")
    assert {r["L"] for r in report.rows} == {int(L) for L in verdicts if L not in failed}


def test_state_spec_amplitude_file(tmp_path):
    grid = Grid(32, -8.0, 8.0)
    packet = gaussian_state(grid, 0.0, 1.0, 1.0, 1.0)
    path = tmp_path / "amps.txt"
    np.savetxt(path, np.column_stack([packet.amplitudes.real, packet.amplitudes.imag]))
    spec = StateSpec(kind="file", path=str(path))
    loaded = spec.realize(grid, 1.0)
    fidelity = abs(np.vdot(loaded.amplitudes, packet.amplitudes))
    assert abs(fidelity - 1.0) < 1e-10
    bad = tmp_path / "bad.txt"
    np.savetxt(bad, np.zeros((4, 2)))
    with pytest.raises(ConfigError, match="rows"):
        StateSpec(kind="file", path=str(bad)).realize(grid, 1.0)


def test_file_state_round_trips_through_json(tmp_path):
    cfg = small_example()
    amps = cfg.quantum_factor().amplitudes
    path = tmp_path / "amps.txt"
    np.savetxt(path, np.column_stack([amps.real, amps.imag]))
    raw = cfg.to_json_dict()
    raw["quantum_state"] = [{"kind": "file", "path": str(path)}]
    loaded = SystemConfig.from_json_dict(raw)
    text = loaded.to_json()
    assert json.loads(text)["quantum_state"] == raw["quantum_state"]
    assert SystemConfig.from_json(text).to_json() == text
    assert np.max(np.abs(loaded.quantum_factor().amplitudes - amps)) < 1e-15


def _axis_masses_by_batch(decomp, batch, shape, axis):
    """Masses of each column of a (dim, k) ``batch`` on the grid ``shape``
    on ``decomp``, the spectrum of the DOF ``axis`` alone: that axis is
    contracted in place and the other DOFs are summed over."""
    amps = decomp.amplitudes(batch.reshape(shape + batch.shape[1:]), axis)
    masses = np.abs(amps) ** 2
    return masses.reshape((int(np.prod(shape[:axis])), decomp.dim, -1, batch.shape[1])).sum(
        axis=(0, 2)
    )


def test_sector_decomp_matches_dense_spectral_path():
    # psi_t and the evolved leakage sectors of a sweep point, measured with
    # a one-DOF spectrum by contracting the DOF's axis in place: the mass
    # of every column inside and outside an interval (the oracle
    # probability, X1 and X2) must agree with a dense Kronecker
    # decomposition on both axes
    from halfq.bounds import leakage_sectors
    from halfq.hilbert import (
        interval_mask,
        interval_mass,
        spectral_decompose,
        tensor,
    )
    from grid_operators import momentum_operator, position_operator

    g1, g2 = Grid(12, -3.0, 3.0), Grid(8, -2.0, 2.0)
    phi1, phi2 = gaussian_state(g1, 0.0, 0.5, 0.4, 1.0), gaussian_state(g2, 0.0, 0.0, 0.3, 1.0)
    rng = np.random.default_rng(3)
    # a random unitary on the tensor space stands in for the evolution
    w = np.linalg.qr(rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96)))[0]
    b = spectral_decompose(momentum_operator(g2, 1.0).dense())
    amps = b.amplitudes(phi2.amplitudes)
    sectors = [
        leakage_sectors(b, amps, 0.3, (-half - 0.4, half + 0.4), (-half + 0.4, half - 0.4))
        for half in (0.5, 1.5)
    ]
    batch = np.column_stack(
        [tensor(phi1, phi2).amplitudes]
        + [w @ np.kron(phi1.amplitudes[:, None], cols) for cols in sectors]
    )
    for axis, op in ((0, position_operator(g1)), (1, momentum_operator(g2, 1.0))):
        small = spectral_decompose(op.dense())
        factors = (op.dense(), np.eye(8)) if axis == 0 else (np.eye(12), op.dense())
        dense = spectral_decompose(np.kron(*factors))
        masses = _axis_masses_by_batch(small, batch, (12, 8), axis)
        dense_masses = np.abs(dense.amplitudes(batch)) ** 2
        for interval in ((-1.0, 1.0), (0.2, 2.7), (-9.0, 9.0)):
            got = interval_mass(small.eigenvalues, masses, interval)
            got_out = masses.sum(axis=0) - got
            for inside, value in ((True, got), (False, got_out)):
                want = dense_masses[interval_mask(dense.eigenvalues, interval) == inside]
                assert np.max(np.abs(value - want.sum(axis=0))) < 1e-12, (axis, interval)
        assert np.min(masses.sum(axis=0)[1:]) > 1e-2


# (block axis sizes, other axis sizes, r): one block axis, two block axes,
# and no block axis (a mixing basis of r columns)
TABLE_LAYOUTS = [((5,), (4, 3), 1), ((5,), (4, 3), 3), ((3, 4), (5,), 1), ((3, 4), (5,), 3),
                 ((), (4, 5), 3)]


@pytest.mark.parametrize("blocks, rest, r", TABLE_LAYOUTS)
def test_oracle_tables_match_dense_kronecker_masses(blocks, rest, r):
    # the Oracle's tables measure random propagated columns W (N_C, R, r)
    # at random coordinates x (N_C, r, k) on every axis, block or not; each
    # column's masses equal the dense Kronecker decomposition's of the
    # state psi[c] = W[c] x[c], formed here only as the reference
    from halfq.experiment import _axis_masses, _block_masses, _gram, _split
    from halfq.hilbert import spectral_decompose

    rng = np.random.default_rng(11)
    layout, k = blocks + rest, 4
    n_c, size = int(np.prod(blocks)), int(np.prod(rest))
    w = rng.normal(size=(n_c, size, r)) + 1j * rng.normal(size=(n_c, size, r))
    x = rng.normal(size=(n_c, r, k)) + 1j * rng.normal(size=(n_c, r, k))
    x /= np.linalg.norm(np.matmul(w, x), axis=(0, 1))  # unit states psi
    psi = np.matmul(w, x).reshape(-1, k)
    for place, n in enumerate(layout):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        small = spectral_decompose(a + a.conj().T)
        eyes = [np.eye(m) for m in layout]
        eyes[place] = small.eigenvectors
        dense_v = reduce(np.kron, eyes)
        # the dense eigenbasis I (x) ... (x) V (x) ... (x) I, each column's
        # mass summed over every index but the observable's
        want = np.abs(dense_v.conj().T @ psi) ** 2
        want = want.reshape(layout + (k,)).sum(
            axis=tuple(i for i in range(len(layout)) if i != place)
        )
        if place < len(blocks):
            split = _split(blocks, place)
            got = _block_masses(_gram(w, split), x, small, split)
        else:
            split = _split(rest, place - len(blocks))
            got = _axis_masses(w, x, small, split)
        assert got.shape == (n, k)
        assert np.max(np.abs(got - want)) < 1e-12, (place, r)


def test_report_csv_rows():
    cfg = small_example(times=(0.0,))
    report = run_verification(cfg, deep=False)
    rows = report.csv_rows()
    assert rows[0][0] == "observable"
    assert len(rows) == len(report.rows) + 1


def test_report_json_structure():
    cfg = small_example(times=(0.0,))
    report = run_verification(cfg, deep=False)
    blob = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
    for key in (
        "status",
        "certificates",
        "rows",
        "environment",
        "config",
    ):
        assert key in blob
    assert blob["environment"]["full_dimension"] == 32 * 32
