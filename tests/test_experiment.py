"""Configs, the worked example, and the verification harness (small grids)."""

import json

import numpy as np
import pytest

from halfq.classicality import certify, classicality_sequences, gaussian_feasibility
from halfq.experiment import (
    ConfigError,
    StateSpec,
    SystemConfig,
    build_example,
    closed_form_check,
    constants_check,
    hybrid_solutions,
    run_verification,
)
from halfq.hilbert import Grid, GridError, gaussian_state


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


def test_config_rejects_narrow_multipliers():
    raw = build_example().to_json_dict()
    raw["sweep"]["width_multipliers"] = [0.9]
    with pytest.raises(ConfigError, match="exceed"):
        SystemConfig.from_json_dict(raw)


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


def test_closed_form_check_passes_on_example():
    report = closed_form_check(build_example())
    assert set(report) == {"q1", "p1", "Q1", "P1"}
    assert all(entry["ok"] for entry in report.values())


def test_closed_form_check_requires_example_shape():
    raw = build_example().to_json_dict()
    raw["system"] = {"classical": 2, "quantum": 1}
    raw["hamiltonian"] = "p1^2 + p2^2 + p3^2"
    raw["classical_grids"] = raw["classical_grids"] * 2
    raw["classical_data"] = raw["classical_data"] * 2
    raw["classical_state"] = raw["classical_state"] * 2
    raw["sweep"]["observables"] = ["q1"]
    cfg = SystemConfig.from_json_dict(raw)
    with pytest.raises(ConfigError):
        closed_form_check(cfg)


def test_constants_check_rows():
    rows = constants_check()
    assert [r["L"] for r in rows] == [1, 10]
    assert all(r["ok"] for r in rows)


def test_decoupled_system_margins_vanish():
    # k = 0: the quantum-sector observables carry no classical error and
    # their bounds degenerate to exact quantum-sector probabilities
    # (equality rows carry no slack, so keep t small against node blur)
    cfg = small_example(coupling=0.0, times=(0.0, 0.4))
    sols = hybrid_solutions(cfg)
    from halfq.bounds import closed_form_margin
    from halfq.grammar import parse_expression

    free = sols["Q1"].substitute_constants({"k": 0})
    assert free == parse_expression("Q1 + t/M*P1", cfg.system, ("M", "t"))
    assert closed_form_margin(free) == {}
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


def test_heavy_classical_mass_shrinks_momentum_margin():
    from fractions import Fraction

    from halfq.bounds import HybridObservable, delta_L_margin

    light = small_example(classical_mass=1.0)
    heavy = small_example(classical_mass=10.0)
    margins = {}
    for cfg in (light, heavy):
        sols = hybrid_solutions(cfg)
        subs = {c: Fraction(v).limit_denominator() for c, v in cfg.constants.items()}
        subs["t"] = 1
        obs = HybridObservable(
            sols["q1"].substitute_constants(subs),
            cfg.classical_data,
            {1: cfg.quantum_grids[0]},
            cfg.hbar,
            {},
        )
        phi_q = cfg.quantum_factor()
        margins[cfg.constants["m"]] = delta_L_margin(obs, phi_q, 1).total
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
    assert report.ehrenfest <= cfg.tolerances["ehrenfest"]
    # enough coverage: distinct (t, I0) pairs beyond the spec's floor
    pairs = {(r["t"], tuple(r["I0"])) for r in report.rows}
    assert len(pairs) >= 20


def test_deep_verification_forms_no_oracle_dimension_matrix(monkeypatch):
    import tracemalloc

    import halfq.bounds
    import halfq.experiment
    import halfq.hilbert

    cfg = small_example()
    sector = max(g.npoints for g in cfg.all_grids())
    full = sector**2
    decomposed, built = [], []
    original_decompose = halfq.hilbert.spectral_decompose
    original_init = halfq.hilbert.OperatorMatrix.__post_init__

    def decompose(op):
        decomposed.append(op.dim)
        return original_decompose(op)

    def init(self):
        original_init(self)
        built.append(self.dim)

    for module in (halfq.experiment, halfq.bounds):
        monkeypatch.setattr(module, "spectral_decompose", decompose)
    monkeypatch.setattr(halfq.hilbert.OperatorMatrix, "__post_init__", init)
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
    a = run_verification(cfg, deep=False).to_json()
    b = run_verification(cfg, deep=False).to_json()
    assert a == b


def test_edge_guard_aborts_unconverged_runs():
    # the drifting packet wraps the periodic box at large t and smears over
    # the boundary cells; the guard must abort rather than report bounds
    cfg = build_example(npoints=32, extent=8.0, times=(40.0,))
    with pytest.raises(GridError, match="boundary mass"):
        run_verification(cfg, deep=False)


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


def test_sector_decomp_matches_dense_spectral_path():
    # the structured oracle amplitudes must agree with a dense Kronecker
    # decomposition on both axes
    from halfq.experiment import _SectorDecomp
    from halfq.hilbert import (
        interval_probability,
        momentum_operator,
        position_operator,
        sector_embed,
        spectral_decompose,
        tensor,
    )

    g1, g2 = Grid(12, -3.0, 3.0), Grid(8, -2.0, 2.0)
    psi = tensor(
        gaussian_state(g1, 0.0, 0.5, 0.4, 1.0), gaussian_state(g2, 0.0, 0.0, 0.3, 1.0)
    )
    for axis, op in ((0, position_operator(g1)), (1, momentum_operator(g2, 1.0))):
        structured = _SectorDecomp(spectral_decompose(op), axis, (12, 8))
        dense = spectral_decompose(sector_embed(op, axis + 1, (g1, g2)))
        for interval in ((-1.0, 1.0), (0.2, 2.7), (-9.0, 9.0)):
            got = structured.interval_probability(psi, interval)
            want = interval_probability(dense, psi, interval)
            assert abs(got - want) < 1e-10, (axis, interval)


def test_report_csv_rows():
    cfg = small_example(times=(0.0,))
    report = run_verification(cfg, deep=False)
    rows = report.csv_rows()
    assert rows[0][0] == "observable"
    assert len(rows) == len(report.rows) + 1


def test_report_json_structure():
    cfg = small_example(times=(0.0,))
    report = run_verification(cfg, deep=False)
    blob = json.loads(report.to_json())
    for key in (
        "status",
        "certificates",
        "rows",
        "constants",
        "closed_form",
        "environment",
        "config",
    ):
        assert key in blob
    assert blob["environment"]["full_dimension"] == 32 * 32
