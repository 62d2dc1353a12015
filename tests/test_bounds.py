"""Margins, xi states, prediction bounds, leakage, discrepancy."""

from fractions import Fraction

import numpy as np
import pytest

from halfq import System, heisenberg_series, parse_expression
from halfq.bounds import (
    BoundConfig,
    HybridObservable,
    XiState,
    closed_form_margin,
    delta_L_margin,
    leakage_constant,
    leakage_sum,
    operator_discrepancy,
    prediction_bounds,
    spread_Delta_L,
    tail_leakage,
    worst_case_errors,
    xi_states,
)
from halfq.classicality import ClassicalData, ClassicalDatum, certify, classicality_sequences
from halfq.hilbert import (
    Grid,
    State,
    compile_expression,
    gaussian_state,
    momentum_operator,
    position_operator,
    sector_embed,
    spectral_decompose,
    tensor,
)

HBAR = 1.0
GQ = Grid(32, -8.0, 8.0)
GC = Grid(32, -8.0, 8.0)
S11 = System(1, 1)
CONSTS = ("m", "M", "k")
DATA = ClassicalData((ClassicalDatum(0.0, 1.0, 1.0, 1.0),))


def example_solutions():
    h = parse_expression("P1^2/(2*M) + p1^2/(2*m) + k*q1*P1", S11, CONSTS)
    return {
        name: heisenberg_series(obs, h)
        for name, obs in (
            ("q1", S11.q(1)),
            ("p1", S11.p(1)),
            ("Q1", S11.Q(1)),
            ("P1", S11.P(1)),
        )
    }


def observable_at(name, t, k=Fraction(1, 10)):
    sol = example_solutions()[name]
    subs = {"m": 1, "M": 1, "k": k, "t": Fraction(t).limit_denominator(10**6)}
    return HybridObservable(sol.substitute_constants(subs), DATA, {1: GQ}, HBAR, {})


def quantum_packet():
    return gaussian_state(GQ, 0.0, 1.0, 1.0, HBAR)


# --------------------------------------------------------------------------
# margins


def test_margins_match_closed_form_columns():
    phi = quantum_packet()
    t = 0.8
    expect = {
        "q1": 1.0 + t,  # delta_q + |t/m| delta_p
        "p1": 1.0,
        "Q1": 0.1 * t + 0.1 * t * t / 2,  # |kt| delta_q + |k t^2/2m| delta_p
        "P1": 0.0,
    }
    for name, want in expect.items():
        for L in (1, 2, 3):
            margin = delta_L_margin(observable_at(name, t), phi, L)
            assert abs(margin.total - want) < 1e-10, (name, L)
            assert margin.second_order == 0.0


def test_margin_is_state_independent_for_constant_derivatives():
    other = gaussian_state(GQ, 1.0, -0.5, 0.7, HBAR)
    m1 = delta_L_margin(observable_at("q1", 0.5), quantum_packet(), 1)
    m2 = delta_L_margin(observable_at("q1", 0.5), other, 1)
    assert abs(m1.total - m2.total) < 1e-12


def test_margin_second_order_term():
    # B = q^2 P: d2B/dq2 = 2P, so the n=2 term is (1/2)|<xi|(2P)^2L|xi>|^(1/2L) dq^2
    expr = parse_expression("q1^2*P1", S11)
    obs = HybridObservable(expr, DATA, {1: GQ}, HBAR, {})
    phi = quantum_packet()
    margin = delta_L_margin(obs, phi, 1)
    p_mat = momentum_operator(GQ, HBAR).matrix
    p2 = float(np.vdot(phi.amplitudes, p_mat @ p_mat @ phi.amplitudes).real)
    # first order: |<phi|(2 q P)^dag (2 q P)|phi>|^(1/2) at q=q0=0 -> 0
    assert margin.per_symbol == {} or margin.total == 0.0
    want_second = 0.5 * 2.0 * np.sqrt(p2) * DATA.data[0].delta_q ** 2
    assert abs(margin.second_order - want_second) < 1e-10


def test_symbolic_margin_weights():
    sols = example_solutions()
    weights = closed_form_margin(sols["q1"])
    from halfq.algebra import Symbol

    tconsts = CONSTS + ("t",)
    sys_m = weights[Symbol.q(1)].system
    assert weights[Symbol.q(1)] == parse_expression("1", sys_m, tconsts)
    assert weights[Symbol.p(1)] == parse_expression("t/m", sys_m, tconsts)
    assert closed_form_margin(sols["P1"]) == {}


def test_spread_values():
    assert abs(spread_Delta_L(1.0, BoundConfig(1, 0.99)) - 20.0) < 1e-9
    assert abs(spread_Delta_L(1.0, BoundConfig(10, 0.99999)) - 3.6) < 0.05
    assert spread_Delta_L(0.0, BoundConfig(1, 0.9, I_B=0.0)) == 0.0


def test_worst_case_error_constants():
    row1 = worst_case_errors(BoundConfig(1, 0.99))
    import math

    assert abs(row1["worst_error"] - (2 * math.sqrt(0.1) + 0.1)) < 1e-12
    assert abs(row1["worst_error"] - 0.72) < 0.02
    row10 = worst_case_errors(BoundConfig(10, 0.99999))
    assert abs(row10["worst_error"] - 0.0019) < 1e-4
    assert abs(row10["leakage"] - 9.4e-7) < 1e-8


def test_leakage_constant_degenerate_and_invalid():
    assert leakage_constant(0.0, BoundConfig(1, 0.99, I_B=0.0)) == 0.0
    assert leakage_constant(0.0, BoundConfig(2, 0.9)) == 0.0
    with pytest.raises(ValueError):
        leakage_constant(1.0, BoundConfig(1, 0.99, I_B=0.0))


# --------------------------------------------------------------------------
# xi states


def test_xi_single_window_covers_spectrum():
    phi_q = quantum_packet()
    phi_c = gaussian_state(GC, 0.0, 1.0, 2**-0.5, HBAR)
    b = spectral_decompose(position_operator(GQ))
    wide = b.spectral_range() + 1.0
    xis = xi_states(b, phi_q, phi_c, wide)
    assert len(xis) == 1
    full = tensor(phi_c, phi_q)
    overlap = abs(np.vdot(xis[0].state.amplitudes, full.amplitudes))
    assert abs(overlap - 1.0) < 1e-12
    assert abs(abs(xis[0].weight) - 1.0) < 1e-12


def test_xi_small_windows_are_eigenprojections():
    phi_q = quantum_packet()
    b = spectral_decompose(position_operator(GQ))
    gap = float(np.min(np.diff(b.eigenvalues)))
    xis = xi_states(b, phi_q, None, gap / 4)
    assert len(xis) == GQ.npoints
    for xi in xis:
        amps = b.amplitudes(xi.quantum_state)
        assert np.sum(np.abs(amps) > 1e-12) == 1


def test_xi_orthonormal_and_reconstructs_random_case():
    rng = np.random.default_rng(3)
    n = 64
    g = Grid(n, -8.0, 8.0)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    from halfq.hilbert import OperatorMatrix

    b = spectral_decompose(OperatorMatrix(h, (g,)))
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi = State(vec / np.linalg.norm(vec), (g,))
    xis = xi_states(b, phi, None, 2.5)
    mat = np.column_stack([x.quantum_state.amplitudes for x in xis])
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(len(xis)))) < 1e-10
    recon = mat @ np.array([x.weight for x in xis])
    assert np.linalg.norm(recon - phi.amplitudes) < 1e-10
    # every eigenvalue within I_B of its window center
    for xi in xis:
        amps = np.abs(b.amplitudes(xi.quantum_state)) ** 2
        support = b.eigenvalues[amps > 1e-20]
        assert np.all(np.abs(support - xi.center) <= 2.5 + 1e-12)


def test_xi_requires_positive_window():
    with pytest.raises(ValueError):
        xi_states(spectral_decompose(position_operator(GQ)), quantum_packet(), None, 0.0)


# --------------------------------------------------------------------------
# prediction bounds


def test_prediction_bound_geometry_and_sandwich_algebra():
    obs = observable_at("q1", 0.6)
    phi = quantum_packet()
    cfg = BoundConfig(1, 0.99)
    margin = delta_L_margin(obs, phi, 1)
    big = spread_Delta_L(margin.total, cfg)
    a0 = 0.6
    D = 2.0 * big
    pb = prediction_bounds(obs, phi, cfg, (a0 - D, a0 + D))
    assert pb.Imin[0] > pb.I0[0] > pb.Imax[0]
    assert pb.Imin[1] < pb.I0[1] < pb.Imax[1]
    assert pb.lower <= pb.upper
    assert 0.0 <= pb.lower_clamped <= pb.upper_clamped <= 1.0
    leak = leakage_constant(margin.total, cfg)
    import math

    want_emin = 2 * math.sqrt(1 - pb.Pmin) * math.sqrt(leak) + leak
    assert abs(pb.Emin - want_emin) < 1e-12


def test_prediction_bound_rejects_narrow_interval():
    obs = observable_at("q1", 0.5)
    cfg = BoundConfig(1, 0.99)
    margin = delta_L_margin(obs, quantum_packet(), 1)
    big = spread_Delta_L(margin.total, cfg)
    with pytest.raises(ValueError, match="exceed"):
        prediction_bounds(obs, quantum_packet(), cfg, (-0.5 * big, 0.5 * big))


def test_prediction_bound_degenerate_exact_case():
    # P(t): no classical dependence; bounds collapse to the exact
    # quantum-sector probability with zero error terms
    obs = observable_at("P1", 0.7)
    phi = quantum_packet()
    pb = prediction_bounds(obs, phi, BoundConfig(1, 0.99), (0.0, 2.0))
    assert pb.delta_L == 0.0 and pb.Delta_L == 0.0
    assert pb.Emin == 0.0 and pb.Emax == 0.0
    assert pb.Imin == pb.I0 == pb.Imax
    d = spectral_decompose(obs.matrix())
    from halfq.hilbert import interval_probability

    direct = interval_probability(d, phi, (0.0, 2.0))
    assert abs(pb.lower - direct) < 1e-12
    assert abs(pb.upper - direct) < 1e-12


def test_bound_width_monotone_in_margins():
    phi = quantum_packet()
    cfg = BoundConfig(1, 0.9)
    widths = []
    for scale in (1.0, 2.0, 4.0):
        data = DATA.scaled(scale)
        obs = HybridObservable(
            observable_at("q1", 0.4).expr, data, {1: GQ}, HBAR, {}
        )
        margin = delta_L_margin(obs, phi, 1)
        big = spread_Delta_L(margin.total, cfg)
        D = 1.5 * big
        pb = prediction_bounds(obs, phi, cfg, (0.4 - D, 0.4 + D))
        widths.append(pb.upper - pb.lower)
    assert widths[0] <= widths[1] <= widths[2]


def test_prediction_bound_json_fields():
    pb = prediction_bounds(
        observable_at("q1", 0.3), quantum_packet(), BoundConfig(1, 0.99), (-30.0, 30.0)
    )
    blob = pb.to_json_dict()
    for key in ("I0", "Imin", "Imax", "delta_L", "Delta_L", "Pmin", "Pmax",
                "Emin", "Emax", "lower", "upper"):
        assert key in blob


# --------------------------------------------------------------------------
# leakage and discrepancy (static configurations, no evolution needed)


def certified_classical_packet():
    phi_c = gaussian_state(GC, 0.0, 1.0, 2**-0.5, HBAR)
    seqs = classicality_sequences(example_solutions().values(), 1)
    for L in (1, 2):
        assert certify(phi_c, DATA, L, seqs, HBAR).passed
    return phi_c


def leakage_against(a_decomp, obs, phi_c, phi_q, cfg, interval):
    """Measured X1/X2 of a static observable and the leakage constant."""
    delta = delta_L_margin(obs, phi_q, cfg.L).total
    xis = xi_states(obs.matrix(), phi_q, phi_c, delta)
    cols = np.column_stack([x.state.amplitudes for x in xis])
    amps = a_decomp.eigenvectors.conj().T @ cols
    big = spread_Delta_L(delta, cfg)
    measured = tail_leakage(a_decomp.eigenvalues, amps, xis, interval, big)
    return measured, leakage_constant(delta, cfg)


def test_tail_leakage_no_weight_outside_window():
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    obs = observable_at("q1", 0.5)
    a_full = sector_embed(position_operator(GC), 1, (GC, GQ))
    # I0 spanning far beyond the spectrum: nothing outside Imax
    measured, bound = leakage_against(
        spectral_decompose(a_full), obs, phi_c, phi_q, BoundConfig(1, 0.99),
        (-500.0, 500.0),
    )
    assert measured["X1"] == 0.0
    assert bound > 0


def test_tail_leakage_static_mixed_observable():
    # B = q1 * P1 with A = q (x) P exactly: A - B = (q - q0) P
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    expr = parse_expression("q1*P1", S11)
    obs = HybridObservable(expr, DATA, {1: GQ}, HBAR, {})
    a_full = sector_embed(position_operator(GC), 1, (GC, GQ)).matrix @ sector_embed(
        momentum_operator(GQ, HBAR), 2, (GC, GQ)
    ).matrix
    from halfq.hilbert import OperatorMatrix

    a_op = OperatorMatrix(a_full, (GC, GQ))
    assert a_op.hermitian
    a_decomp = spectral_decompose(a_op)
    b_mat = obs.matrix()
    a0 = float(b_mat.expectation(phi_q).real)
    for L in (1, 2):
        for p in (0.9, 0.99):
            cfg = BoundConfig(L, p)
            margin = delta_L_margin(obs, phi_q, L)
            big = spread_Delta_L(margin.total, cfg)
            for mult in (1.5, 3.0):
                interval = (a0 - mult * big, a0 + mult * big)
                measured, bound = leakage_against(
                    a_decomp, obs, phi_c, phi_q, cfg, interval
                )
                assert measured["X1"] <= bound + 1e-10, (L, p, mult)


def test_leakage_sum_by_hand():
    # two eigenvalues, two xi vectors; X1 keeps a in I0, centers outside window
    eigenvalues = np.array([0.0, 1.0])
    amps = np.array([[0.6, 0.1], [0.2, 0.5]])
    weights = np.array([0.5, 0.5])
    centers = np.array([0.0, 3.0])
    got = leakage_sum(
        eigenvalues, amps, weights, centers, I0=(-0.5, 0.5), window=(-1.0, 1.0),
        which="X1",
    )
    # only eigenvalue 0 in I0; only center 3 outside window
    assert abs(got - (0.1 * 0.5) ** 2) < 1e-15
    got2 = leakage_sum(
        eigenvalues, amps, weights, centers, I0=(-0.5, 0.5), window=(-1.0, 1.0),
        which="X2",
    )
    # a = 1 outside I0, center 0 inside window
    assert abs(got2 - (0.2 * 0.5) ** 2) < 1e-15


def test_operator_discrepancy_vanishes_without_classical_dependence():
    phi_c = gaussian_state(GC, 0.0, 1.0, 2**-0.5, HBAR)
    phi_q = quantum_packet()
    obs = observable_at("P1", 0.9)
    a_full = compile_expression(System(0, 2).P(2), {}, {1: GC, 2: GQ}, HBAR)
    lhs, rhs = operator_discrepancy(a_full, obs, phi_c, phi_q, 1)
    assert lhs < 1e-10
    assert rhs == 0.0


def test_operator_discrepancy_static_bound():
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    expr = parse_expression("q1*P1", S11)
    obs = HybridObservable(expr, DATA, {1: GQ}, HBAR, {})
    a_op = compile_expression(
        parse_expression("Q1*P2", System(0, 2)), {}, {1: GC, 2: GQ}, HBAR
    )
    for L in (1, 2):
        lhs, rhs = operator_discrepancy(a_op, obs, phi_c, phi_q, L)
        assert lhs <= rhs * (1 + 1e-6), (L, lhs, rhs)
        assert lhs > 0


def test_hybrid_observable_validates_bindings():
    expr = parse_expression("q2*P1", System(2, 1))
    with pytest.raises(Exception):
        HybridObservable(expr, DATA, {1: GQ}, HBAR, {})
    expr2 = parse_expression("k*P1", S11, ("k",))
    with pytest.raises(Exception, match="unbound"):
        HybridObservable(expr2, DATA, {1: GQ}, HBAR, {})


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(0, 0.9)
    with pytest.raises(ValueError):
        BoundConfig(1, 1.0)
    with pytest.raises(ValueError):
        BoundConfig(1, 0.5, I_B=-1.0)
