"""Margins, xi states, prediction bounds, leakage, discrepancy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from halfq import System, heisenberg_series, parse_expression
from halfq.algebra import embed
from halfq.bounds import (
    BoundConfig,
    delta_L_margin,
    leakage_constant,
    leakage_sectors,
    power_weights,
    prediction_bounds,
    spread_Delta_L,
    worst_case_errors,
)
from halfq.classicality import ClassicalData, ClassicalDatum, certify, classicality_sequences
from halfq.hilbert import (
    Grid,
    SpectralDecomp,
    State,
    compile_expression,
    gaussian_state,
    interval_mask,
    interval_mass,
    spectral_decompose,
    spectral_masses,
    tensor,
)

from grid_operators import momentum_operator, position_operator

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
    return sol.substitute_constants(subs)


def compiled(expr):
    """The sector operator B of ``expr``, classical symbols at their centers."""
    return compile_expression(expr, DATA.centers(), (GQ,), HBAR)


def quantum_packet():
    return gaussian_state(GQ, 0.0, 1.0, 1.0, HBAR)


def bound_for(obs, phi, cfg, a0, mult, data=DATA):
    """The sandwich of ``obs`` centred on ``a0`` at width multiplier
    ``mult``, from its spectrum and margin."""
    decomp = spectral_decompose(compiled(obs).dense())
    margin = delta_L_margin(obs, data, phi, HBAR, [cfg.L])[cfg.L]
    masses = spectral_masses(decomp, phi.amplitudes)
    return prediction_bounds(decomp.eigenvalues, masses, cfg, a0, mult, margin)


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
        margins = delta_L_margin(observable_at(name, t), DATA, phi, HBAR, (1, 2, 3))
        assert list(margins) == [1, 2, 3]
        for L, margin in margins.items():
            assert abs(margin.total - want) < 1e-10, (name, L)
            assert margin.second_order == 0.0


def test_margin_is_state_independent_for_constant_derivatives():
    other = gaussian_state(GQ, 1.0, -0.5, 0.7, HBAR)
    m1 = delta_L_margin(observable_at("q1", 0.5), DATA, quantum_packet(), HBAR, [1])[1]
    m2 = delta_L_margin(observable_at("q1", 0.5), DATA, other, HBAR, [1])[1]
    assert abs(m1.total - m2.total) < 1e-12


def test_margin_second_order_term():
    # B = q^2 P: d2B/dq2 = 2P, so the n=2 term is (1/2)|<xi|(2P)^2L|xi>|^(1/2L) dq^2
    obs = parse_expression("q1^2*P1", S11)
    phi = quantum_packet()
    margin = delta_L_margin(obs, DATA, phi, HBAR, [1])[1]
    p_mat = momentum_operator(GQ, HBAR).dense()
    p2 = float(np.vdot(phi.amplitudes, p_mat @ p_mat @ phi.amplitudes).real)
    # first order: |<phi|(2 q P)^dag (2 q P)|phi>|^(1/2) at q=q0=0 -> 0
    assert margin.total == 0.0
    want_second = 0.5 * 2.0 * np.sqrt(p2) * DATA.data[0].delta_q ** 2
    assert abs(margin.second_order - want_second) < 1e-10


def test_spread_values():
    assert abs(spread_Delta_L(1.0, BoundConfig(1, 0.99)) - 20.0) < 1e-9
    assert abs(spread_Delta_L(1.0, BoundConfig(10, 0.99999)) - 3.6) < 0.05
    assert spread_Delta_L(0.0, BoundConfig(1, 0.9)) == 0.0


def test_worst_case_error_constants():
    row1 = worst_case_errors(BoundConfig(1, 0.99))
    import math

    assert abs(row1["worst_error"] - (2 * math.sqrt(0.1) + 0.1)) < 1e-12
    assert abs(row1["worst_error"] - 0.72) < 0.02
    row10 = worst_case_errors(BoundConfig(10, 0.99999))
    assert abs(row10["worst_error"] - 0.0019) < 1e-4
    assert abs(row10["leakage"] - 9.4e-7) < 1e-8


def test_leakage_constant_degenerate_and_invalid():
    assert leakage_constant(0.0, BoundConfig(1, 0.99)) == 0.0
    assert leakage_constant(0.0, BoundConfig(2, 0.9)) == 0.0
    with pytest.raises(ValueError, match="I_B must be positive"):
        BoundConfig(1, 0.99, I_B=0.0)


# --------------------------------------------------------------------------
# xi states


def paper_xi_states(decomp, phi_quantum, I_B):
    """The paper's xi states, the reference for the sector identity: one
    (center b_u, quantum factor xi_u, weight <xi_u|phi>) per window of
    width 2 I_B stepping from the spectral minimum that phi^Q populates."""
    amps = decomp.amplitudes(phi_quantum.amplitudes)
    lo = float(decomp.eigenvalues[0])
    bins = np.floor((decomp.eigenvalues - lo) / (2.0 * I_B)).astype(int)
    out = []
    for u in sorted(set(bins.tolist())):
        coeffs = np.where(bins == u, amps, 0.0)
        weight_sq = float(np.sum(np.abs(coeffs) ** 2))
        if weight_sq <= 1e-30:
            continue
        vec = decomp.eigenvectors @ coeffs / math.sqrt(weight_sq)
        weight = complex(np.vdot(vec, phi_quantum.amplitudes))
        out.append((lo + (2 * u + 1) * I_B, vec, weight))
    return out


def paper_leakage_sum(eigenvalues, xi_amps, xis, I0, big_delta):
    """X1 and X2 as the paper writes them: |sum_u <phi|xi_u><xi_u|a>|^2
    summed over a in I0 and centers outside Imax (X1), or over a outside
    I0 and centers inside Imin (X2); ``xi_amps[i, u] = <a_i|xi_u>``."""
    centers = np.array([center for center, _, _ in xis])
    weights = np.array([weight for _, _, weight in xis])
    a0, D = 0.5 * (I0[0] + I0[1]), 0.5 * (I0[1] - I0[0])
    in_I0 = interval_mask(eigenvalues, I0)
    out = {}
    for which, w in (("X1", D + big_delta), ("X2", D - big_delta)):
        in_window = interval_mask(centers, (a0 - w, a0 + w))
        a_mask, u_mask = (in_I0, ~in_window) if which == "X1" else (~in_I0, in_window)
        block = xi_amps[a_mask][:, u_mask] @ weights[u_mask]
        out[which] = float(np.sum(np.abs(block) ** 2))
    return out


def sector_leakage(a_decomp, evolve, sectors, I0):
    """X1 and X2 as interval masses of the evolved leakage sectors."""
    masses = np.abs(a_decomp.amplitudes(evolve(sectors))) ** 2
    in_I0 = interval_mask(a_decomp.eigenvalues, I0)
    return {"X1": float(masses[in_I0, 0].sum()), "X2": float(masses[~in_I0, 1].sum())}


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return h + h.conj().T


@pytest.mark.parametrize("seed", range(4))
def test_leakage_sectors_match_the_paper_xi_sum(seed):
    # sum_{u in S} <xi_u|phi> xi_u = P_S phi: the leakage of the paper's xi
    # states equals the interval mass of one projected state, for any
    # evolution W and any measured observable A
    rng = np.random.default_rng(seed)
    n = 40
    g = Grid(n, -8.0, 8.0)
    b = spectral_decompose(random_hermitian(rng, n))
    a_decomp = spectral_decompose(random_hermitian(rng, n))
    w = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi = State(vec / np.linalg.norm(vec), (g,))
    a0 = rng.normal()
    largest = {"X1": 0.0, "X2": 0.0}
    for I_B in (0.5, 1.3, 3.0):
        xis = paper_xi_states(b, phi, I_B)
        xi_amps = a_decomp.amplitudes(w @ np.column_stack([x for _, x, _ in xis]))
        for D, big in ((2.0, 0.4), (5.0, 1.5), (9.0, 8.5)):
            I0 = (a0 - D, a0 + D)
            want = paper_leakage_sum(a_decomp.eigenvalues, xi_amps, xis, I0, big)
            imax, imin = (a0 - (D + big), a0 + (D + big)), (a0 - (D - big), a0 + (D - big))
            sectors = leakage_sectors(b, b.amplitudes(phi.amplitudes), I_B, imax, imin)
            got = sector_leakage(a_decomp, lambda cols: w @ cols, sectors, I0)
            for which in ("X1", "X2"):
                assert abs(got[which] - want[which]) <= 1e-12, (I_B, D, big, which)
                largest[which] = max(largest[which], want[which])
    assert min(largest.values()) > 1e-2


def test_xi_requires_positive_window():
    b = spectral_decompose(position_operator(GQ).dense())
    with pytest.raises(ValueError):
        leakage_sectors(b, b.amplitudes(quantum_packet().amplitudes), 0.0, (-2.0, 2.0), (-1.0, 1.0))


# --------------------------------------------------------------------------
# prediction bounds


def test_prediction_bound_geometry_and_sandwich_algebra():
    obs = observable_at("q1", 0.6)
    phi = quantum_packet()
    cfg = BoundConfig(1, 0.99)
    margin = delta_L_margin(obs, DATA, phi, HBAR, [1])[1]
    big = spread_Delta_L(margin.total, cfg)
    pb = bound_for(obs, phi, cfg, 0.6, 2.0)
    assert pb.D == 2.0 * big and pb.I0 == (0.6 - pb.D, 0.6 + pb.D)
    assert pb.Imin[0] > pb.I0[0] > pb.Imax[0]
    assert pb.Imin[1] < pb.I0[1] < pb.Imax[1]
    assert pb.lower <= pb.upper
    assert 0.0 <= pb.lower_clamped <= pb.upper_clamped <= 1.0
    leak = leakage_constant(margin.total, cfg)
    want_emin = 2 * math.sqrt(1 - pb.Pmin) * math.sqrt(leak) + leak
    assert abs(pb.Emin - want_emin) < 1e-12


def test_prediction_bound_rejects_narrow_interval():
    # D = mult * Delta_L must exceed Delta_L > 0: a multiplier <= 1 is refused
    obs = observable_at("q1", 0.5)
    cfg = BoundConfig(1, 0.99)
    for mult in (0.5, 1.0):
        with pytest.raises(ValueError, match="width multiplier .* must exceed 1"):
            bound_for(obs, quantum_packet(), cfg, 0.0, mult)


def test_prediction_bound_degenerate_exact_case():
    # P(t): no classical dependence; bounds collapse to the exact
    # quantum-sector probability with zero error terms
    obs = observable_at("P1", 0.7)
    phi = quantum_packet()
    # with Delta_L = 0 the multiplier is D itself, and 1 is allowed
    pb = bound_for(obs, phi, BoundConfig(1, 0.99), 1.0, 1.0)
    assert pb.I0 == (0.0, 2.0)
    assert pb.delta_L == 0.0 and pb.Delta_L == 0.0
    assert pb.Emin == 0.0 and pb.Emax == 0.0
    assert pb.Imin == pb.I0 == pb.Imax
    d = spectral_decompose(compiled(obs).dense())
    direct = interval_mass(d.eigenvalues, spectral_masses(d, phi.amplitudes), (0.0, 2.0))
    assert abs(pb.lower - direct) < 1e-12
    assert abs(pb.upper - direct) < 1e-12


def test_bound_width_monotone_in_margins():
    phi = quantum_packet()
    cfg = BoundConfig(1, 0.9)
    widths = []
    for scale in (1.0, 2.0, 4.0):
        data = DATA.scaled(scale)
        obs = observable_at("q1", 0.4)
        pb = bound_for(obs, phi, cfg, 0.4, 1.5, data)
        widths.append(pb.upper - pb.lower)
    assert widths[0] <= widths[1] <= widths[2]


def test_prediction_bound_json_fields():
    pb = bound_for(observable_at("q1", 0.3), quantum_packet(), BoundConfig(1, 0.99), 0.0, 2.0)
    blob = pb.to_json_dict()
    assert blob["a0"] == 0.0 and blob["width_multiplier"] == 2.0 and "D" not in blob
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


def leakage_against(a_decomp, obs, phi_c, phi_q, cfg, a0, mult):
    """Measured X1/X2 of a static observable and the leakage constant."""
    pb = bound_for(obs, phi_q, cfg, a0, mult)
    b = spectral_decompose(compiled(obs).dense())
    sectors = leakage_sectors(b, b.amplitudes(phi_q.amplitudes), pb.I_B, pb.Imax, pb.Imin)
    measured = sector_leakage(
        a_decomp, lambda cols: np.kron(phi_c.amplitudes[:, None], cols), sectors, pb.I0
    )
    assert pb.leakage == leakage_constant(pb.delta_L, cfg)
    return measured, pb.leakage


def test_tail_leakage_no_weight_outside_window():
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    obs = observable_at("q1", 0.5)
    a_full = np.kron(position_operator(GC).dense(), np.eye(32))
    # I0 spanning far beyond the spectrum (Delta_L = 30, D = 600): nothing
    # outside Imax
    measured, bound = leakage_against(
        spectral_decompose(a_full), obs, phi_c, phi_q, BoundConfig(1, 0.99), 0.0, 20.0
    )
    assert measured["X1"] == 0.0
    assert bound > 0


def test_tail_leakage_static_mixed_observable():
    # B = q1 * P1 with A = q (x) P exactly: A - B = (q - q0) P
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    obs = parse_expression("q1*P1", S11)
    a_full = np.kron(position_operator(GC).dense(), momentum_operator(GQ, HBAR).dense())
    # raises unless A = q (x) P is Hermitian to HERMITIAN_RTOL
    a_decomp = spectral_decompose(a_full)
    b_mat = compiled(obs).dense()
    a0 = float(np.vdot(phi_q.amplitudes, b_mat @ phi_q.amplitudes).real)
    for L in (1, 2):
        for p in (0.9, 0.99):
            cfg = BoundConfig(L, p)
            for mult in (1.5, 3.0):
                measured, bound = leakage_against(a_decomp, obs, phi_c, phi_q, cfg, a0, mult)
                assert measured["X1"] <= bound + 1e-10, (L, p, mult)


def test_leakage_sum_by_hand():
    # B = diag(0, 0.9, 1.2, 3) with I_B = 0.5: windows of width 1 from 0,
    # centred at 0.5, 0.5, 1.5 and 3.5; window centres, not eigenvalues,
    # decide membership
    b = SpectralDecomp(np.array([0.0, 0.9, 1.2, 3.0]), np.eye(4))
    phi = np.full(4, 0.5, dtype=complex)
    sectors = leakage_sectors(b, b.amplitudes(phi), 0.5, (-1.0, 1.4), (0.4, 1.3))
    # X1: centres 1.5 and 3.5 lie outside Imax (eigenvalue 1.2 lies inside)
    assert np.array_equal(sectors[:, 0], [0.0, 0.0, 0.5, 0.5])
    # X2: centre 0.5 lies inside Imin (eigenvalue 0 lies outside)
    assert np.array_equal(sectors[:, 1], [0.5, 0.5, 0.0, 0.0])
    # measured against B itself, unevolved, over I0 = [0.5, 1.25]
    got = sector_leakage(b, lambda cols: cols, sectors, (0.5, 1.25))
    assert got == {"X1": 0.25, "X2": 0.25}


def discrepancy(a_full, b, psi, orders):
    """{L: |<psi|(A-B)^2L|psi>|^(1/2L)} of the full-quantum expression
    ``a_full`` and the sector expression ``b``, whose quantum DOF follows
    the classical one: the weights of the exact difference, compiled once."""
    full = System(1, a_full.system.quantum)
    diff = embed(a_full, full, 0) - embed(b, full, 1)
    return power_weights(diff, DATA.centers(), psi, HBAR, orders)


def test_operator_discrepancy_vanishes_without_classical_dependence():
    phi_c = gaussian_state(GC, 0.0, 1.0, 2**-0.5, HBAR)
    phi_q = quantum_packet()
    obs = observable_at("P1", 0.9)
    margin = delta_L_margin(obs, DATA, phi_q, HBAR, [1])[1]
    psi = tensor(phi_c, phi_q)
    # A - B is exactly zero, so the discrepancy is too, with no rounding
    lhs = discrepancy(System(0, 2).P(2), obs, psi, [1])[1]
    assert lhs == 0.0
    assert margin.with_second_order == 0.0


def test_operator_discrepancy_static_bound():
    phi_c = certified_classical_packet()
    phi_q = quantum_packet()
    obs = parse_expression("q1*P1", S11)
    a_full = parse_expression("Q1*P2", System(0, 2))
    for L in (1, 2):
        rhs = delta_L_margin(obs, DATA, phi_q, HBAR, [L])[L].with_second_order
        lhs = discrepancy(a_full, obs, tensor(phi_c, phi_q), [L])[L]
        assert lhs <= rhs * (1 + 1e-6), (L, lhs, rhs)
        assert lhs > 0


def test_operator_discrepancy_runs_one_chain_for_all_orders():
    # the 32x32 example's Q1 at t = 0.8: orders 1..4 from one chain of the
    # compiled difference A(t) - B, each bitwise the value of a chain run to
    # that order alone, and each the dense reference
    # |<psi|(A - I (x) B)^2L|psi>|^(1/2L) to 1e-12
    from halfq.experiment import build_example, hybrid_solutions, sandwich_sweep

    cfg = build_example(npoints=32, extent=8.0, times=(0.8,))
    point = next(
        p for p, _, _ in sandwich_sweep(cfg, hybrid_solutions(cfg), (1,))
        if p.observable.name == "Q1"
    )
    h = cfg.full_hamiltonian_expr()
    series = heisenberg_series(h.system.Q(2), h).substitute_constants({"t": point.t})
    psi = tensor(cfg.classical_factor(), cfg.quantum_factor())
    got = discrepancy(series, point.expr, psi, range(1, 5))
    assert list(got) == [1, 2, 3, 4]
    a_dense = compile_expression(series, {}, cfg.all_grids(), HBAR).dense()
    b_dense = compile_expression(point.expr, DATA.centers(), cfg.quantum_grids, HBAR).dense()
    diff = a_dense - np.kron(np.eye(32), b_dense)
    vec = psi.amplitudes
    for L, value in got.items():
        assert value == discrepancy(series, point.expr, psi, [L])[L]
        vec = diff @ vec
        assert abs(value - np.linalg.norm(vec) ** (1.0 / L)) <= 1e-12 * value, L
        assert value > 0


def test_compile_expression_validates_bindings():
    # a classical symbol with no classical data, and a free constant
    expr = parse_expression("q2*P1", System(2, 1))
    with pytest.raises(Exception, match="unbound"):
        compile_expression(expr, DATA.centers(), (GQ,), HBAR)
    # the margin's derivatives along q1 and p1 all vanish, so only the
    # binding check sees q2
    with pytest.raises(Exception, match="unbound"):
        delta_L_margin(expr, DATA, quantum_packet(), HBAR, [1])
    expr2 = parse_expression("k*P1", S11, ("k",))
    with pytest.raises(Exception, match="unbound"):
        compile_expression(expr2, DATA.centers(), (GQ,), HBAR)


def test_bound_config_validation():
    with pytest.raises(ValueError):
        BoundConfig(0, 0.9)
    with pytest.raises(ValueError):
        BoundConfig(1, 1.0)
    with pytest.raises(ValueError):
        BoundConfig(1, 0.5, I_B=-1.0)
    with pytest.raises(ValueError):
        BoundConfig(1, 0.5, I_B=0.0)
