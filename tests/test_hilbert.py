"""Grids, states, operators: analytic and quadrature oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from halfq import System, heisenberg_series, parse_expression, weyl_quantize
from halfq.hilbert import (
    Grid,
    GridError,
    OperatorMatrix,
    State,
    chebyshev_coefficients,
    compile_expression,
    evaluate_symbolic,
    evolve_full_quantum,
    gaussian_state,
    identity_operator,
    interval_probability,
    momentum_operator,
    position_operator,
    sector_embed,
    spectral_decompose,
    tensor,
)

HBAR = 1.0


def gaussian_quadrature_moment(q0, dq, power, phase_p0=0.0):
    """Independent oracle: integrate the analytic packet density on a fine
    grid (trapezoid, 2^15 points over +-12 widths)."""
    x = np.linspace(q0 - 12 * dq, q0 + 12 * dq, 2**15)
    density = np.exp(-((x - q0) ** 2) / (2 * dq * dq))
    density /= np.trapezoid(density, x)
    return float(np.trapezoid((x - q0) ** power * density, x))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(4, -1.0, 1.0)
    with pytest.raises(GridError):
        Grid(16, 2.0, 1.0)
    g = Grid(16, -4.0, 4.0)
    assert g.spacing == 0.5
    assert g.points()[0] == -4.0


def test_gaussian_norm_and_moments():
    g = Grid(64, -16.0, 16.0)
    dq = 1.2
    psi = gaussian_state(g, 1.0, 0.5, dq, HBAR)
    assert abs(psi.norm() - 1.0) < 1e-12
    qop = position_operator(g)
    assert abs(qop.expectation(psi).real - 1.0) < 1e-8
    dev = qop.matrix - np.eye(64)
    m2 = np.vdot(psi.amplitudes, dev @ dev @ psi.amplitudes).real
    m4 = np.vdot(psi.amplitudes, np.linalg.matrix_power(dev, 4) @ psi.amplitudes).real
    assert abs(m2 - gaussian_quadrature_moment(1.0, dq, 2)) < 1e-6
    assert abs(m2 - dq * dq) < 1e-6
    assert abs(m4 - gaussian_quadrature_moment(1.0, dq, 4)) < 1e-6
    assert abs(m4 - 3 * dq**4) < 1e-6


def test_gaussian_packet_must_fit():
    with pytest.raises(GridError, match="does not fit"):
        gaussian_state(Grid(16, -4.0, 4.0), 0.0, 0.0, 1.0, HBAR)
    with pytest.raises(GridError):
        gaussian_state(Grid(16, -4.0, 4.0), 3.9, 0.0, 0.2, HBAR)


def test_momentum_expectation_matches_packet_phase():
    g = Grid(128, -16.0, 16.0)
    psi = gaussian_state(g, 0.0, 0.7, 1.0, HBAR)
    pop = momentum_operator(g, HBAR)
    # analytic: <p> = p0 exactly for the phase-carrying packet
    assert abs(pop.expectation(psi).real - 0.7) < 1e-6


def test_momentum_spectrum_is_fourier_ladder():
    g = Grid(64, -8.0, 8.0)
    pop = momentum_operator(g, HBAR)
    got = np.sort(np.linalg.eigvalsh(pop.matrix))
    want = np.sort(2 * np.pi * HBAR * np.fft.fftfreq(64, d=g.spacing))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ccr_on_bulk_states():
    g = Grid(64, -16.0, 16.0)
    q = position_operator(g).matrix
    p = momentum_operator(g, HBAR).matrix
    psi = gaussian_state(g, 0.5, 1.0, 1.0, HBAR).amplitudes
    residual = (q @ p - p @ q) @ psi - 1j * HBAR * psi
    assert np.linalg.norm(residual) < 1e-6


def test_tensor_properties():
    g1, g2 = Grid(8, -2.0, 2.0), Grid(16, -4.0, 4.0)
    i1, i2 = identity_operator([g1]), identity_operator([g2])
    assert np.allclose(tensor(i1, i2).matrix, np.eye(128))
    q1 = position_operator(g1)
    p2 = momentum_operator(g2, HBAR)
    lhs = tensor(q1, i2).matrix @ tensor(i1, p2).matrix
    np.testing.assert_allclose(lhs, np.kron(q1.matrix, p2.matrix), atol=1e-12)
    a = gaussian_state(g2, 0.0, 0.0, 0.5, HBAR)
    b = gaussian_state(g2, 1.0, 0.3, 0.5, HBAR)
    assert abs(tensor(a, b).norm() - 1.0) < 1e-12


def test_sector_embed_matches_kron():
    g1, g2 = Grid(8, -2.0, 2.0), Grid(8, -2.0, 2.0)
    q2 = position_operator(g2)
    embedded = sector_embed(q2, 2, (g1, g2))
    np.testing.assert_allclose(embedded.matrix, np.kron(np.eye(8), q2.matrix))
    with pytest.raises(GridError):
        sector_embed(position_operator(Grid(16, -2.0, 2.0)), 1, (g1, g2))


def test_evaluate_symbolic_scalar_binding():
    s = System(1, 1)
    g = Grid(16, -4.0, 4.0)
    mat = evaluate_symbolic(s.q(1), {"q1": 2.0}, {1: g}, HBAR)
    np.testing.assert_allclose(mat.matrix, 2.0 * np.eye(16), atol=1e-14)


def test_evaluate_symbolic_ccr_on_smooth_states():
    s = System(0, 1)
    g = Grid(64, -16.0, 16.0)
    expr = s.Q(1) * s.P(1) - s.P(1) * s.Q(1)
    mat = evaluate_symbolic(expr, {}, {1: g}, HBAR)
    psi = gaussian_state(g, 0.0, 0.5, 1.0, HBAR).amplitudes
    assert np.linalg.norm(mat.matrix @ psi - 1j * HBAR * psi) < 1e-6


def test_evaluate_symbolic_closed_form_solution():
    # q(t) at t=1, m=1, k=0.1, q0=0, p0=1: matrix I - 0.05 P
    s = System(1, 1)
    h = parse_expression("P1^2/(2*M) + p1^2/(2*m) + k*q1*P1", s, ("m", "M", "k"))
    sol = heisenberg_series(s.q(1), h).substitute_constants(
        {"m": 1, "M": 1, "k": Fraction(1, 10), "t": 1}
    )
    g = Grid(32, -8.0, 8.0)
    mat = evaluate_symbolic(sol, {"q1": 0.0, "p1": 1.0}, {1: g}, HBAR)
    want = np.eye(32) - 0.05 * momentum_operator(g, HBAR).matrix
    np.testing.assert_allclose(mat.matrix, want, atol=1e-12)


def test_evaluate_symbolic_unbound_symbol():
    s = System(1, 1)
    with pytest.raises(Exception, match="unbound"):
        evaluate_symbolic(s.q(1), {}, {1: Grid(16, -4.0, 4.0)}, HBAR)


def test_quantized_real_polynomial_is_hermitian():
    # symbolic self-adjointness is exact; the grid realization is Hermitian
    # in the bulk-weak sense (same-DOF mixed products pick up aliasing
    # defects at the edges), and exactly for the example Hamiltonian
    rng = np.random.default_rng(4)
    sc = System(1, 0)
    g = Grid(64, -16.0, 16.0)
    expr = sc.zero()
    for _ in range(5):
        term = sc.scalar(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))))
        for _ in range(int(rng.integers(0, 4))):
            term = term * (sc.q(1) if rng.random() < 0.5 else sc.p(1))
        expr = expr + term
    quantized = weyl_quantize(expr)
    assert quantized.adjoint() == quantized
    mat = evaluate_symbolic(quantized, {}, {1: g}, HBAR).matrix
    phi = gaussian_state(g, 0.3, 0.5, 1.0, HBAR).amplitudes
    chi = gaussian_state(g, -0.8, -0.2, 1.3, HBAR).amplitudes
    lhs = np.vdot(phi, mat @ chi)
    rhs = np.conj(np.vdot(chi, mat @ phi))
    assert abs(lhs - rhs) < 1e-6

    s2 = System(2, 0)
    h_cl = parse_expression(
        "p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", s2, ("m", "M", "k")
    )
    g8 = Grid(16, -4.0, 4.0)
    h_mat = evaluate_symbolic(
        weyl_quantize(h_cl), {}, {1: g8, 2: g8}, HBAR, {"m": 1.0, "M": 1.0, "k": 0.1}
    )
    assert h_mat.hermitian


def test_spectral_decompose_diagonal_and_pauli():
    g = Grid(8, -2.0, 2.0)
    d = spectral_decompose(position_operator(g))
    np.testing.assert_allclose(d.eigenvalues, np.sort(g.points()))
    # 8x8 block-Pauli: eigenvalues +-1, each fourfold
    pauli = np.kron(np.eye(4), np.array([[0.0, 1.0], [1.0, 0.0]]))
    d2 = spectral_decompose(OperatorMatrix(pauli, (g,)))
    np.testing.assert_allclose(d2.eigenvalues, [-1.0] * 4 + [1.0] * 4, atol=1e-12)


def test_spectral_decompose_reconstruction():
    rng = np.random.default_rng(0)
    n = 50
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    g = Grid(n, -1.0, 1.0)
    op = OperatorMatrix(a, (g,))
    d = spectral_decompose(op)
    recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T
    scale = np.max(np.abs(a))
    assert np.max(np.abs(recon - a)) <= 1e-8 * scale
    gram = d.eigenvectors.conj().T @ d.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_spectral_decompose_rejects_non_hermitian():
    g = Grid(8, -2.0, 2.0)
    mat = np.diag(np.arange(8.0)) + 0.1j * np.eye(8)[::-1]
    with pytest.raises(Exception, match="Hermitian"):
        spectral_decompose(OperatorMatrix(mat, (g,)))


def test_interval_probability_completeness_and_eigenvector():
    g = Grid(32, -8.0, 8.0)
    d = spectral_decompose(momentum_operator(g, HBAR))
    psi = gaussian_state(g, 0.0, 0.3, 1.0, HBAR)
    full = interval_probability(d, psi, (d.eigenvalues[0], d.eigenvalues[-1]))
    assert abs(full - 1.0) < 1e-10
    eigvec = State(d.eigenvectors[:, 5], (g,))
    lam = d.eigenvalues[5]
    assert abs(interval_probability(d, eigvec, (lam, lam)) - 1.0) < 1e-10


def test_interval_probability_gaussian_erf():
    # endpoints midway between grid points so the Riemann sum is midpoint
    # rule; q0 = spacing/2 puts q0 +- dq exactly between nodes
    g = Grid(256, -16.0, 16.0)
    q0 = g.spacing / 2
    psi = gaussian_state(g, q0, 0.0, 1.0, HBAR)
    d = spectral_decompose(position_operator(g))
    got = interval_probability(d, psi, (q0 - 1.0, q0 + 1.0))
    assert abs(got - math.erf(1 / math.sqrt(2))) < 1e-3


def test_interval_probability_additive_and_monotone():
    g = Grid(64, -16.0, 16.0)
    d = spectral_decompose(position_operator(g))
    psi = gaussian_state(g, 0.0, 0.4, 1.5, HBAR)
    left = interval_probability(d, psi, (-8.0, 0.1))
    right = interval_probability(d, psi, (0.35, 8.0))
    union = interval_probability(d, psi, (-8.0, 8.0))
    inner = interval_probability(d, psi, (0.1, 0.35))
    assert abs((left + right + inner) - union) < 1e-10
    assert interval_probability(d, psi, (-2.0, 2.0)) <= union + 1e-12


def test_evolution_identity_and_phases():
    g = Grid(16, -4.0, 4.0)
    h = compile_expression(System(0, 1).Q(1), {}, {1: g}, HBAR)
    psi = gaussian_state(g, 0.0, 0.0, 0.5, HBAR)
    same = evolve_full_quantum(h, psi, 0.0, HBAR)
    np.testing.assert_allclose(same.amplitudes, psi.amplitudes, atol=1e-12)
    later = evolve_full_quantum(h, psi, 0.7, HBAR)
    want = np.exp(-1j * g.points() * 0.7) * psi.amplitudes
    np.testing.assert_allclose(later.amplitudes, want, atol=1e-10)


def test_free_packet_dispersion():
    g = Grid(128, -24.0, 24.0)
    dq, m, t = 1.0, 1.0, 1.0
    psi = gaussian_state(g, 0.0, 0.0, dq, HBAR)
    h = compile_expression(
        parse_expression("P1^2/(2*m)", System(0, 1), ("m",)), {}, {1: g}, HBAR, {"m": m}
    )
    psi_t = evolve_full_quantum(h, psi, t, HBAR)
    q = position_operator(g).matrix
    var = np.vdot(psi_t.amplitudes, q @ q @ psi_t.amplitudes).real
    analytic = dq**2 * (1 + (HBAR * t / (2 * m * dq**2)) ** 2)
    assert abs(var - analytic) < 1e-4
    assert abs(psi_t.norm() - 1.0) < 1e-9


def test_heisenberg_schroedinger_consistency():
    """Interval statistics of the evolved operator against the evolved state
    on the coupled example; grid-limited tolerance 1e-3."""
    s2 = System(2, 0)
    consts = {"m": 1.0, "M": 1.0, "k": 0.1}
    h_cl = parse_expression("p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", s2, tuple(consts))
    h_expr = weyl_quantize(h_cl)
    gc = Grid(32, -8.0, 8.0)
    gq = Grid(32, -8.0, 8.0)
    grids = {1: gc, 2: gq}
    h_op = compile_expression(h_expr, {}, grids, HBAR, consts)
    psi0 = tensor(
        gaussian_state(gc, 0.0, 1.0, 2**-0.5, HBAR),
        gaussian_state(gq, 0.0, 1.0, 1.0, HBAR),
    )
    t = 0.5
    subs = {"m": 1, "M": 1, "k": Fraction(1, 10), "t": Fraction(1, 2)}
    full_sys = System(0, 2)
    a_t_expr = heisenberg_series(full_sys.Q(1), h_expr, bracket="commutator")
    a_t = evaluate_symbolic(a_t_expr.substitute_constants(subs), {}, grids, HBAR, consts)
    # endpoints midway between position nodes, away from the density peak
    # (knife-edge node mass would otherwise dominate the comparison)
    interval = (-1.25, 2.25)
    heis = interval_probability(spectral_decompose(a_t), psi0, interval)
    psi_t = evolve_full_quantum(h_op, psi0, t, HBAR)
    a_0 = sector_embed(position_operator(gc), 1, (gc, gq))
    schr = interval_probability(spectral_decompose(a_0), psi_t, interval)
    assert 0.9 < schr < 0.99  # nontrivial probability
    assert abs(heis - schr) < 1e-3


def test_chebyshev_coefficients_match_scipy_bessel():
    jv = pytest.importorskip("scipy.special").jv
    for alpha in (0.0, 0.3, 5.0, 27.1, 56.4, -3.0):
        coeffs = chebyshev_coefficients(alpha)
        n = np.arange(coeffs.size)
        want = np.where(n == 0, 1.0, 2.0) * (-1j) ** n * jv(n, alpha)
        assert np.max(np.abs(coeffs - want)) <= 1e-14, alpha
        # the first dropped coefficient is already below the tail bound
        assert 2 * abs(jv(coeffs.size, alpha)) < 1e-15
    # no truncation within the term cap, or no number at all: refuse
    for alpha in (1e6, float("nan")):
        with pytest.raises(GridError):
            chebyshev_coefficients(alpha)


def test_compiled_apply_matches_dense_on_column_batches():
    # mixed Q/P words on several axes, complex and hbar-graded scalars
    s = System(0, 3)
    expr = parse_expression(
        "Q1^2*P1*Q2*P3^2 + (2+i)*Q1*P2 - 3*P1^2*Q3 + hbar*Q2^3 + 5", s
    )
    grids = {1: Grid(8, -2.0, 2.0), 2: Grid(10, -3.0, 3.0), 3: Grid(12, -1.0, 2.0)}
    op = compile_expression(expr, {}, grids, 0.7)
    dense = op.dense().matrix
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(960, 5)) + 1j * rng.normal(size=(960, 5))
    scale = np.max(np.abs(dense)) * np.max(np.abs(batch)) * 960
    assert np.max(np.abs(op.apply(batch) - dense @ batch)) <= 1e-14 * scale
    assert np.max(np.abs(op.apply(batch[:, 2]) - dense @ batch[:, 2])) <= 1e-14 * scale


def test_chebyshev_matches_eigh_reference_on_example():
    """Independent oracle check: Chebyshev propagation of the example's
    initial state and xi columns against dense eigh propagation of a
    Hamiltonian assembled here by Kronecker products, at the sweep times."""
    from halfq.bounds import HybridObservable, xi_states
    from halfq.experiment import build_example, hybrid_solutions

    cfg = build_example(npoints=32, extent=8.0)
    gc, gq = cfg.classical_grids[0], cfg.quantum_grids[0]
    consts = cfg.constants
    h_op = compile_expression(
        cfg.full_hamiltonian_expr(), {}, {1: gc, 2: gq}, HBAR, consts
    )
    p_c = momentum_operator(gc, HBAR).matrix
    p_q = momentum_operator(gq, HBAR).matrix
    h_dense = (
        np.kron(p_c @ p_c, np.eye(32)) / (2 * consts["m"])
        + np.kron(np.eye(32), p_q @ p_q) / (2 * consts["M"])
        + consts["k"] * np.kron(np.diag(gc.points()), p_q)
    )
    w, v = np.linalg.eigh(h_dense)
    phi_c, phi_q = cfg.classical_factor(), cfg.quantum_factor()
    psi0 = tensor(phi_c, phi_q).amplitudes
    sol = hybrid_solutions(cfg)["Q1"]
    for t in cfg.sweep.times:
        subs = {"m": 1, "M": 1, "k": Fraction(1, 10), "t": Fraction(t)}
        obs = HybridObservable(
            sol.substitute_constants(subs), cfg.classical_data, {1: gq}, HBAR, {}
        )
        # fixed window width: Q1 carries no margin at t = 0
        xis = xi_states(obs.matrix(), phi_q, phi_c, 0.25)
        cols = np.column_stack([psi0] + [x.state.amplitudes for x in xis])
        assert cols.shape[1] > 10
        want = v @ (np.exp(-1j * w * t / HBAR)[:, None] * (v.conj().T @ cols))
        got = evolve_full_quantum(h_op, cols, t, HBAR)
        assert np.max(np.abs(got - want)) <= 1e-12, t


def test_boundary_mass_detects_edge_weight():
    g = Grid(32, -8.0, 8.0)
    mid = gaussian_state(g, 0.0, 0.0, 1.0, HBAR)
    assert mid.boundary_mass() < 1e-12
    amps = np.zeros(32, dtype=complex)
    amps[0] = 1.0
    edge = State(amps, (g,))
    assert edge.boundary_mass() > 0.5


def test_state_validation_and_immutability():
    g = Grid(8, -2.0, 2.0)
    with pytest.raises(GridError):
        State(np.zeros(7, dtype=complex), (g,))
    psi = gaussian_state(g, 0.0, 0.0, 0.3, HBAR)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
