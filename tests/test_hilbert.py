"""Grids, states, operators: analytic and quadrature oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfq import (
    AlgebraError,
    CNum,
    Symbol,
    System,
    heisenberg_series,
    parse_expression,
    weyl_quantize,
)
from halfq.hilbert import (
    Grid,
    GridError,
    State,
    chebyshev_coefficients,
    compile_expression,
    evolve_full_quantum,
    fourier_axes,
    gaussian_state,
    interval_mass,
    spectral_decompose,
    spectral_masses,
    tensor,
)

from grid_operators import momentum_operator, position_operator

HBAR = 1.0


def probability(decomp, psi, interval):
    """P(measurement of ``decomp``'s observable on ``psi`` in ``interval``)."""
    return interval_mass(decomp.eigenvalues, spectral_masses(decomp, psi.amplitudes), interval)


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
    qop = position_operator(g).dense()
    assert abs(np.vdot(psi.amplitudes, qop @ psi.amplitudes).real - 1.0) < 1e-8
    dev = qop - np.eye(64)
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
    assert abs(np.vdot(psi.amplitudes, pop.apply(psi.amplitudes)).real - 0.7) < 1e-6


def test_momentum_spectrum_is_fourier_ladder():
    g = Grid(64, -8.0, 8.0)
    pop = momentum_operator(g, HBAR)
    got = np.sort(np.linalg.eigvalsh(pop.dense()))
    want = np.sort(2 * np.pi * HBAR * np.fft.fftfreq(64, d=g.spacing))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_compiled_factors_are_the_position_chain_bit_for_bit():
    # x^q by repeated products, then one momentum matrix per P multiplied
    # from the right: the arithmetic order the seed-0 references depend on
    g, hbar = Grid(24, -5.0, 7.0), 0.7
    s = System(0, 1)
    p = momentum_operator(g, hbar).dense()
    x = g.points()
    x2 = x * x
    for text, want in (("Q1^2*P1^3", x2[:, None] * p @ p @ p), ("P1^2", p @ p)):
        got = compile_expression(parse_expression(text, s), {}, (g,), hbar).dense()
        assert np.array_equal(got, want), text


def test_ccr_on_bulk_states():
    g = Grid(64, -16.0, 16.0)
    q = position_operator(g).dense()
    p = momentum_operator(g, HBAR).dense()
    psi = gaussian_state(g, 0.5, 1.0, 1.0, HBAR).amplitudes
    residual = (q @ p - p @ q) @ psi - 1j * HBAR * psi
    assert np.linalg.norm(residual) < 1e-6


def test_tensor_properties():
    # multi-DOF operators are compiled, never tensored; see
    # test_compiled_apply_matches_dense_on_column_batches
    g1, g2 = Grid(8, -2.0, 2.0), Grid(16, -4.0, 4.0)
    a = gaussian_state(g2, 0.0, 0.0, 0.5, HBAR)
    b = gaussian_state(g2, 1.0, 0.3, 0.5, HBAR)
    assert abs(tensor(a, b).norm() - 1.0) < 1e-12
    with pytest.raises(TypeError):
        tensor(position_operator(g1), momentum_operator(g2, HBAR))


def test_evaluate_symbolic_scalar_binding():
    s = System(1, 1)
    g = Grid(16, -4.0, 4.0)
    mat = compile_expression(s.q(1), {Symbol.q(1): 2.0}, (g,), HBAR).dense()
    np.testing.assert_allclose(mat, 2.0 * np.eye(16), atol=1e-14)


def test_evaluate_symbolic_ccr_on_smooth_states():
    s = System(0, 1)
    g = Grid(64, -16.0, 16.0)
    expr = s.Q(1) * s.P(1) - s.P(1) * s.Q(1)
    mat = compile_expression(expr, {}, (g,), HBAR).dense()
    psi = gaussian_state(g, 0.0, 0.5, 1.0, HBAR).amplitudes
    assert np.linalg.norm(mat @ psi - 1j * HBAR * psi) < 1e-6


def test_evaluate_symbolic_closed_form_solution():
    # q(t) at t=1, m=1, k=0.1, q0=0, p0=1: matrix I - 0.05 P
    s = System(1, 1)
    h = parse_expression("P1^2/(2*M) + p1^2/(2*m) + k*q1*P1", s, ("m", "M", "k"))
    sol = heisenberg_series(s.q(1), h).substitute_constants(
        {"m": 1, "M": 1, "k": Fraction(1, 10), "t": 1}
    )
    g = Grid(32, -8.0, 8.0)
    mat = compile_expression(sol, {Symbol.q(1): 0.0, Symbol.p(1): 1.0}, (g,), HBAR).dense()
    want = np.eye(32) - 0.05 * momentum_operator(g, HBAR).dense()
    np.testing.assert_allclose(mat, want, atol=1e-12)


def test_evaluate_symbolic_unbound_symbol():
    s = System(1, 1)
    with pytest.raises(Exception, match="unbound"):
        compile_expression(s.q(1), {}, (Grid(16, -4.0, 4.0),), HBAR)


def test_compile_expression_takes_one_grid_per_quantum_dof():
    # grids travel in DOF order; a missing or extra grid is refused
    g = Grid(16, -4.0, 4.0)
    expr = parse_expression("Q1*P2", System(0, 2))
    assert compile_expression(expr, {}, (g, g), HBAR).shape == (16, 16)
    for grids in ((g,), (g, g, g)):
        with pytest.raises(AlgebraError, match="grids for 2 quantum DOFs"):
            compile_expression(expr, {}, grids, HBAR)


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
    mat = compile_expression(quantized, {}, (g,), HBAR).dense()
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
    h_exact = weyl_quantize(h_cl).substitute_constants({"m": 1, "M": 1, "k": Fraction(1, 10)})
    h_mat = compile_expression(h_exact, {}, (g8, g8), HBAR).dense()
    spectral_decompose(h_mat)  # raises unless Hermitian to HERMITIAN_RTOL


def test_spectral_decompose_diagonal_and_pauli():
    g = Grid(8, -2.0, 2.0)
    d = spectral_decompose(position_operator(g).dense())
    np.testing.assert_allclose(d.eigenvalues, np.sort(g.points()))
    # 8x8 block-Pauli: eigenvalues +-1, each fourfold
    pauli = np.kron(np.eye(4), np.array([[0.0, 1.0], [1.0, 0.0]]))
    d2 = spectral_decompose(pauli)
    np.testing.assert_allclose(d2.eigenvalues, [-1.0] * 4 + [1.0] * 4, atol=1e-12)


def test_spectral_decompose_reconstruction():
    rng = np.random.default_rng(0)
    n = 50
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    d = spectral_decompose(a)
    recon = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T
    scale = np.max(np.abs(a))
    assert np.max(np.abs(recon - a)) <= 1e-8 * scale
    gram = d.eigenvectors.conj().T @ d.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_spectral_decompose_rejects_non_hermitian():
    mat = np.diag(np.arange(8.0)) + 0.1j * np.eye(8)[::-1]
    with pytest.raises(Exception, match="Hermitian"):
        spectral_decompose(mat)


def test_interval_probability_completeness_and_eigenvector():
    g = Grid(32, -8.0, 8.0)
    d = spectral_decompose(momentum_operator(g, HBAR).dense())
    psi = gaussian_state(g, 0.0, 0.3, 1.0, HBAR)
    full = probability(d, psi, (d.eigenvalues[0], d.eigenvalues[-1]))
    assert abs(full - 1.0) < 1e-10
    eigvec = State(d.eigenvectors[:, 5], (g,))
    lam = d.eigenvalues[5]
    assert abs(probability(d, eigvec, (lam, lam)) - 1.0) < 1e-10


def test_interval_mass_counts_a_degenerate_endpoint_whole():
    # a threefold eigenvalue sits on the interval's lower endpoint: its whole
    # eigenspace counts, for each column of a batch and for a single state
    rng = np.random.default_rng(7)
    n = 24
    levels = np.concatenate([[0.5, 0.5, 0.5], rng.uniform(-3.0, 3.0, n - 3)])
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    h = (u * levels) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    d = spectral_decompose(h)
    psi = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    interval = (0.5, 1.7)
    got = interval_mass(d.eigenvalues, spectral_masses(d, psi), interval)
    # the masked sum of |V^H psi|^2, V from eigh of the same matrix
    w, v = np.linalg.eigh(h)
    inside = (w >= interval[0] - 1e-9) & (w <= interval[1] + 1e-9)
    want = (np.abs(v.conj().T @ psi) ** 2)[inside].sum(axis=0)
    assert np.max(np.abs(got - want)) < 1e-12
    # and the norm of psi's projection on the eigenspaces the interval holds
    keep = (levels >= interval[0]) & (levels <= interval[1])
    assert inside.sum() == keep.sum() >= 3
    proj = u[:, keep] @ u[:, keep].conj().T
    assert np.max(np.abs(got - np.linalg.norm(proj @ psi, axis=0) ** 2)) < 1e-10
    single = interval_mass(d.eigenvalues, spectral_masses(d, psi[:, 0]), interval)
    assert isinstance(single, float) and abs(single - got[0]) < 1e-12


def test_interval_probability_gaussian_erf():
    # endpoints midway between grid points so the Riemann sum is midpoint
    # rule; q0 = spacing/2 puts q0 +- dq exactly between nodes
    g = Grid(256, -16.0, 16.0)
    q0 = g.spacing / 2
    psi = gaussian_state(g, q0, 0.0, 1.0, HBAR)
    d = spectral_decompose(position_operator(g).dense())
    got = probability(d, psi, (q0 - 1.0, q0 + 1.0))
    assert abs(got - math.erf(1 / math.sqrt(2))) < 1e-3


def test_interval_probability_additive_and_monotone():
    g = Grid(64, -16.0, 16.0)
    d = spectral_decompose(position_operator(g).dense())
    psi = gaussian_state(g, 0.0, 0.4, 1.5, HBAR)
    left = probability(d, psi, (-8.0, 0.1))
    right = probability(d, psi, (0.35, 8.0))
    union = probability(d, psi, (-8.0, 8.0))
    inner = probability(d, psi, (0.1, 0.35))
    assert abs((left + right + inner) - union) < 1e-10
    assert probability(d, psi, (-2.0, 2.0)) <= union + 1e-12


def test_evolution_identity_and_phases():
    g = Grid(16, -4.0, 4.0)
    h = compile_expression(System(0, 1).Q(1), {}, (g,), HBAR)
    psi = gaussian_state(g, 0.0, 0.0, 0.5, HBAR)
    (same,) = evolve_full_quantum(h, psi.amplitudes, (0.0,))
    np.testing.assert_allclose(same, psi.amplitudes, atol=1e-12)
    (later,) = evolve_full_quantum(h, psi.amplitudes, (0.7,))
    want = np.exp(-1j * g.points() * 0.7) * psi.amplitudes
    np.testing.assert_allclose(later, want, atol=1e-10)


def test_evolution_reads_hbar_from_the_operator():
    # H = Q compiled at hbar = 0.7: exp(-i x t / hbar), not exp(-i x t)
    hbar = 0.7
    g = Grid(16, -4.0, 4.0)
    h = compile_expression(System(0, 1).Q(1), {}, (g,), hbar)
    psi = gaussian_state(g, 0.0, 0.0, 0.5, hbar)
    (later,) = evolve_full_quantum(h, psi.amplitudes, (0.7,))
    want = np.exp(-1j * g.points() * 0.7 / hbar) * psi.amplitudes
    np.testing.assert_allclose(later, want, atol=1e-10)


def test_evolution_refuses_lost_unitarity_at_any_time():
    # exp(-i (iQ) t) = exp(Q t) rescales an off-center packet
    g = Grid(16, -4.0, 4.0)
    h = compile_expression(parse_expression("i*Q1", System(0, 1)), {}, (g,), HBAR)
    psi = gaussian_state(g, 1.0, 0.0, 0.5, HBAR)
    (same,) = evolve_full_quantum(h, psi.amplitudes, (0.0,))
    np.testing.assert_allclose(same, psi.amplitudes, atol=1e-12)
    with pytest.raises(GridError, match="unitarity beyond 1e-9 at t=0.3"):
        evolve_full_quantum(h, psi.amplitudes, (0.0, 0.3))


def test_unitarity_guard_checks_every_block_of_a_block_axis():
    # a planted diagonal +-i*gamma*sign(k) on the example's quantum axis, a
    # block axis of H in its DFT basis, commutes with H: it scales each
    # block's weight by exp(2*gamma*t*sign(k)), moving the blocks at first
    # order in gamma*t = 1e-5 while a packet even in k keeps its total norm
    # to second order, within the whole-batch Gram check's 1e-9
    from dataclasses import replace

    from halfq.experiment import build_example
    from halfq.hilbert import block_axes

    cfg = build_example(npoints=48, extent=12.0)
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, cfg.all_grids(), HBAR, fourier_axes(h_expr))
    assert block_axes(h_op) == (1,) and h_op.fourier == (1,)
    gamma, t = 2.5e-5, 0.4
    sign = np.sign(np.fft.fftfreq(48))
    planted = replace(h_op, diagonal=h_op.diagonal + 1j * gamma * sign)
    phi_q = gaussian_state(cfg.quantum_grids[0], 0.0, 0.0, 1.0, HBAR).amplitudes
    # the propagator works in H's basis: the packet goes in by the unitary DFT
    phi_k = np.fft.fft(phi_q, norm="ortho")
    weights = np.abs(phi_k) ** 2
    moved = weights * np.expm1(2 * gamma * t * sign)
    assert np.max(np.abs(moved)) > 1e-6 and abs(moved.sum()) < 1e-9
    psi = np.kron(cfg.classical_factor().amplitudes, phi_k)
    evolve_full_quantum(h_op, psi, (t,))
    with pytest.raises(GridError, match="evolution lost unitarity beyond 1e-9 at t=0.4"):
        evolve_full_quantum(planted, psi, (t,))


def test_free_packet_dispersion():
    g = Grid(128, -24.0, 24.0)
    dq, m, t = 1.0, 1.0, 1.0
    psi = gaussian_state(g, 0.0, 0.0, dq, HBAR)
    h_expr = parse_expression("P1^2/(2*m)", System(0, 1), ("m",))
    h = compile_expression(h_expr.substitute_constants({"m": 1}), {}, (g,), HBAR)
    (psi_t,) = evolve_full_quantum(h, psi.amplitudes, (t,))
    q = position_operator(g).dense()
    var = np.vdot(psi_t, q @ q @ psi_t).real
    analytic = dq**2 * (1 + (HBAR * t / (2 * m * dq**2)) ** 2)
    assert abs(var - analytic) < 1e-4
    assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-9


def test_heisenberg_schroedinger_consistency():
    """Interval statistics of the evolved operator against the evolved state
    on the coupled example; grid-limited tolerance 1e-3."""
    s2 = System(2, 0)
    consts = {"m": 1.0, "M": 1.0, "k": 0.1}
    h_cl = parse_expression("p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", s2, tuple(consts))
    h_expr = weyl_quantize(h_cl)
    gc = Grid(32, -8.0, 8.0)
    gq = Grid(32, -8.0, 8.0)
    grids = (gc, gq)
    subs = {"m": 1, "M": 1, "k": Fraction(1, 10), "t": Fraction(1, 2)}
    h_op = compile_expression(h_expr.substitute_constants(subs), {}, grids, HBAR)
    psi0 = tensor(
        gaussian_state(gc, 0.0, 1.0, 2**-0.5, HBAR),
        gaussian_state(gq, 0.0, 1.0, 1.0, HBAR),
    )
    t = 0.5
    full_sys = System(0, 2)
    a_t_expr = heisenberg_series(full_sys.Q(1), h_expr)
    a_t = compile_expression(a_t_expr.substitute_constants(subs), {}, grids, HBAR).dense()
    # endpoints midway between position nodes, away from the density peak
    # (knife-edge node mass would otherwise dominate the comparison)
    interval = (-1.25, 2.25)
    heis = probability(spectral_decompose(a_t), psi0, interval)
    (psi_t,) = evolve_full_quantum(h_op, psi0.amplitudes, (t,))
    a_0 = np.kron(position_operator(gc).dense(), np.eye(32))
    schr = probability(spectral_decompose(a_0), State(psi_t, grids), interval)
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
    grids = (Grid(8, -2.0, 2.0), Grid(10, -3.0, 3.0), Grid(12, -1.0, 2.0))
    op = compile_expression(expr, {}, grids, 0.7)
    dense = op.dense()
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(960, 5)) + 1j * rng.normal(size=(960, 5))
    scale = np.max(np.abs(dense)) * np.max(np.abs(batch)) * 960
    before = batch.copy()
    assert np.max(np.abs(op.apply(batch) - dense @ batch)) <= 1e-14 * scale
    assert np.max(np.abs(op.apply(batch[:, 2]) - dense @ batch[:, 2])) <= 1e-14 * scale
    # the input is never written
    assert np.array_equal(batch, before)
    frozen = State(batch[:, 3], grids).amplitudes
    assert not frozen.flags.writeable
    assert np.max(np.abs(op.apply(frozen) - dense @ batch[:, 3])) <= 1e-14 * scale
    zero = compile_expression(s.zero(), {}, grids, 0.7)
    assert np.array_equal(zero.apply(batch), np.zeros_like(batch))
    # into a caller's buffer: a term with a diagonal factor followed by a
    # matmul, a matmul first, or none beside the diagonal
    single = compile_expression(parse_expression("Q2*P3^2", s), {}, grids, 0.7)
    dense_first = compile_expression(parse_expression("Q1*P1*Q3 + 2*Q2", s), {}, grids, 0.7)
    assert dense_first.terms[0][1][0].ndim == 2
    buf = np.empty_like(batch)
    for other in (op, single, dense_first, zero):
        assert other.apply(batch, out=buf) is buf
        assert np.max(np.abs(buf - other.dense() @ batch)) <= 1e-14 * scale
        assert np.array_equal(buf, other.apply(batch))
    assert np.array_equal(batch, before)


def test_chebyshev_matches_eigh_reference_on_example():
    """Independent oracle check: one Chebyshev propagation of the example's
    initial state and leakage-sector columns to every sweep time, t = 0 and
    a repeated time included, against dense eigh propagation of a
    Hamiltonian assembled here by Kronecker products."""
    from halfq.bounds import leakage_sectors
    from halfq.experiment import build_example, hybrid_solutions

    cfg = build_example(npoints=32, extent=8.0)
    gc, gq = cfg.classical_grids[0], cfg.quantum_grids[0]
    consts = cfg.constants
    h_op = compile_expression(cfg.full_hamiltonian_expr(), {}, (gc, gq), HBAR)
    p_c = momentum_operator(gc, HBAR).dense()
    p_q = momentum_operator(gq, HBAR).dense()
    h_dense = (
        np.kron(p_c @ p_c, np.eye(32)) / (2 * consts["m"])
        + np.kron(np.eye(32), p_q @ p_q) / (2 * consts["M"])
        + consts["k"] * np.kron(np.diag(gc.points()), p_q)
    )
    w, v = np.linalg.eigh(h_dense)
    phi_c, phi_q = cfg.classical_factor(), cfg.quantum_factor()
    psi0 = tensor(phi_c, phi_q).amplitudes
    sol = hybrid_solutions(cfg)[Symbol.Q(1)]
    cols = [psi0]
    for t in cfg.sweep.times:
        subs = {"m": 1, "M": 1, "k": Fraction(1, 10), "t": Fraction(t)}
        obs = compile_expression(
            sol.substitute_constants(subs), cfg.classical_data.centers(), (gq,), HBAR
        )
        # fixed window width: Q1 carries no margin at t = 0
        b = spectral_decompose(obs.dense())
        amps = b.amplitudes(phi_q.amplitudes)
        for half in (0.5, 1.0, 2.0):
            sectors = leakage_sectors(
                b, amps, 0.25, (-half - 0.25, half + 0.25), (-half + 0.25, half - 0.25)
            )
            assert np.min(np.linalg.norm(sectors, axis=0)) > 1e-3
            cols.append(np.kron(phi_c.amplitudes[:, None], sectors))
    cols = np.column_stack(cols)
    times = tuple(cfg.sweep.times) + (cfg.sweep.times[2],)
    assert 0.0 in times
    got = evolve_full_quantum(h_op, cols, times)
    assert len(got) == len(times)
    for t, evolved in zip(times, got):
        want = v @ (np.exp(-1j * w * t / HBAR)[:, None] * (v.conj().T @ cols))
        assert np.max(np.abs(evolved - want)) <= 1e-12, t


def test_fourier_axes_follow_the_pure_powers():
    g = Grid(16, -4.0, 4.0)
    s = System(0, 1)
    for text, axes in (("P1^2/2", (0,)), ("Q1^2", ()), ("P1^2 + Q1", ())):
        expr = parse_expression(text, s)
        assert fourier_axes(expr) == axes, text
        assert compile_expression(expr, {}, (g,), HBAR, axes).fourier == axes


def test_mixed_basis_propagation_matches_dense_eigh():
    """Axis 2 (P2^2 and Q1*P2/5 against Q2^4) propagates in the Fourier
    basis and axis 1 (P1^2 against Q1^2 and Q1) in position, against a
    Hamiltonian assembled here from dense one-DOF matrices.  The columns go
    to H's basis and back by a dense unitary DFT matrix on axis 2."""
    g1, g2 = Grid(16, -5.0, 5.0), Grid(20, -6.0, 6.0)
    s = System(0, 2)
    expr = parse_expression("P1^2/2 + Q1^2/2 + P2^2/2 + Q1*P2/5 + Q2^4/40 + 3/2", s)
    assert fourier_axes(expr) == (1,)
    h_op = compile_expression(expr, {}, (g1, g2), HBAR, fourier_axes(expr))
    p1, p2 = momentum_operator(g1, HBAR).dense(), momentum_operator(g2, HBAR).dense()
    q1, q2 = np.diag(g1.points()), np.diag(g2.points())
    i1, i2 = np.eye(16), np.eye(20)
    h_dense = (
        np.kron(p1 @ p1 + q1 @ q1, i2) / 2
        + np.kron(i1, p2 @ p2) / 2
        + np.kron(q1, p2) / 5
        + np.kron(i1, q2**4) / 40
        + 1.5 * np.eye(320)
    )
    w, v = np.linalg.eigh(h_dense)
    rng = np.random.default_rng(11)
    cols = np.linalg.qr(rng.normal(size=(320, 3)) + 1j * rng.normal(size=(320, 3)))[0]
    times = (0.3, 0.8, 1.5)
    dft = np.kron(i1, np.fft.fft(i2, axis=0, norm="ortho"))
    for t, evolved in zip(times, evolve_full_quantum(h_op, dft @ cols, times)):
        want = v @ (np.exp(-1j * w * t / HBAR)[:, None] * (v.conj().T @ cols))
        assert np.max(np.abs(dft.conj().T @ evolved - want)) <= 1e-12, t


S02 = System(0, 2)
MIXED_GRIDS = (Grid(16, -5.0, 5.0), Grid(20, -6.0, 6.0))
SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def quantum_sums(draw):
    """Sums of System(0, 2) words up to degree 3 with Gaussian-rational
    coefficients: constants, pure powers and mixed same-axis words."""
    letters = [S02.Q(1), S02.P(1), S02.Q(2), S02.P(2)]
    expr = S02.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = S02.scalar(CNum(draw(SMALL_FRACTIONS), draw(SMALL_FRACTIONS)))
        for factor in draw(st.lists(st.sampled_from(letters), max_size=3)):
            term = term * factor
        expr = expr + term
    return expr


@settings(max_examples=40, deadline=None)
@given(quantum_sums())
@example(
    parse_expression(
        "P1^2/2 + Q1*P1 + P2^2/2 + Q1*P2/5 + (2+i)*Q2*P2 + i*Q2^2*P2^3 + 3/2 - i/4", S02
    )
)
def test_compiled_operator_in_every_basis_matches_position_dense(expr):
    """One realization in every per-axis basis: the operator compiled with
    any ``fourier`` subset, conjugated back by the per-axis DFT, is the
    position-basis matrix.  On a grid a mixed word is not Hermitian, so no
    propagation can check these terms; the matrices are compared."""
    want_dense = compile_expression(expr, {}, MIXED_GRIDS, 0.7).dense()
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(320, 3)) + 1j * rng.normal(size=(320, 3))
    want = want_dense @ cols
    tol = 1e-12 * np.max(np.abs(want))
    for fourier in ((), (0,), (1,), (0, 1)):
        op = compile_expression(expr, {}, MIXED_GRIDS, 0.7, fourier)
        assert op.fourier == fourier
        assert not op.diagonal.flags.writeable
        # every term diagonal on all axes is in the diagonal; no scalar is an array
        for scalar, factors, _ in op.terms:
            assert type(scalar) is complex
            assert any(f.ndim == 2 for f in factors.values())
        u = cols.reshape(16, 20, 3)
        if fourier:
            u = np.fft.fftn(u, axes=fourier, norm="ortho")
        u = u.reshape(320, 3)
        before = u.copy()
        got = op.apply(u).reshape(16, 20, 3)
        if fourier:
            got = np.fft.ifftn(got, axes=fourier, norm="ortho")
        assert np.max(np.abs(got.reshape(320, 3) - want)) <= tol, fourier
        # apply agrees with dense() in the operator's own basis, into a
        # caller's buffer and on one vector, and never writes its input
        dense = op.dense()
        scale = 1e-12 * np.max(np.abs(dense @ u))
        buf = np.empty_like(u)
        assert op.apply(u, out=buf) is buf
        assert np.max(np.abs(buf - dense @ u)) <= scale
        assert np.array_equal(buf, op.apply(u))
        assert np.max(np.abs(op.apply(u[:, 1]) - dense @ u[:, 1])) <= scale
        assert np.array_equal(u, before)


@pytest.mark.parametrize(
    "text, quantum, npoints",
    [
        # the example, the mixed-basis Hamiltonian above, and the 2+1
        # benchmark config's Hamiltonian at k = 1/10, c = 1/20, all quantized
        ("P2^2/2 + P1^2/2 + Q1*P2/10", 2, (16, 16)),
        ("P1^2/2 + Q1^2/2 + P2^2/2 + Q1*P2/5 + Q2^4/40 + 3/2", 2, (16, 20)),
        ("P1^2/2 + P2^2/2 + P3^2/2 + Q1*P3/10 + Q2*P3/20", 3, (8, 8, 16)),
    ],
)
def test_chebyshev_interval_encloses_the_spectrum(text, quantum, npoints):
    # H compiled in its propagation basis, whose dense() has H's spectrum
    from halfq.hilbert import _chebyshev_interval

    grids = tuple(Grid(n, -5.0, 5.0) for n in npoints)
    expr = parse_expression(text, System(0, quantum))
    h_op = compile_expression(expr, {}, grids, HBAR, fourier_axes(expr))
    assert h_op.fourier
    lo, hi = _chebyshev_interval(h_op)
    w = np.linalg.eigvalsh(h_op.dense())
    assert lo <= w[0] and w[-1] <= hi, (lo, w[0], w[-1], hi)


@pytest.mark.parametrize("fourier", [(), (0,)])
@pytest.mark.parametrize(
    "text", ["Q1*P1 + P1*Q1", "P1^2/2 + Q1*P1/3 + i*(Q1^2*P1 - P1*Q1^2)/5"]
)
def test_chebyshev_interval_encloses_terms_that_are_not_pure_powers(text, fourier):
    # a complex scalar or a mixed Q^q P^p factor takes the norm bound, which
    # must still enclose the spectrum of the matrix's Hermitian part
    from halfq.hilbert import _chebyshev_interval

    expr = parse_expression(text, System(0, 1))
    h_op = compile_expression(expr, {}, (Grid(16, -4.0, 4.0),), HBAR, fourier)
    lo, hi = _chebyshev_interval(h_op)
    dense = h_op.dense()
    w = np.linalg.eigvalsh((dense + dense.conj().T) / 2)
    assert lo <= w[0] and w[-1] <= hi, (lo, w[0], w[-1], hi)


def test_chebyshev_terms_of_the_example():
    # the interval reads the exact range of the terms diagonal together:
    # P2^2/2 and k*Q1*P2 are one array in the mixed basis, not two ranges
    from halfq.experiment import build_example
    from halfq.hilbert import chebyshev_terms

    for cfg, terms in ((build_example(npoints=48, extent=12.0), 65), (build_example(), 68)):
        h_expr = cfg.full_hamiltonian_expr()
        h_op = compile_expression(h_expr, {}, cfg.all_grids(), HBAR, fourier_axes(h_expr))
        assert chebyshev_terms(h_op, cfg.sweep.times) == terms


@pytest.mark.parametrize("fourier", [False, True])
def test_chunked_propagation_evolves_each_column_alone(fourier):
    # batches narrower than, as wide as and wider than one chunk, and a
    # ragged last chunk, in position and in the mixed basis
    from halfq.hilbert import CHUNK_COLUMNS

    expr = parse_expression("P2^2/2 + P1^2/2 + Q1*P2/10 + Q1^2/8", System(0, 2))
    grids = (Grid(16, -5.0, 5.0), Grid(12, -4.0, 4.0))
    h_op = compile_expression(expr, {}, grids, HBAR, fourier_axes(expr) if fourier else ())
    assert bool(h_op.fourier) == fourier
    rng = np.random.default_rng(5)
    times = (0.3, 0.0, 0.7)
    c = CHUNK_COLUMNS
    for width in (1, c - 1, c, c + 1, 3 * c + 2):
        cols = rng.normal(size=(192, width)) + 1j * rng.normal(size=(192, width))
        batch = evolve_full_quantum(h_op, cols, times)
        assert [w.shape for w in batch] == [cols.shape] * len(times)
        for j in range(width):
            alone = evolve_full_quantum(h_op, cols[:, j], times)
            for w, a in zip(batch, alone):
                assert np.max(np.abs(w[:, j] - a)) <= 1e-14, (width, j)


def test_time_zero_is_the_input_and_allocates_nothing():
    expr = parse_expression("P1^2/2 + Q1^2/2", System(0, 1))
    h_op = compile_expression(expr, {}, (Grid(64, -8.0, 8.0),), HBAR, fourier_axes(expr))
    rng = np.random.default_rng(4)
    cols = rng.normal(size=(64, 24)) + 1j * rng.normal(size=(64, 24))
    before = cols.copy()
    zero, later = evolve_full_quantum(h_op, cols, (0.0, 0.5))
    assert np.array_equal(zero, before) and np.shares_memory(zero, cols)
    assert not zero.flags.writeable and not np.shares_memory(later, cols)
    with pytest.raises(ValueError):
        zero[0, 0] = 0.0
    evolve_full_quantum(h_op, cols, (0.0,))  # warm-up
    tracemalloc.start()
    try:
        (alone,) = evolve_full_quantum(h_op, cols, (0.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(alone, before)
    # less than one column: no result, no recurrence, no transform
    assert peak < cols[:, 0].nbytes


def test_propagation_memory_is_its_nonzero_results_and_chunk_buffers():
    """The oracle-deep shape: 2,304 dimensions, 48 columns, 4 times, one of
    them 0.  Past one result per nonzero time, the chunk buffers and the
    Gram check take at most one and a half arrays; time 0 takes none.  The
    caller's input was allocated before tracing."""
    from halfq.experiment import build_example

    cfg = build_example(npoints=48, extent=12.0)
    h_expr = cfg.full_hamiltonian_expr()
    h_op = compile_expression(h_expr, {}, cfg.all_grids(), HBAR, fourier_axes(h_expr))
    rng = np.random.default_rng(2)
    cols = np.linalg.qr(rng.normal(size=(2304, 48)) + 1j * rng.normal(size=(2304, 48)))[0]
    times = (0.0, 0.4, 0.8, 1.2)
    evolve_full_quantum(h_op, cols, times)  # warm-up: caches fill
    tracemalloc.start()
    try:
        evolve_full_quantum(h_op, cols, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len([t for t in times if t]) + 1.5) * cols.nbytes


def test_state_validation_and_immutability():
    g = Grid(8, -2.0, 2.0)
    with pytest.raises(GridError):
        State(np.zeros(7, dtype=complex), (g,))
    psi = gaussian_state(g, 0.0, 0.0, 0.3, HBAR)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_dense_operators_are_read_only():
    g = Grid(8, -2.0, 2.0)
    for op in (position_operator(g), momentum_operator(g, HBAR)):
        with pytest.raises(ValueError):
            op.dense()[0, 0] = 1.0
