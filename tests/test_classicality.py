"""Error kets, spreads, tail bounds, certification, Gaussian families."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfq import Symbol, System, heisenberg_series, parse_expression
from halfq.classicality import (
    ClassicalData,
    ClassicalDatum,
    ClassicalityCertificate,
    certify,
    classical_operators,
    classicality_sequences,
    compose_sequences,
    double_factorial_odd,
    error_ket,
    gaussian_feasibility,
    gaussian_moment,
    spread_n,
    tail_probability,
)
from halfq.hilbert import (
    CompiledOperator,
    Grid,
    State,
    gaussian_state,
    interval_mass,
    spectral_decompose,
    spectral_masses,
    tensor,
)

from grid_operators import momentum_operator, position_operator

HBAR = 1.0
GRID = Grid(64, -16.0, 16.0)


def packet(q0=0.0, p0=1.0, dq=2**-0.5, grid=GRID):
    return gaussian_state(grid, q0, p0, dq, HBAR)


# --------------------------------------------------------------------------
# error kets


def test_error_ket_annihilates_eigenvector():
    d = spectral_decompose(position_operator(GRID).dense())
    psi = State(d.eigenvectors[:, 10], (GRID,))
    e = error_ket([position_operator(GRID)], [d.eigenvalues[10]], psi)
    assert e.norm() < 1e-12


def test_error_ket_gaussian_variance():
    dq = 0.9
    psi = packet(dq=dq)
    e = error_ket([position_operator(GRID)], [0.0], psi)
    assert abs(e.norm() ** 2 - dq * dq) < 1e-6


def test_error_ket_ordering_sensitivity():
    # (q-c)(p-d)psi and (p-d)(q-c)psi differ by exactly [q,p]psi = i hbar psi
    psi = packet()
    q, p = position_operator(GRID), momentum_operator(GRID, HBAR)
    qp = error_ket([q, p], [0.0, 1.0], psi)
    pq = error_ket([p, q], [1.0, 0.0], psi)
    diff = qp.amplitudes - pq.amplitudes
    assert abs(np.linalg.norm(diff) - HBAR) < 1e-6
    assert np.linalg.norm(qp.amplitudes - pq.amplitudes) > 0.5


def test_error_ket_length_mismatch():
    with pytest.raises(ValueError):
        error_ket([position_operator(GRID)], [0.0, 1.0], packet())


# --------------------------------------------------------------------------
# spreads and tails


def test_spread_trivial_values():
    psi = packet()
    d = spectral_decompose(position_operator(GRID).dense())
    eig = State(d.eigenvectors[:, 3], (GRID,))
    assert spread_n([position_operator(GRID)], [d.eigenvalues[3]], eig, p=0.99) < 1e-6
    # <E|E> = 1, p = 0.99, n = 1 -> (1/0.01)^(1/2) = 10: center an
    # eigenvector one unit off its eigenvalue
    off = spread_n([position_operator(GRID)], [d.eigenvalues[3] + 1.0], eig, p=0.99)
    assert abs(off - 10.0) < 1e-9
    # Gaussian: 10 * dq
    dq = 2**-0.5
    assert abs(spread_n([position_operator(GRID)], [0.0], psi, p=0.99) - 10 * dq) < 1e-5


def test_spread_replicates_single_operator():
    psi = packet()
    q = position_operator(GRID)
    explicit = spread_n([q, q], [0.0, 0.0], psi, p=0.9)
    implicit = spread_n([q], [0.0], psi, n=2, p=0.9)
    assert abs(explicit - implicit) < 1e-14


def test_spread_probability_domain():
    with pytest.raises(ValueError):
        spread_n([position_operator(GRID)], [0.0], packet(), p=1.0)


def test_tail_probability_eigenvector():
    d = spectral_decompose(position_operator(GRID).dense())
    eig = State(d.eigenvectors[:, 7], (GRID,))
    measured, bound = tail_probability(d, eig, d.eigenvalues[7], 0.5, 1)
    assert measured == 0.0
    assert bound < 1e-12


def test_tail_probability_gaussian_three_sigma():
    # center half a spacing off the nodes so the 3-sigma boundary falls
    # midway between grid points (no knife-edge node mass)
    fine = Grid(256, -16.0, 16.0)
    dq = 1.0
    x0 = fine.spacing / 2
    psi = gaussian_state(fine, x0, 0.0, dq, HBAR)
    d = spectral_decompose(position_operator(fine).dense())
    measured, bound = tail_probability(d, psi, x0, 3 * dq, 1)
    # continuum: 2 Phi(-3) = 0.0027; Chebyshev bound 1/9
    assert abs(measured - 0.0026998) < 2e-4
    assert abs(bound - 1.0 / 9.0) < 1e-9
    assert measured <= bound


def test_tail_probability_random_states_never_exceed_bound():
    rng = np.random.default_rng(42)
    g = Grid(64, -8.0, 8.0)
    d = spectral_decompose(momentum_operator(g, HBAR).dense())
    for _ in range(300):
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi = State(vec / np.linalg.norm(vec), (g,))
        n = int(rng.integers(1, 4))
        x0 = float(rng.uniform(-4, 4))
        dist = float(rng.uniform(0.1, 8.0))
        measured, bound = tail_probability(d, psi, x0, dist, n)
        assert measured <= bound + 1e-10


# --------------------------------------------------------------------------
# sequences


def example_solutions():
    s = System(1, 1)
    h = parse_expression("P1^2/(2*M) + p1^2/(2*m) + k*q1*P1", s, ("m", "M", "k"))
    return [
        heisenberg_series(obs, h)
        for obs in (s.q(1), s.p(1), s.Q(1), s.P(1))
    ]


def test_sequences_for_example_are_q_and_p():
    seqs = classicality_sequences(example_solutions(), 1)
    assert seqs == [(Symbol.q(1),), (Symbol.p(1),)]


def test_sequences_quadratic_solution():
    sol = parse_expression("q1 + p1^2*t", System(1, 0), ("t",))
    q1, p1 = Symbol.q(1), Symbol.p(1)
    assert classicality_sequences([sol], 1) == [(q1,), (p1,), (p1, p1)]


def test_sequences_constant_solutions_empty():
    sol = parse_expression("3", System(1, 0))
    assert classicality_sequences([sol], 1) == []


def test_compose_sequences_orderings():
    base = classicality_sequences(example_solutions(), 1)
    q1, p1 = Symbol.q(1), Symbol.p(1)
    assert compose_sequences(base, 2) == [(q1, q1), (q1, p1), (p1, q1), (p1, p1)]


# --------------------------------------------------------------------------
# certification


def test_certify_gaussian_passes_with_matched_margins():
    # dq = delta_q / 2 and hbar/(2 dq) = delta_p / 2
    dq = 0.5
    data = ClassicalData((ClassicalDatum(0.0, 1.0, 2 * dq, HBAR / dq),))
    psi = packet(dq=dq)
    seqs = classicality_sequences(example_solutions(), 1)
    cert = certify(psi, data, 1, seqs, HBAR)
    assert cert.passed
    assert all(row.slack > 0 for row in cert.rows)


def test_certify_fails_on_wide_packet():
    # dq = 3 delta_q: position variance exceeds the margin
    data = ClassicalData((ClassicalDatum(0.0, 1.0, 0.5, 10.0),))
    psi = packet(dq=1.5)
    seqs = classicality_sequences(example_solutions(), 1)
    cert = certify(psi, data, 1, seqs, HBAR)
    assert not cert.passed
    assert cert.rows[0].sequence == ("q1",)


def test_certify_fails_on_broad_state():
    # near-plane-wave: position spread comparable to the box
    data = ClassicalData((ClassicalDatum(0.0, 1.0, 1.0, 1.0),))
    psi = packet(dq=2.6)
    seqs = classicality_sequences(example_solutions(), 1)
    cert = certify(psi, data, 1, seqs, HBAR)
    assert not cert.passed
    assert ("q1",) in [row.sequence for row in cert.rows if row.slack < 0]


def test_certificate_rows_use_two_sided_error_kets():
    # the (q,p) row must equal || (q-q0)(p-p0) psi ||^2 evaluated directly
    data = ClassicalData((ClassicalDatum(0.0, 1.0, 1.0, 1.0),))
    psi = packet()
    seqs = classicality_sequences(example_solutions(), 1)
    cert = certify(psi, data, 2, seqs, HBAR)
    ops = classical_operators(psi.grids, HBAR)
    direct = error_ket([ops[Symbol.q(1)], ops[Symbol.p(1)]], [0.0, 1.0], psi).norm() ** 2
    row = next(r for r in cert.rows if r.sequence == ("q1", "p1"))
    assert abs(row.lhs - direct) < 1e-12
    # analytic value for the minimum packet: 3 hbar^2 / 4
    assert abs(direct - 0.75) < 1e-6


def test_multi_dof_certify_matches_kron_error_kets(monkeypatch):
    """Two classical DOFs at L=2: every row against an error ket built here
    from Kronecker products, with no sector-dimension dense matrix."""
    import tracemalloc

    g1, g2 = Grid(24, -6.0, 6.0), Grid(24, -5.0, 7.0)
    psi = tensor(packet(0.0, 1.0, 0.7, g1), packet(1.0, -0.5, 0.6, g2))
    data = ClassicalData(
        (ClassicalDatum(0.0, 1.0, 1.0, 1.0), ClassicalDatum(1.0, -0.5, 0.9, 1.1))
    )
    q1, p1, q2, p2 = Symbol.q(1), Symbol.p(1), Symbol.q(2), Symbol.p(2)
    seqs = [(q1,), (p1,), (q2,), (p2,), (q1, p2)]
    built = []
    original_dense = CompiledOperator.dense

    def dense(self):
        built.append(self.dim)
        return original_dense(self)

    monkeypatch.setattr(CompiledOperator, "dense", dense)
    tracemalloc.start()
    try:
        cert = certify(psi, data, 2, seqs, HBAR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert all(dim <= 24 for dim in built)
    # one complex sector-dimension matrix would take 576^2 * 16 bytes
    assert peak < 576**2 * 16

    eye = np.eye(24)
    dense = {
        q1: np.kron(position_operator(g1).dense(), eye),
        p1: np.kron(momentum_operator(g1, HBAR).dense(), eye),
        q2: np.kron(eye, position_operator(g2).dense()),
        p2: np.kron(eye, momentum_operator(g2, HBAR).dense()),
    }
    names = {s.name: s for s in dense}
    assert len(cert.rows) == len(compose_sequences(seqs, 2))
    for row in cert.rows:
        vec = psi.amplitudes
        for name in reversed(row.sequence):
            sym = names[name]
            vec = dense[sym] @ vec - data.center(sym) * vec
        want = float(np.vdot(vec, vec).real)
        assert abs(row.lhs - want) <= 1e-12 * want, row.sequence


def test_certify_monotone_in_order_on_gaussian_family():
    # if the order-2 certificate passes, the order-1 one (same margins,
    # composition rule delta_SL = prod delta) must pass as well
    seqs = classicality_sequences(example_solutions(), 1)
    for dq in (0.4, 0.6, 0.75):
        data = ClassicalData(
            (ClassicalDatum(0.0, 1.0, 1.4 * dq, 1.4 * HBAR / (2 * dq)),)
        )
        psi = packet(dq=dq)
        cert2 = certify(psi, data, 2, seqs, HBAR)
        cert1 = certify(psi, data, 1, seqs, HBAR)
        if cert2.passed:
            assert cert1.passed


def test_certificate_json_shape():
    data = ClassicalData((ClassicalDatum(0.0, 1.0, 1.0, 1.0),))
    seqs = classicality_sequences(example_solutions(), 1)
    cert = certify(packet(), data, 1, seqs, HBAR)
    blob = cert.to_json_dict()
    assert blob["order"] == 1
    assert blob["verdict"] == "pass"
    assert {"sequence", "lhs", "rhs", "slack"} <= set(blob["rows"][0])


def test_confinement_of_certified_states():
    """Certified L-order states put probability >= p in the widened margin
    interval around every classical value."""
    seqs = classicality_sequences(example_solutions(), 1)
    qd = spectral_decompose(position_operator(GRID).dense())
    pd = spectral_decompose(momentum_operator(GRID, HBAR).dense())
    for L in (1, 2):
        for dq in (0.5, 2**-0.5, 1.0):
            data = ClassicalData(
                (ClassicalDatum(0.0, 1.0, 1.5 * dq, 1.5 * HBAR / (2 * dq)),)
            )
            psi = packet(dq=dq)
            cert = certify(psi, data, L, seqs, HBAR)
            assert cert.passed
            for p in (0.9, 0.99):
                radius_q = data.data[0].delta_q / (1 - p) ** (1 / (2 * L))
                radius_p = data.data[0].delta_p / (1 - p) ** (1 / (2 * L))
                pq = interval_mass(
                    qd.eigenvalues, spectral_masses(qd, psi.amplitudes), (-radius_q, radius_q)
                )
                pp = interval_mass(
                    pd.eigenvalues,
                    spectral_masses(pd, psi.amplitudes),
                    (1.0 - radius_p, 1.0 + radius_p),
                )
                assert pq >= p - 1e-10
                assert pp >= p - 1e-10


# --------------------------------------------------------------------------
# Gaussian moment law (resolves the printed-constant discrepancy)


def test_gaussian_moment_law_by_quadrature():
    """Quadrature oracle: E[(q-q0)^2L] = (2L-1)!! dq^2L for L <= 5, and the
    momentum-space width is hbar/(2 dq) (not hbar/(sqrt(2) dq))."""
    for dq in (0.7, 1.3):
        for L in range(1, 6):
            density = lambda x: math.exp(-(x**2) / (2 * dq * dq)) / (
                dq * math.sqrt(2 * math.pi)
            )
            moment, _ = quad(lambda x: x ** (2 * L) * density(x), -12 * dq, 12 * dq)
            law = gaussian_moment(L, dq)
            assert abs(moment - law) / law < 1e-6, (L, dq)
    # momentum side: the packet's momentum density is Gaussian with width
    # hbar/(2 dq); its second moment then follows the same law
    dq = 0.8
    dp = HBAR / (2 * dq)
    psi = gaussian_state(Grid(256, -16.0, 16.0), 0.0, 0.0, dq, HBAR)
    p2 = momentum_operator(Grid(256, -16.0, 16.0), HBAR).dense()
    m2 = float(np.vdot(psi.amplitudes, p2 @ p2 @ psi.amplitudes).real)
    assert abs(m2 - dp * dp) < 1e-6
    assert abs(m2 - gaussian_moment(1, dp)) < 1e-6


def test_double_factorial():
    assert [double_factorial_odd(L) for L in range(1, 6)] == [1, 3, 15, 105, 945]


def test_gaussian_feasibility_wide_margins():
    data = ClassicalData((ClassicalDatum(0.0, 0.0, 10.0, 10.0),))
    f = gaussian_feasibility(data, 1, HBAR)
    assert f.feasible and f.lower <= 1.0 <= f.upper


def test_gaussian_feasibility_uncertainty_floor():
    data = ClassicalData((ClassicalDatum(0.0, 0.0, 0.5, 0.5),))
    assert not data.uncertainty_feasible(HBAR)
    for L in range(1, 6):
        assert not gaussian_feasibility(data, L, HBAR).feasible


def test_gaussian_feasibility_shrinks_with_order():
    data = ClassicalData((ClassicalDatum(0.0, 0.0, 2.0, 2.0),))
    intervals = [gaussian_feasibility(data, L, HBAR) for L in (1, 2, 3, 5, 8)]
    widths = [f.upper - f.lower for f in intervals]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))
    lowers = [f.lower for f in intervals]
    uppers = [f.upper for f in intervals]
    assert all(l2 > l1 for l1, l2 in zip(lowers, lowers[1:]))
    assert all(u2 < u1 for u1, u2 in zip(uppers, uppers[1:]))


def test_feasibility_endpoints_saturate_the_verified_law():
    # at the interval's upper edge the position moment meets the margin
    data = ClassicalData((ClassicalDatum(0.0, 0.0, 2.0, 3.0),))
    L = 3
    f = gaussian_feasibility(data, L, HBAR)
    assert f.feasible
    sat = gaussian_moment(L, f.upper)
    assert abs(sat - data.data[0].delta_q ** (2 * L)) < 1e-9 * sat


def test_margins_must_be_positive():
    with pytest.raises(ValueError):
        ClassicalDatum(0.0, 0.0, 0.0, 1.0)

