"""Acceptance criteria, one test per criterion with pinned tolerances.

Runs the shipped example at full scale (64x64 grids, 4096-dimensional
oracle) once and checks every contract against it; prints one pass/fail
line per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from halfq import (
    Symbol,
    System,
    commutator,
    hybrid_bracket,
    jacobiator,
    mul_ihbar,
    div_ihbar,
    parse_expression,
    partial_derivative,
    poisson_bracket,
    unquantize,
    weyl_quantize,
    half_quantize,
)
from halfq.bounds import BoundConfig, worst_case_errors
from halfq.classicality import (
    double_factorial_odd,
    gaussian_feasibility,
    gaussian_moment,
    spread_n,
    tail_probability,
    ClassicalData,
    ClassicalDatum,
)
from halfq.experiment import build_example, hybrid_solutions, run_verification
from halfq.hilbert import (
    Grid,
    State,
    gaussian_state,
    interval_mass,
    spectral_decompose,
    spectral_masses,
)

from grid_operators import momentum_operator, position_operator


def _report(criterion, description, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_run():
    config = build_example()  # 64-point grids, L in {1,2}, p in {0.9,0.99}
    start = time.time()
    report = run_verification(config, deep=True)
    elapsed = time.time() - start
    return config, report, elapsed


# --------------------------------------------------------------------------


def test_criterion_1_constants_L1():
    """Worst-case error 0.72 +- 0.02 and widening 20*delta at L=1, p=0.99."""
    start = time.time()
    values = worst_case_errors(BoundConfig(1, 0.99))
    elapsed = time.time() - start
    ok = (
        abs(values["worst_error"] - 0.72) <= 0.02
        and abs(values["widening_over_delta"] - 20.0) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        "L=1 p=0.99 constants",
        ok,
        f"worst={values['worst_error']:.6f}, widening={values['widening_over_delta']:.12f}, {elapsed:.3f}s",
    )


def test_criterion_2_constants_L10():
    """0.0019 +- 1e-4, leakage 9.4e-7 +- 1e-8, widening 3.6 +- 0.05."""
    start = time.time()
    values = worst_case_errors(BoundConfig(10, 0.99999))
    elapsed = time.time() - start
    ok = (
        abs(values["worst_error"] - 0.0019) <= 1e-4
        and abs(values["leakage"] - 9.4e-7) <= 1e-8
        and abs(values["widening_over_delta"] - 3.6) <= 0.05
        and elapsed < 1.0
    )
    _report(
        2,
        "L=10 p=0.99999 constants",
        ok,
        f"worst={values['worst_error']:.6f}, leak={values['leakage']:.4g}, "
        f"widening={values['widening_over_delta']:.4f}, {elapsed:.3f}s",
    )


def test_criterion_3_closed_form_solutions():
    """Hybrid-bracket evolution equals the closed forms, and its derivative
    along each classical symbol the margin column, as exact polynomial
    identities."""
    expected = {
        Symbol.q(1): ("q1 + t/m*p1 - k*t^2/(2*m)*P1", "1", "t/m"),
        Symbol.p(1): ("p1 - k*t*P1", "0", "1"),
        Symbol.Q(1): (
            "Q1 + t/M*P1 + k*t*q1 + k*t^2/(2*m)*p1 - k^2*t^3/(6*m)*P1", "k*t", "k*t^2/(2*m)"
        ),
        Symbol.P(1): ("P1", "0", "0"),
    }
    start = time.time()
    cfg = build_example()
    sols = hybrid_solutions(cfg)
    elapsed = time.time() - start
    system = cfg.system
    mismatches = []
    for name, (series, along_q1, along_p1) in expected.items():
        for got, want in (
            (sols[name], series),
            (partial_derivative(sols[name], Symbol.q(1)), along_q1),
            (partial_derivative(sols[name], Symbol.p(1)), along_p1),
        ):
            if got != parse_expression(want, system, ("m", "M", "k", "t")):
                mismatches.append((name, want))
    ok = set(sols) == set(expected) and not mismatches and elapsed < 5.0
    _report(3, "closed-form solutions and margins", ok, f"{elapsed:.2f}s {mismatches}")


def test_criterion_4_sandwich_verification(full_run):
    """Oracle probability inside [lower, upper] on every sweep row at the
    4096-dimensional scale, certified at L=1 and L=2; under 10 minutes."""
    config, report, elapsed = full_run
    pairs = {(row["t"], tuple(row["I0"])) for row in report.rows}
    levels = {row["L"] for row in report.rows}
    certified = all(
        cert["verdict"] == "pass" for cert in report.certificates.values()
    )
    violations = [row for row in report.rows if row["verdict"] != "pass"]
    ok = (
        report.environment["full_dimension"] == 4096
        and certified
        and levels == {1, 2}
        and len(pairs) >= 20
        and not violations
        and elapsed < 600.0
    )
    _report(
        4,
        "sandwich bounds against the full-quantum oracle",
        ok,
        f"{len(report.rows)} rows, {len(pairs)} (t, I0) pairs, "
        f"{len(violations)} violations, {elapsed:.0f}s",
    )


def test_criterion_5_operator_discrepancy(full_run):
    """|<psi|(A-B)^2L|psi>|^(1/2L) <= margin for L in {1,2} on the sweep."""
    _, report, _ = full_run
    rows = report.discrepancy_rows
    violations = [row for row in rows if row["verdict"] != "pass"]
    ok = bool(rows) and {row["L"] for row in rows} == {1, 2} and not violations
    _report(
        5,
        "operator-discrepancy bound",
        ok,
        f"{len(rows)} rows, {len(violations)} violations",
    )


def test_criterion_6_tail_leakage(full_run):
    """Measured X1 <= (1-p) Delta_L / (2(2L-1) I_B) on the sweep."""
    _, report, _ = full_run
    rows = [row for row in report.leakage_rows if row["which"] == "X1"]
    violations = [row for row in rows if row["verdict"] != "pass"]
    ok = bool(rows) and not violations
    _report(
        6,
        "spectral tail-leakage bound (X1)",
        ok,
        f"{len(rows)} rows, {len(violations)} violations",
    )


def test_criterion_7_error_ket_invariants():
    """Tail bound and spread confinement on 1000 randomized states/orders."""
    start = time.time()
    rng = np.random.default_rng(2024)
    grid = Grid(48, -12.0, 12.0)
    operators = [position_operator(grid), momentum_operator(grid, 1.0)]
    decomps = [spectral_decompose(op.dense()) for op in operators]
    tail_ok = True
    confinement_ok = True
    for trial in range(1000):
        vec = rng.normal(size=48) + 1j * rng.normal(size=48)
        psi = State(vec / np.linalg.norm(vec), (grid,))
        pick = trial % 2
        decomp, op = decomps[pick], operators[pick]
        n = int(rng.integers(1, 4))
        x0 = float(rng.uniform(-6.0, 6.0))
        dist = float(rng.uniform(0.2, 10.0))
        measured, bound = tail_probability(decomp, psi, x0, dist, n)
        tail_ok = tail_ok and measured <= bound + 1e-10
        p = float(rng.uniform(0.5, 0.999))
        radius = spread_n([op], [x0], psi, n=n, p=p)
        masses = spectral_masses(decomp, psi.amplitudes)
        inside = interval_mass(decomp.eigenvalues, masses, (x0 - radius, x0 + radius))
        confinement_ok = confinement_ok and inside >= p - 1e-10
    elapsed = time.time() - start
    ok = tail_ok and confinement_ok and elapsed < 60.0
    _report(
        7,
        "error-ket tail bound and confinement on 1000 random states",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_algebraic_suite():
    """Round trips, bracket laws, quantization functoriality, Jacobi witness;
    exact algebra throughout (functoriality is exact on its exact class and
    asserted below hbar^2 elsewhere)."""
    start = time.time()
    rng = random.Random(99)
    s11 = System(1, 1)
    sc1 = System(1, 0)
    sc2 = System(2, 0)

    def random_poly(system, degree, dofs, draw=rng):
        expr = system.zero()
        for _ in range(draw.randint(2, 4)):
            term = system.scalar(Fraction(draw.randint(-9, 9), draw.randint(1, 5)))
            for _ in range(draw.randint(0, degree)):
                i = draw.randint(1, dofs)
                term = term * (system.q(i) if draw.random() < 0.5 else system.p(i))
            expr = expr + term
        return expr

    # (a) unquantize(quantize) identity, exhaustive monomials to degree 6
    round_trip = True
    for a in range(7):
        for b in range(7 - a):
            if a + b == 0:
                continue
            coeff = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            mono = sc1.q(1) ** a * sc1.p(1) ** b * coeff
            round_trip = round_trip and unquantize(weyl_quantize(mono), 1) == mono

    # (b) antisymmetry and bilinearity, exact on random polynomials
    bracket_laws = True
    for _ in range(12):
        x = random_poly(sc2, 3, 2)
        y = random_poly(sc2, 3, 2)
        hx, hy = half_quantize(x, (1, 1)), half_quantize(y, (1, 1))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        bracket_laws = bracket_laws and (
            hybrid_bracket(hx, hy) + hybrid_bracket(hy, hx)
        ).is_zero
        bracket_laws = bracket_laws and hybrid_bracket(
            hx * lam, hy
        ) == hybrid_bracket(hx, hy) * lam

    # (c) Definition-III functoriality to degree 4: the residue
    #     half({A,B}) - (1/i hbar)(half A, half B) vanishes when A or B has
    #     degree <= 2 and has no term below hbar^2 otherwise; five seeds
    def residue(x, y):
        bracket = hybrid_bracket(half_quantize(x, (1, 1)), half_quantize(y, (1, 1)))
        return half_quantize(poisson_bracket(x, y), (1, 1)) - div_ihbar(bracket)

    functorial = True
    for seed in range(1, 6):
        draw = random.Random(seed)
        for _ in range(4):
            x = random_poly(sc2, 4, 2, draw)
            low = random_poly(sc2, 2, 2, draw)
            y = random_poly(sc2, 4, 2, draw)
            functorial = (
                functorial
                and residue(x, low).is_zero
                and residue(low, x).is_zero
                and all(h >= 2 for h in residue(x, y).hbar_grades())
            )

    # (d) unquantized commutator matches i hbar {A,B} below hbar^2
    semiclassical = True
    for _ in range(10):
        x = random_poly(sc1, 4, 1)
        y = random_poly(sc1, 4, 1)
        diff = unquantize(
            commutator(weyl_quantize(x), weyl_quantize(y)), 1, magnitude_guard=None
        ) - mul_ihbar(poisson_bracket(x, y))
        semiclassical = semiclassical and all(h >= 2 for h in diff.hbar_grades())

    # (e) recorded Jacobi-identity witness; pure sectors satisfy Jacobi
    a = parse_expression("p1*P1", s11)
    b = parse_expression("p1*Q1*P1", s11)
    c = parse_expression("q1^2*Q1", s11)
    witness_ok = jacobiator(a, b, c) == s11.hbar(4) / 2
    pure_ok = (
        jacobiator(s11.Q(1), s11.P(1), s11.Q(1) * s11.P(1)).is_zero
        and jacobiator(s11.q(1), s11.p(1), s11.q(1) * s11.p(1)).is_zero
    )

    elapsed = time.time() - start
    ok = (
        round_trip
        and bracket_laws
        and functorial
        and semiclassical
        and witness_ok
        and pure_ok
        and elapsed < 30.0
    )
    _report(8, "exact algebraic identity suite", ok, f"{elapsed:.1f}s")


def test_criterion_9_gaussian_moment_law():
    """Quadrature confirms E[(q-q0)^2L] = (2L-1)!! dq^2L for L <= 5 within
    1e-6 relative error; the feasibility path uses the confirmed law."""
    start = time.time()
    confirmed = True
    for dq in (0.6, 1.0, 1.7):
        for L in range(1, 6):
            moment, _ = quad(
                lambda x: x ** (2 * L)
                * math.exp(-(x**2) / (2 * dq * dq))
                / (dq * math.sqrt(2 * math.pi)),
                -14 * dq,
                14 * dq,
            )
            law = gaussian_moment(L, dq)
            confirmed = confirmed and abs(moment - law) / law < 1e-6
    # the printed closed-form constant reads (2L-1)!/(2 (L-1)!), which
    # disagrees with quadrature already at L=1 (1/2 instead of 1); the
    # implementation must follow the verified double-factorial law
    printed_constant = math.factorial(1) / (2 * math.factorial(0))
    deviation_documented = printed_constant != double_factorial_odd(1)
    # feasibility endpoints saturate the verified law exactly
    data = ClassicalData((ClassicalDatum(0.0, 0.0, 1.5, 2.5),))
    uses_law = True
    for L in (1, 2, 4):
        window = gaussian_feasibility(data, L, 1.0)
        sat = gaussian_moment(L, window.upper)
        uses_law = uses_law and abs(sat - 1.5 ** (2 * L)) <= 1e-9 * sat
        sat_p = gaussian_moment(L, 1.0 / (2 * window.lower))
        uses_law = uses_law and abs(sat_p - 2.5 ** (2 * L)) <= 1e-9 * sat_p
    # and the grid moments used by certify agree with the law
    grid = Grid(128, -16.0, 16.0)
    psi = gaussian_state(grid, 0.0, 0.0, 0.9, 1.0)
    qm = position_operator(grid).dense()
    m4 = float(
        np.vdot(psi.amplitudes, np.linalg.matrix_power(qm, 4) @ psi.amplitudes).real
    )
    grid_matches = abs(m4 - gaussian_moment(2, 0.9)) < 1e-6
    elapsed = time.time() - start
    ok = confirmed and deviation_documented and uses_law and grid_matches
    _report(9, "verified Gaussian moment law", ok, f"{elapsed:.1f}s")
