"""Error kets, spreads, tail bounds, and classicality certification.

A classical-sector description assigns each DOF a value and an error
margin.  A wave function is consistent with that description to order L
when every composed L-order error ket is small against the product of
margins; certified states then concentrate near the classical values in
every fundamental-observable representation, which is what makes the
half-quantum prediction bounds valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgebraError, HybridExpression, Symbol, System, partial_derivative
from .hilbert import (
    CompiledOperator,
    Grid,
    SpectralDecomp,
    State,
    compile_expression,
    interval_mass,
    spectral_masses,
)


@dataclass(frozen=True)
class ClassicalDatum:
    """Initial value and margin for one classical DOF."""

    q0: float
    p0: float
    delta_q: float
    delta_p: float

    def __post_init__(self):
        if self.delta_q <= 0 or self.delta_p <= 0:
            raise ValueError("error margins must be strictly positive")


@dataclass(frozen=True)
class ClassicalData:
    """Classical-sector initial data: one datum per DOF (index 1..M)."""

    data: tuple

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))

    @property
    def dofs(self) -> int:
        return len(self.data)

    def center(self, sym: Symbol) -> float:
        d = self._datum(sym)
        return d.p0 if sym.is_momentum else d.q0

    def centers(self) -> dict:
        """{symbol: central value} of every q1..qM and p1..pM."""
        return {sym: self.center(sym) for sym in System(self.dofs, 0).fundamental_symbols()}

    def margin(self, sym: Symbol) -> float:
        d = self._datum(sym)
        return d.delta_p if sym.is_momentum else d.delta_q

    def _datum(self, sym: Symbol) -> ClassicalDatum:
        if not sym.is_classical or not 1 <= sym.index <= self.dofs:
            raise AlgebraError(f"no classical data for symbol {sym!r}")
        return self.data[sym.index - 1]

    def uncertainty_feasible(self, hbar: float) -> bool:
        """Margins respect the uncertainty floor delta_q*delta_p >= hbar/2."""
        return all(d.delta_q * d.delta_p >= hbar / 2 for d in self.data)

    def scaled(self, factor: float) -> "ClassicalData":
        return ClassicalData(
            tuple(
                ClassicalDatum(d.q0, d.p0, factor * d.delta_q, factor * d.delta_p)
                for d in self.data
            )
        )


# --------------------------------------------------------------------------
# error kets and their consequences


def error_ket(
    ops: Sequence[CompiledOperator], centers: Sequence[float], psi: State
) -> State:
    """(X_1 - x_1)...(X_n - x_n)|psi>, applied right to left; unnormalized."""
    if len(ops) != len(centers):
        raise ValueError("ops and centers must have equal length")
    vec = psi.amplitudes
    for op, center in zip(reversed(ops), reversed(centers)):
        if op.dim != vec.size:
            raise ValueError("operator dimension does not match state")
        vec = op.apply(vec) - center * vec
    return State(vec, psi.grids)


def spread_n(
    ops: Sequence[CompiledOperator],
    centers: Sequence[float],
    psi: State,
    n: int | None = None,
    p: float = 0.99,
) -> float:
    """n-order spread (<E|E>/(1-p))^(1/2n).

    A single operator with ``n`` given is replicated into the n-order error
    ket; otherwise n defaults to the number of factors supplied.
    """
    if not 0 < p < 1:
        raise ValueError(f"probability must lie in (0,1), got {p}")
    ops = list(ops)
    centers = list(centers)
    if n is None:
        n = len(ops)
    elif len(ops) == 1 and n > 1:
        ops = ops * n
        centers = centers * n
    if len(ops) != n:
        raise ValueError("order n does not match the number of factors")
    ee = error_ket(ops, centers, psi).norm() ** 2
    return (ee / (1.0 - p)) ** (1.0 / (2 * n))


def tail_probability(
    decomp: SpectralDecomp, psi: State, x0: float, dist: float, n: int
) -> tuple:
    """Measured probability outside [x0-dist, x0+dist] and its error-ket bound.

    The bound is <E^n|E^n>/dist^(2n); the measured tail never exceeds it.
    """
    if dist <= 0:
        raise ValueError("distance must be positive")
    masses = spectral_masses(decomp, psi.amplitudes)
    inside = interval_mass(decomp.eigenvalues, masses, (x0 - dist, x0 + dist))
    measured = float(masses.sum()) - inside
    ee = float(((decomp.eigenvalues - x0) ** (2 * n) * masses).sum())
    return measured, ee / dist ** (2 * n)


# --------------------------------------------------------------------------
# sequence enumeration and certification


def classicality_sequences(
    solutions: Iterable[HybridExpression], classical_dofs: int
) -> list:
    """First-order sequences: sorted tuples of classical symbols (multisets)
    whose mixed partial of some time-evolved observable does not vanish,
    shortest first.

    Total degree is capped at the classical polynomial degree of the
    solutions (higher mixed partials vanish identically).
    """
    solutions = list(solutions)
    symbols = sorted(System(classical_dofs, 0).fundamental_symbols())
    max_degree = max((sol.classical_degree() for sol in solutions), default=0)
    found = []

    def extend(prefix: tuple, start: int, exprs: list):
        for idx in range(start, len(symbols)):
            sym = symbols[idx]
            derived = [partial_derivative(e, sym) for e in exprs]
            derived = [e for e in derived if not e.is_zero]
            if not derived:
                continue
            seq = prefix + (sym,)
            found.append(seq)
            if len(seq) < max_degree:
                extend(seq, idx, derived)

    extend((), 0, solutions)
    found.sort(key=lambda seq: (len(seq), seq))
    return found


def compose_sequences(sequences: Sequence[tuple], L: int) -> list:
    """The distinct L-fold concatenations of first-order sequences, sorted."""
    return sorted({sum(combo, ()) for combo in product(sequences, repeat=L)})


@dataclass(frozen=True)
class CertificateRow:
    sequence: tuple  # symbol names
    lhs: float  # <E|E>
    rhs: float  # product of squared margins
    slack: float  # rhs - lhs


@dataclass(frozen=True)
class ClassicalityCertificate:
    """Order-L certification of a classical-sector wave function."""

    order: int
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.slack >= 0 for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "verdict": "pass" if self.passed else "fail",
            "rows": [
                {
                    "sequence": list(row.sequence),
                    "lhs": row.lhs,
                    "rhs": row.rhs,
                    "slack": row.slack,
                }
                for row in self.rows
            ],
        }


def classical_operators(grids: Sequence[Grid], hbar: float) -> dict:
    """q/p operators for every classical DOF, compiled on the sector grids
    (each DOF quantized on its own axis; no sector-dimension matrix)."""
    sector = System(0, len(grids))
    ops = {}
    for i in range(1, len(grids) + 1):
        ops[Symbol.q(i)] = compile_expression(sector.Q(i), {}, grids, hbar)
        ops[Symbol.p(i)] = compile_expression(sector.P(i), {}, grids, hbar)
    return ops


def certify(
    psi_c: State,
    data: ClassicalData,
    L: int,
    sequences: Sequence[tuple],
    hbar: float,
) -> ClassicalityCertificate:
    """Evaluate every composed L-order sequence inequality <E|E> <= prod(delta^2).

    Rows are sorted most binding first (ascending slack); the verdict is a
    property of the certificate, never an exception.
    """
    if len(psi_c.grids) != data.dofs:
        raise ValueError("state grids do not match the classical data")
    ops = classical_operators(psi_c.grids, hbar)
    rows = []
    for seq in compose_sequences(sequences, L):
        chain_ops = [ops[s] for s in seq]
        centers = [data.center(s) for s in seq]
        lhs = error_ket(chain_ops, centers, psi_c).norm() ** 2
        rhs = 1.0
        for s in seq:
            rhs *= data.margin(s) ** 2
        rows.append(
            CertificateRow(
                sequence=tuple(s.name for s in seq),
                lhs=lhs,
                rhs=rhs,
                slack=rhs - lhs,
            )
        )
    rows.sort(key=lambda r: (r.slack, r.sequence))
    return ClassicalityCertificate(order=L, rows=tuple(rows))


# --------------------------------------------------------------------------
# Gaussian families


def double_factorial_odd(L: int) -> int:
    """(2L-1)!! - the 2L-th central moment factor of a Gaussian."""
    out = 1
    for k in range(1, 2 * L, 2):
        out *= k
    return out


@dataclass(frozen=True)
class GaussianFeasibility:
    """Widths dq for which the minimum-uncertainty packet is L-order classical."""

    lower: float
    upper: float

    @property
    def feasible(self) -> bool:
        return self.lower <= self.upper


def gaussian_feasibility(
    data: ClassicalData, L: int, hbar: float, dof: int = 1
) -> GaussianFeasibility:
    """Interval of packet widths satisfying the order-L moment bounds.

    Uses the quadrature-verified Gaussian moment law
    E[(q-q0)^2L] = (2L-1)!! dq^2L with momentum width hbar/(2 dq); feasible
    iff (2L-1)!!^(1/L) hbar/2 <= delta_q delta_p.
    """
    datum = data.data[dof - 1]
    c = double_factorial_odd(L) ** (1.0 / (2 * L))
    return GaussianFeasibility(c * hbar / (2.0 * datum.delta_p), datum.delta_q / c)


def gaussian_moment(L: int, dq: float) -> float:
    """Verified 2L-th central moment of the packet density: (2L-1)!! dq^2L."""
    return double_factorial_odd(L) * dq ** (2 * L)
