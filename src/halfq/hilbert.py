"""Finite-dimensional quantum mechanics on uniform position grids.

Each degree of freedom lives on a periodic grid; the momentum operator is
the spectral (discrete Fourier) derivative, so smooth wave packets that
stay away from the grid edges see continuum behaviour.  Multi-DOF objects
are Kronecker compositions with the grids listed in DOF order.

These matrices realize the quantum words of :mod:`halfq.algebra`
numerically.  Hybrid expressions compile into sums of per-DOF factors
that act on states without a full-dimension matrix; a Chebyshev
propagator on that action powers the brute-force full-quantum oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Mapping, Sequence, Union

import numpy as np

from .algebra import AlgebraError, HybridExpression, Symbol
from .grammar import parse_symbol

HERMITIAN_RTOL = 1e-10


class GridError(ValueError):
    """Grid/state construction failure (packet too wide, bad bounds...)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of npoints sites on [xmin, xmax)."""

    npoints: int
    xmin: float
    xmax: float

    def __post_init__(self):
        if self.npoints < 8:
            raise GridError(f"need at least 8 grid points, got {self.npoints}")
        if not self.xmax > self.xmin:
            raise GridError(f"empty grid range [{self.xmin}, {self.xmax}]")

    @property
    def spacing(self) -> float:
        return (self.xmax - self.xmin) / self.npoints

    def points(self) -> np.ndarray:
        return self.xmin + self.spacing * np.arange(self.npoints)


def _total_dim(grids: Sequence[Grid]) -> int:
    return math.prod(g.npoints for g in grids)


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitudes over the tensor-product grid.

    Physical states are unit norm; error kets and other intermediate
    vectors may carry any norm.  Amplitudes are frozen after construction.
    """

    amplitudes: np.ndarray
    grids: tuple

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != _total_dim(self.grids):
            raise GridError(
                f"amplitude length {amps.size} does not match grids "
                f"(expect {_total_dim(self.grids)})"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "grids", tuple(self.grids))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "State":
        n = self.norm()
        if n == 0:
            raise GridError("cannot normalize the zero vector")
        return State(self.amplitudes / n, self.grids)

    def overlap(self, other: "State") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def boundary_mass(self) -> float:
        """Probability weight sitting on the outermost cell of any axis."""
        shape = tuple(g.npoints for g in self.grids)
        dens = np.abs(self.amplitudes.reshape(shape)) ** 2
        total = 0.0
        for axis in range(len(shape)):
            sl_lo = [slice(None)] * len(shape)
            sl_hi = [slice(None)] * len(shape)
            sl_lo[axis] = 0
            sl_hi[axis] = shape[axis] - 1
            total += float(dens[tuple(sl_lo)].sum() + dens[tuple(sl_hi)].sum())
        return total


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator on the tensor-product grid."""

    matrix: np.ndarray
    grids: tuple
    hermitian: bool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = _total_dim(self.grids)
        if mat.shape != (dim, dim):
            raise GridError(f"matrix shape {mat.shape} does not match grids (dim {dim})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "grids", tuple(self.grids))
        if self.hermitian is None:
            scale = float(np.max(np.abs(mat))) or 1.0
            herm = float(np.max(np.abs(mat - mat.conj().T))) <= HERMITIAN_RTOL * scale
            object.__setattr__(self, "hermitian", herm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, psi: State) -> complex:
        return complex(np.vdot(psi.amplitudes, self.matrix @ psi.amplitudes))


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Eigenvalues ascending, eigenvectors column-orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def amplitudes(self, psi: State) -> np.ndarray:
        """Projections <a_i|psi> in the eigenbasis."""
        return self.eigenvectors.conj().T @ psi.amplitudes

    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


# --------------------------------------------------------------------------
# operators and states on a single grid


def position_operator(grid: Grid) -> OperatorMatrix:
    return OperatorMatrix(np.diag(grid.points().astype(complex)), (grid,), hermitian=True)


@lru_cache(maxsize=32)
def _momentum_matrix(grid: Grid, hbar: float) -> np.ndarray:
    n = grid.npoints
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
    # unitary DFT: momentum = F^dagger diag(hbar k) F, exactly Hermitian
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    mat = f.conj().T @ (hbar * k[:, None] * f)
    mat = 0.5 * (mat + mat.conj().T)
    mat.flags.writeable = False
    return mat


def momentum_operator(grid: Grid, hbar: float) -> OperatorMatrix:
    """Spectral-derivative momentum; periodic convention.

    [q, p] = i*hbar*I holds on states negligible at the grid edges (the
    commutator picks up aliasing corrections in the outermost cells).
    """
    return OperatorMatrix(_momentum_matrix(grid, float(hbar)), (grid,), hermitian=True)


def identity_operator(grids: Sequence[Grid]) -> OperatorMatrix:
    return OperatorMatrix(np.eye(_total_dim(grids), dtype=complex), tuple(grids), hermitian=True)


def gaussian_state(grid: Grid, q0: float, p0: float, dq: float, hbar: float) -> State:
    """Normalized packet exp(-(q-q0)^2/4dq^2 + i p0 q/hbar) on the grid."""
    if dq <= 0:
        raise GridError("packet width must be positive")
    if q0 - 6 * dq < grid.xmin or q0 + 6 * dq > grid.xmax:
        raise GridError(
            f"packet [{q0 - 6 * dq:.3g}, {q0 + 6 * dq:.3g}] does not fit grid "
            f"[{grid.xmin:.3g}, {grid.xmax:.3g}]"
        )
    x = grid.points()
    amps = np.exp(-((x - q0) ** 2) / (4.0 * dq * dq) + 1j * p0 * x / hbar)
    amps /= np.linalg.norm(amps)
    return State(amps, (grid,))


def tensor(a, b):
    """Kronecker composition of states or operators; grids concatenate."""
    if isinstance(a, State) and isinstance(b, State):
        return State(np.kron(a.amplitudes, b.amplitudes), a.grids + b.grids)
    if isinstance(a, OperatorMatrix) and isinstance(b, OperatorMatrix):
        return OperatorMatrix(
            np.kron(a.matrix, b.matrix),
            a.grids + b.grids,
            hermitian=(a.hermitian and b.hermitian) or None,
        )
    raise TypeError("tensor arguments must be two States or two OperatorMatrix")


def sector_embed(op: OperatorMatrix, dof: int, grids: Sequence[Grid]) -> OperatorMatrix:
    """Operator acting on one DOF of a tensor space (identity elsewhere)."""
    if op.grids != (grids[dof - 1],):
        raise GridError(f"operator grid does not match DOF {dof}")
    mats = [op.matrix if i == dof - 1 else np.eye(g.npoints) for i, g in enumerate(grids)]
    return OperatorMatrix(reduce(np.kron, mats), tuple(grids), hermitian=op.hermitian or None)


# --------------------------------------------------------------------------
# symbolic -> numeric


@dataclass(frozen=True, eq=False)
class CompiledOperator:
    """A hybrid expression as a sum of per-DOF tensor products.

    Each term is ``(scalar, factors, hermitian)``: ``factors`` maps a tensor
    axis to a small matrix on that DOF's grid, a 1-D array when diagonal
    (position powers), the identity on absent axes.  ``hermitian`` marks
    terms Hermitian by construction: a real scalar and every factor a power
    of Q or of P.  Nothing of the full dimension is stored.
    """

    terms: tuple
    grids: tuple

    @property
    def shape(self) -> tuple:
        return tuple(g.npoints for g in self.grids)

    @property
    def dim(self) -> int:
        return _total_dim(self.grids)

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """The operator on a (dim,) vector or on each column of a (dim, k)
        batch: diagonal factors broadcast, dense ones are batched matmuls."""
        x = np.asarray(columns).reshape(self.shape + (-1,))
        out = np.zeros(x.shape, dtype=complex)
        for scalar, factors, _ in self.terms:
            part = x
            for axis, f in factors.items():
                if f.ndim == 1:
                    part = part * f.reshape((-1,) + (1,) * (x.ndim - axis - 1))
                else:
                    rows = part.reshape(math.prod(x.shape[:axis]), f.shape[0], -1)
                    part = np.matmul(f, rows).reshape(x.shape)
            out += scalar * part
        return out.reshape(np.shape(columns))

    def dense(self) -> OperatorMatrix:
        """The full matrix; for sector-size operators only."""
        dim = self.dim
        total = np.zeros((dim, dim), dtype=complex)
        for scalar, factors, _ in self.terms:
            blocks = [factors.get(a, np.ones(g.npoints)) for a, g in enumerate(self.grids)]
            if all(b.ndim == 1 for b in blocks):
                total.flat[:: dim + 1] += scalar * reduce(np.kron, blocks)
            else:
                blocks = [np.diag(b) if b.ndim == 1 else b for b in blocks]
                total += scalar * reduce(np.kron, blocks)
        return OperatorMatrix(total, self.grids)

    @cached_property
    def spectral_interval(self) -> tuple:
        """(lo, hi) enclosing the spectrum, the operator taken Hermitian.

        Per-term enclosures add up (Weyl's inequality).  A Hermitian term
        gives the exact range of its eigenvalues, spanned by products of
        per-factor extremes; any other term gives +-|s| prod ||factor||_2.
        """
        lo = hi = 0.0
        for scalar, factors, hermitian in self.terms:
            if hermitian:
                ends = [scalar.real]
                for f in factors.values():
                    eig = f if f.ndim == 1 else np.linalg.eigvalsh(f)
                    ends = [e * x for e in ends for x in (eig.min(), eig.max())]
                lo, hi = lo + min(ends), hi + max(ends)
            else:
                radius = abs(scalar) * math.prod(
                    np.abs(f).max() if f.ndim == 1 else np.linalg.norm(f, 2)
                    for f in factors.values()
                )
                lo, hi = lo - radius, hi + radius
        return float(lo), float(hi)


def compile_expression(
    expr: HybridExpression,
    classical_values: Mapping[Union[Symbol, str], float],
    quantum_grids: Mapping[int, Grid],
    hbar: float,
    constants: Mapping[str, float] | None = None,
) -> CompiledOperator:
    """Realize a hybrid expression as per-DOF factors on the quantum grids.

    Every classical symbol must be bound in ``classical_values`` (keys may
    be Symbols or names like ``"q1"``), every declared constant in
    ``constants``, and every quantum DOF 1..N must have a grid.
    """
    system = expr.system
    values: dict = {}
    for key, val in classical_values.items():
        values[key if isinstance(key, Symbol) else parse_symbol(str(key))] = float(val)
    constants = dict(constants or {})
    grids = tuple(quantum_grids[a] for a in range(1, system.quantum + 1))
    if not grids:
        raise AlgebraError("a numeric realization needs at least one quantum DOF")
    terms = []
    for (h, consts, classical, word), coeff in expr.terms():
        scalar = coeff.to_complex() * float(hbar) ** h
        for name, e in consts:
            if name not in constants:
                raise AlgebraError(f"unbound constant {name!r}")
            scalar *= float(constants[name]) ** e
        for sym, e in classical:
            if sym not in values:
                raise AlgebraError(f"unbound classical symbol {sym.name}")
            scalar *= values[sym] ** e
        # canonical words group factors per DOF, positions before momenta
        factors: dict = {}
        kinds: dict = {}
        for sym in word:
            axis = sym.index - 1
            cur = factors.get(axis)
            if sym.is_momentum:
                p = _momentum_matrix(grids[axis], float(hbar))
                factors[axis] = p if cur is None else (cur[:, None] * p if cur.ndim == 1 else cur @ p)
            else:
                x = grids[axis].points()
                factors[axis] = x if cur is None else cur * x
            kinds.setdefault(axis, set()).add(sym.is_momentum)
        hermitian = scalar.imag == 0 and all(len(k) == 1 for k in kinds.values())
        terms.append((scalar, factors, hermitian))
    return CompiledOperator(tuple(terms), grids)


def evaluate_symbolic(
    expr: HybridExpression,
    classical_values: Mapping[Union[Symbol, str], float],
    quantum_grids: Mapping[int, Grid],
    hbar: float,
    constants: Mapping[str, float] | None = None,
) -> OperatorMatrix:
    """Dense matrix of :func:`compile_expression`; for sector-size operators."""
    return compile_expression(expr, classical_values, quantum_grids, hbar, constants).dense()


# --------------------------------------------------------------------------
# spectra, probabilities, evolution


def spectral_decompose(op: OperatorMatrix) -> SpectralDecomp:
    if not op.hermitian:
        raise AlgebraError("spectral decomposition requires a Hermitian operator")
    w, v = np.linalg.eigh(op.matrix)
    return SpectralDecomp(w, v)


ENDPOINT_RTOL = 1e-9


def interval_mask(eigenvalues: np.ndarray, interval: tuple) -> np.ndarray:
    """Closed-interval membership with endpoint blur absorbed.

    Eigenvalues within ENDPOINT_RTOL * spectral range of an endpoint count
    as inside (closed-interval convention for near-degenerate values).
    """
    lo, hi = interval
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    span = float(eigenvalues[-1] - eigenvalues[0]) if eigenvalues.size > 1 else 1.0
    tol = ENDPOINT_RTOL * max(span, 1.0)
    return (eigenvalues >= lo - tol) & (eigenvalues <= hi + tol)


def interval_probability(decomp: SpectralDecomp, psi: State, interval: tuple) -> float:
    """Probability that a measurement lands in the closed interval."""
    amps = decomp.amplitudes(psi)
    mask = interval_mask(decomp.eigenvalues, interval)
    return float(np.sum(np.abs(amps[mask]) ** 2))


CHEBYSHEV_TAIL = 1e-15
MAX_CHEBYSHEV_TERMS = 1 << 16


def _chebyshev_order(alpha: float) -> int:
    """Smallest K with 2 * sum_{n>=K} (alpha/2)^n / n! below CHEBYSHEV_TAIL.

    |J_n(alpha)| <= (alpha/2)^n / n!, so this bounds the coefficient tail
    sum_{n>=K} |a_n|.  Past n = alpha/2 the terms fall faster than a
    geometric series of ratio alpha / (2(n+1)), which closes the sum.
    """
    if alpha == 0:
        return 1
    log_half = math.log(alpha / 2)
    for n in range(int(alpha / 2) + 1, MAX_CHEBYSHEV_TERMS):
        ratio = alpha / (2 * (n + 1))
        tail = 2 * math.exp(n * log_half - math.lgamma(n + 1)) / (1 - ratio)
        if tail < CHEBYSHEV_TAIL:
            return n
    raise GridError(
        f"Chebyshev coefficient tail not below {CHEBYSHEV_TAIL:g} within "
        f"{MAX_CHEBYSHEV_TERMS} terms (alpha = {alpha:.3g}); shorten the times"
    )


def chebyshev_coefficients(alpha: float) -> np.ndarray:
    """a_n with exp(-i alpha x) = sum_n a_n T_n(x) on [-1, 1], truncated
    where the coefficient tail falls below CHEBYSHEV_TAIL.

    Jacobi-Anger: exp(-i alpha cos theta) = sum_n (-i)^n J_n(alpha) e^{in theta},
    so a_0 = J_0(alpha) and a_n = 2 (-i)^n J_n(alpha), read off one FFT of
    samples on a circle.  The FFT length exceeds twice the order, so every
    aliased coefficient lies inside the discarded tail.
    """
    if not math.isfinite(alpha):
        raise GridError(f"Chebyshev argument {alpha!r} is not finite")
    order = _chebyshev_order(abs(alpha))
    m = 1 << (2 * order).bit_length()
    theta = 2.0 * math.pi * np.arange(m) / m
    c = np.fft.fft(np.exp(-1j * alpha * np.cos(theta))) / m
    coeffs = c[:order].copy()
    coeffs[1:] += c[m - 1 : m - order : -1]
    return coeffs


def evolve_full_quantum(
    H: CompiledOperator, psi0: State | np.ndarray, t: float, hbar: float = 1.0
):
    """exp(-iHt/hbar) applied to a State, a (dim,) vector or each column of
    a (dim, k) batch.

    Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967,
    1984) on ``H.apply`` over the operator's spectral interval, truncated
    at a coefficient tail below CHEBYSHEV_TAIL.  Raises GridError when a
    column's norm drifts by more than 1e-9.
    """
    vectors = psi0.amplitudes if isinstance(psi0, State) else np.asarray(psi0, dtype=complex)
    lo, hi = H.spectral_interval
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = chebyshev_coefficients(radius * t / hbar)
    out = coeffs[0] * vectors
    if coeffs.size > 1:
        prev, cur = vectors, (H.apply(vectors) - center * vectors) / radius
        out = out + coeffs[1] * cur
        for a in coeffs[2:]:
            prev, cur = cur, (2.0 / radius) * (H.apply(cur) - center * cur) - prev
            out += a * cur
    out *= np.exp(-1j * center * t / hbar)
    drift = np.abs(np.linalg.norm(out, axis=0) - np.linalg.norm(vectors, axis=0))
    if np.max(drift) > 1e-9:
        raise GridError("evolution lost unitarity beyond 1e-9")
    return State(out, psi0.grids) if isinstance(psi0, State) else out
