"""Finite-dimensional quantum mechanics on uniform position grids.

Each degree of freedom lives on a periodic grid; the momentum operator is
the spectral (discrete Fourier) derivative, so smooth wave packets clear
of each grid's edges, in position and in momentum, see continuum behaviour
(the oracle's edge guard reads both).  Multi-DOF states are Kronecker
products, and grids travel as tuples in DOF order: a
:class:`State`, a :class:`CompiledOperator` and :func:`compile_expression`
hold or take them that way.  The batch kernels (:meth:`SpectralDecomp.amplitudes`,
:func:`spectral_masses`, :func:`evolve_full_quantum`) take and return
plain arrays, a (dim,) vector or a (dim, k) batch of columns.

Every numeric operator, a single Q or P included, is a hybrid expression
of :mod:`halfq.algebra` compiled by :func:`compile_expression`, the one
place where a term becomes numbers, into one array over the grid that
sums every term diagonal on all axes, plus a sum of per-DOF factors for
the others; it acts on states without a full-dimension matrix.
Declared constants and the time are substituted in the exact layer
before realization; only classical symbols are bound to floats here, at
their central values.  Each term records its per-DOF (Q power, P power)
beside its factors, and one function, :func:`_axis_factor`, realizes
every factor Q^q P^p on a grid, in position or in the unitary-DFT basis.
Every operator is compiled in position except the oracle's H, which is
compiled once in its propagation basis: the axes where its pure powers
of P outnumber its pure powers of Q (:func:`fourier_axes`) are realized
in the unitary-DFT basis, where P^n is diagonal.  The one propagator,
:func:`evolve_full_quantum`, is a Chebyshev recurrence on that action
that carries a batch of columns to several times in one pass; it powers
the brute-force full-quantum oracle.  Its columns are in H's basis on the
way in and on the way out: it changes no basis, and its caller takes
states to H's basis and reads them there.  It reads its spectral interval off
H's one realization (:func:`_chebyshev_interval`: the diagonal's exact
range plus one enclosure per other term) and advances the columns in
chunks of :data:`CHUNK_COLUMNS`, three chunk vectors and one sum per time
besides one result per nonzero time; time 0 is the input itself.  H is
block diagonal over its :func:`block_axes`, so one column all-ones there
in H's basis carries every block, and the unitarity guard reads each
block's Gram matrix off the columns as given.  A dense matrix is a
read-only array taken from :meth:`CompiledOperator.dense` of a
single-sector operator, and exists only to be diagonalized by
:func:`spectral_decompose`.  Oracle and bounds alike read every interval
probability off one spectral measure, masses per eigenvalue: here
:func:`spectral_masses` projects a state or batch on an eigenbasis once
(the oracle reads the same masses off tables of its propagated columns),
and :func:`interval_mass` sums them over an interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraError, HybridExpression, Symbol, _dof_powers

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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

    def amplitudes(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Projections <a_i|x> in the eigenbasis of an array whose axis
        ``axis`` is the operator's: one broadcast matmul contracts that
        axis with V^dagger, and every other axis (other DOFs, columns)
        stays where it is."""
        rows = x.reshape(math.prod(x.shape[:axis]), self.dim, -1)
        return np.matmul(self.eigenvectors.conj().T, rows).reshape(x.shape)


# --------------------------------------------------------------------------
# operators and states on a single grid


def _fourier_basis(grid: Grid) -> tuple:
    """(f, k): the unitary DFT matrix, f @ x = fft(x, norm="ortho"), and the
    wavenumber of each of its rows."""
    n = grid.npoints
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.spacing)
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    return f, k


# lru_cache keys keyword and positional arguments apart: every call passes
# all five by position, so that each factor has one cache entry
@lru_cache(maxsize=64)
def _axis_factor(grid: Grid, hbar: float, q: int, p: int, fourier: bool) -> np.ndarray:
    """Q^q P^p on one grid, read-only; 1-D when diagonal.

    In position, Q^q is the diagonal x^q by repeated products with x, and
    P the spectral derivative f^dagger diag(hbar k) f made exactly
    Hermitian; a further P multiplies from the right.  In the basis of
    :func:`_fourier_basis` (``fourier``) the factor is
    f diag(x^q) f^dagger diag((hbar k)^p), so a pure power of P is the
    diagonal (hbar k)^p.
    """
    if fourier:
        f, k = _fourier_basis(grid)
        out = (hbar * k) ** p
        if q:
            out = (f * _axis_factor(grid, hbar, q, 0, False)) @ f.conj().T * out
    elif p == 0:
        x = grid.points()
        out = np.ones_like(x) if q == 0 else _axis_factor(grid, hbar, q - 1, 0, False) * x
    elif p == 1:
        f, _ = _fourier_basis(grid)
        out = f.conj().T @ (_axis_factor(grid, hbar, 0, 1, True)[:, None] * f)
        out = 0.5 * (out + out.conj().T)
        if q:
            out = _axis_factor(grid, hbar, q, 0, False)[:, None] * out
    else:
        out = _axis_factor(grid, hbar, q, p - 1, False) @ _axis_factor(grid, hbar, 0, 1, False)
    out.flags.writeable = False
    return out


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


def tensor(a: State, b: State) -> State:
    """Kronecker composition of two states; grids concatenate."""
    if not (isinstance(a, State) and isinstance(b, State)):
        raise TypeError("tensor arguments must be two States")
    return State(np.kron(a.amplitudes, b.amplitudes), a.grids + b.grids)


# --------------------------------------------------------------------------
# symbolic -> numeric


@dataclass(frozen=True, eq=False)
class CompiledOperator:
    """A hybrid expression as a diagonal plus a sum of per-DOF tensor products.

    ``diagonal`` is one read-only array over the grid, the sum of every
    term diagonal on all axes.  Each other term is ``(scalar, factors,
    powers)``: ``factors`` maps a tensor axis to a small matrix on that
    DOF's grid, a 1-D array when diagonal, the identity on absent axes, and
    at least one factor is a matrix; ``powers`` maps the same axes to the
    factor's (Q power, P power).  A term is Hermitian by construction when
    its scalar is real and every factor a pure power of Q or of P.  Momentum
    factors are realized with ``hbar``.  The axes in ``fourier`` are
    realized in the basis of :func:`_fourier_basis`, and :meth:`dense` is
    in that basis too.  Nothing of the full dimension is stored but the
    diagonal.
    """

    diagonal: np.ndarray
    terms: tuple
    grids: tuple
    hbar: float
    fourier: tuple

    @property
    def shape(self) -> tuple:
        return tuple(g.npoints for g in self.grids)

    @property
    def dim(self) -> int:
        return _total_dim(self.grids)

    def apply(self, columns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator on a (dim,) vector or on each column of a (dim, k)
        batch: the diagonal and diagonal factors broadcast, dense ones are
        batched matmuls.  The result goes to ``out`` when given, an array
        of the input's shape that does not overlap it; the input is never
        written."""
        x = np.asarray(columns, dtype=complex).reshape(self.shape + (-1,))
        acc = np.multiply(
            x, self.diagonal[..., None], out=None if out is None else out.reshape(x.shape)
        )
        for scalar, factors, _ in self.terms:
            part = x
            for axis, f in factors.items():
                if f.ndim == 1:
                    diag = f.reshape((-1,) + (1,) * (x.ndim - axis - 1))
                    part = np.multiply(part, diag, out=None if part is x else part)
                else:
                    rows = part.reshape(math.prod(x.shape[:axis]), f.shape[0], -1)
                    part = np.matmul(f, rows).reshape(x.shape)
            part *= scalar
            acc += part
        return acc.reshape(np.shape(columns)) if out is None else out

    def dense(self) -> np.ndarray:
        """The full matrix, read-only; for sector-size operators only."""
        total = np.diag(self.diagonal.ravel())
        for scalar, factors, _ in self.terms:
            blocks = [factors.get(a, np.ones(g.npoints)) for a, g in enumerate(self.grids)]
            total += scalar * reduce(np.kron, [np.diag(b) if b.ndim == 1 else b for b in blocks])
        total.flags.writeable = False
        return total


def compile_expression(
    expr: HybridExpression,
    classical_values: Mapping[Symbol, float],
    grids: tuple,
    hbar: float,
    fourier: tuple = (),
) -> CompiledOperator:
    """Realize a hybrid expression as per-DOF factors on the quantum grids,
    the axes in ``fourier`` in the basis of :func:`_fourier_basis`; every
    term diagonal on all axes is summed into the one diagonal, in the
    order of ``expr.terms()``.

    Declared constants must already be substituted
    (:meth:`HybridExpression.substitute_constants`); every classical symbol
    must be bound in ``classical_values`` (keyed by Symbol), and ``grids``
    holds one grid per quantum DOF, in DOF order.
    """
    unbound = expr.constants()
    if unbound:
        raise AlgebraError(f"unbound constant {min(unbound)!r}")
    values = {sym: float(val) for sym, val in classical_values.items()}
    if len(grids) != expr.system.quantum:
        raise AlgebraError(f"{len(grids)} grids for {expr.system.quantum} quantum DOFs")
    if not grids:
        raise AlgebraError("a numeric realization needs at least one quantum DOF")
    hbar = float(hbar)
    diagonal = np.zeros(tuple(g.npoints for g in grids), dtype=complex)
    terms = []
    for (h, _, classical, word), coeff in expr.terms():
        scalar = coeff.to_complex() * hbar**h
        for sym, e in classical:
            if sym not in values:
                raise AlgebraError(f"unbound classical symbol {sym.name}")
            scalar *= values[sym] ** e
        powers = _word_powers(word)
        factors = {
            a: _axis_factor(grids[a], hbar, q, p, a in fourier) for a, (q, p) in powers.items()
        }
        if any(f.ndim == 2 for f in factors.values()):
            terms.append((scalar, factors, powers))
            continue
        part = scalar
        for a, f in factors.items():
            part = part * f.reshape((-1,) + (1,) * (len(grids) - a - 1))
        diagonal += part
    diagonal.flags.writeable = False
    return CompiledOperator(diagonal, tuple(terms), grids, hbar, tuple(fourier))


def _word_powers(word) -> dict:
    """Tensor axis -> (Q power, P power) of a canonical word, which groups
    its factors per DOF, positions before momenta."""
    return {d - 1: qp for d, qp in _dof_powers((sym, 1) for sym in word).items()}


# --------------------------------------------------------------------------
# spectra, probabilities, evolution


def spectral_decompose(mat: np.ndarray) -> SpectralDecomp:
    """Eigendecomposition; AlgebraError unless the matrix equals its adjoint
    to HERMITIAN_RTOL of its largest entry."""
    scale = float(np.max(np.abs(mat))) or 1.0
    if float(np.max(np.abs(mat - mat.conj().T))) > HERMITIAN_RTOL * scale:
        raise AlgebraError("spectral decomposition requires a Hermitian operator")
    w, v = np.linalg.eigh(mat)
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


def spectral_masses(decomp: SpectralDecomp, x: np.ndarray) -> np.ndarray:
    """Probability of each eigenvalue of ``decomp`` in a vector or each
    column of a (dim, k) batch: an (n,) or (n, k) array."""
    mass = np.abs(decomp.amplitudes(x))
    np.square(mass, out=mass)
    return mass


def interval_mass(eigenvalues: np.ndarray, masses: np.ndarray, interval: tuple):
    """Mass that ``masses`` (per eigenvalue, as from :func:`spectral_masses`)
    puts in the closed interval: a float, or one per column of a batch."""
    inside = masses[interval_mask(eigenvalues, interval)].sum(axis=0)
    return float(inside) if inside.ndim == 0 else inside


CHEBYSHEV_TAIL = 1e-15
MAX_CHEBYSHEV_TERMS = 1 << 16
# columns :func:`evolve_full_quantum` advances together.  Only a mixing axis
# makes r > 1: on the 32x32 example plus c*q2 (r = 32, 2 OpenBLAS threads on
# 2 cores) the propagation's median reads 91, 74, 66 and 77 ms at 4, 8, 16
# and 32 columns, with overlapping quartiles from 8 on
CHUNK_COLUMNS = 8


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


def chebyshev_terms(H: CompiledOperator, times: Sequence[float]) -> int:
    """Length of the Chebyshev recurrence :func:`evolve_full_quantum` runs
    under ``H`` for ``times``: the order the largest |t| needs."""
    lo, hi = _chebyshev_interval(H)
    return max(_chebyshev_order(0.5 * (hi - lo) * abs(t) / H.hbar) for t in times)


def fourier_axes(expr: HybridExpression) -> tuple:
    """The tensor axes to compile ``expr`` on in the basis of
    :func:`_fourier_basis` for :func:`evolve_full_quantum`: those on which
    more of its words have a pure power of P than a pure power of Q.  Ties
    stay in position."""
    votes = [0] * expr.system.quantum
    for (_, _, _, word), _ in expr.terms():
        for axis, (q, p) in _word_powers(word).items():
            votes[axis] += (q == 0) - (p == 0)
    return tuple(axis for axis, vote in enumerate(votes) if vote > 0)


def block_axes(H: CompiledOperator) -> tuple:
    """The axes where no term of ``H`` has a matrix factor, so H is diagonal
    along them in its own basis, commutes with the projector on each of
    their indices, and exp(-iHt/hbar) is block diagonal over those."""
    mixing = {a for _, factors, _ in H.terms for a, f in factors.items() if f.ndim == 2}
    return tuple(a for a in range(len(H.grids)) if a not in mixing)


def _chebyshev_interval(H: CompiledOperator) -> tuple:
    """(lo, hi) enclosing the spectrum of ``H`` taken Hermitian.  Per-term
    enclosures add up (Weyl's inequality): the diagonal's exact range, so
    terms diagonal together cancel, widened on both sides by its largest
    imaginary part; the exact range of a Hermitian product of pure powers,
    from per-factor extremes read off each power's diagonal (in the DFT
    basis for a power of P); else +-|s| prod ||factor||_2."""
    lo = hi = 0.0
    for scalar, factors, powers in H.terms:
        if scalar.imag == 0 and all(0 in qp for qp in powers.values()):
            ends = [scalar.real]
            for a, (q, p) in powers.items():
                eig = _axis_factor(H.grids[a], H.hbar, q, p, p > 0)
                ends = [e * x for e in ends for x in (eig.min(), eig.max())]
            lo, hi = lo + min(ends), hi + max(ends)
        else:
            radius = abs(scalar) * math.prod(
                np.abs(f).max() if f.ndim == 1 else np.linalg.norm(f, 2)
                for f in factors.values()
            )
            lo, hi = lo - radius, hi + radius
    widen = np.abs(H.diagonal.imag).max()
    return float(lo + H.diagonal.real.min() - widen), float(hi + H.diagonal.real.max() + widen)


def evolve_full_quantum(
    H: CompiledOperator,
    vectors: np.ndarray,
    times: Sequence[float],
) -> list:
    """exp(-iHt/hbar) applied to a (dim,) vector or each of the r columns
    of a (dim, r) batch, at every time in ``times``: one array of the
    input's shape per time, in order; hbar is the one ``H`` was compiled
    with.  The input and every result are in the basis ``H`` was compiled
    in: the unitary DFT on the axes ``H.fourier``, position on the others.
    No basis changes here; the caller takes its vectors to H's basis and
    back.  A time 0 gives a read-only view of the input.

    Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967,
    1984) over H's spectral interval.  The vectors T_n(H~)v do not depend
    on t, so one recurrence runs to the order max |t| needs
    (:func:`chebyshev_terms`) and every time sums its own coefficients
    a_n(t) in the same loop, truncated where its coefficient tail falls
    below CHEBYSHEV_TAIL.  The recurrence runs on CHUNK_COLUMNS columns
    at a time; order and coefficients come from H's one realization.
    Three chunk buffers, a copy of the chunk first, hold the T_n in turn,
    each new one written over a spent one, so memory is one r x dim
    result per nonzero time plus, per chunk, those buffers, one
    accumulator per time and one temporary per term of ``apply``.
    Raises GridError when the columns' Gram matrix within any block of
    H's :func:`block_axes` (the whole Gram without them) drifts by more
    than 1e-9 in spectral norm at any time, so that no unit combination of
    the columns at one block index changes its squared norm by more than
    1e-9; blocks are checked a group of indices at a time.
    """
    v = np.asarray(vectors, dtype=complex)
    # exp(-iH 0) = I: time 0 is the input itself, read-only
    same = v.view()
    same.flags.writeable = False
    moving = [t for t in times if t != 0]
    if not moving:
        return [same] * len(times)
    cols = v.reshape(v.shape[0], -1)
    hbar = H.hbar
    lo, hi = _chebyshev_interval(H)
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # T_{n+1} = op T_n - T_{n-1} with op = 2 (H - center) / radius
    scale = 2.0 / radius
    terms = tuple((scale * s, f, qp) for s, f, qp in H.terms)
    op = CompiledOperator(scale * (H.diagonal - center), terms, H.grids, hbar, H.fourier)
    coeffs = [chebyshev_coefficients(radius * t / hbar) for t in moving]
    order = max((a.size for a in coeffs), default=0)
    outs = [np.empty_like(cols) for _ in moving]
    for start in range(0, cols.shape[1], CHUNK_COLUMNS):
        chunk = slice(start, start + CHUNK_COLUMNS)
        # a copy: the recurrence writes over its first buffer
        u = np.array(cols[:, chunk])
        accs = [a[0] * u for a in coeffs]
        if order > 1:
            prev, cur, spare = u, op.apply(u), np.empty_like(u)
            cur *= 0.5
            for n in range(1, order):
                if n > 1:
                    # T_n goes over the spent buffer; T_{n-2} is spent after
                    # it and takes the products below
                    prev, cur, spare = cur, op.apply(cur, out=spare), prev
                    cur -= spare
                for acc, a in zip(accs, coeffs):
                    if n < a.size:
                        acc += np.multiply(a[n], cur, out=spare)
            del prev, cur, spare
        for out, acc, t in zip(outs, accs, moving):
            acc *= np.exp(-1j * center * t / hbar)
            out[:, chunk] = acc
        del u, accs
    blocks = block_axes(H)
    n = H.shape[blocks[0]] if blocks else 1
    step = max(1, n * CHUNK_COLUMNS // cols.shape[1])
    for group in (slice(start, start + step) for start in range(0, n, step)):
        before = _block_grams(H, blocks, cols, group)
        for out, t in zip(outs, moving):
            drift = _block_grams(H, blocks, out, group) - before
            if np.linalg.norm(drift, 2, axis=(1, 2)).max() > 1e-9:
                raise GridError(f"evolution lost unitarity beyond 1e-9 at t={t}")
    moved = iter(out.reshape(v.shape) for out in outs)
    return [same if t == 0 else next(moved) for t in times]


def _block_grams(H: CompiledOperator, blocks: tuple, cols: np.ndarray, group: slice):
    """(b, r, r): the Gram matrix of the r columns of a (dim, r) batch in
    H's basis in each block of ``H``'s axes ``blocks`` whose index on the
    first lies in ``group`` (the whole Gram when ``blocks`` is empty)."""
    if not blocks:
        return _gram(cols)[None]
    r = cols.shape[1]
    x = cols.reshape(H.shape + (r,))[(slice(None),) * blocks[0] + (group,)]
    x = np.moveaxis(x, blocks, range(len(blocks)))
    x = x.reshape(math.prod(x.shape[: len(blocks)]), -1, r)
    return np.matmul(x.conj().swapaxes(1, 2), x)


def _gram(columns: np.ndarray) -> np.ndarray:
    """Inner products of the columns of a (dim,) vector or (dim, r) batch,
    summed over as many blocks of rows as the batch has chunks of columns,
    so that no conjugated copy larger than about a chunk is made."""
    cols = columns.reshape(columns.shape[0], -1)
    blocks = np.array_split(cols, max(1, -(-cols.shape[1] // CHUNK_COLUMNS)))
    return sum(b.conj().T @ b for b in blocks)
