"""Half-quantum prediction machinery.

A hybrid observable carries free classical symbols (initial values with
margins) and quantum operators.  Its L-order error margin delta_L
propagates the classical margins through the operator-valued derivatives;
the spread Delta_L converts margin plus spectral-window width into an
interval scale; and the probability sandwich

    P(b in Imin) - Emin  <=  P(a in I0)  <=  P(b in Imax) + Emax

is the theory's physical prediction, with Emin/Emax built from the
tail-leakage constant (1-p) Delta_L / (2(2L-1) I_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraError,
    CNum,
    HybridExpression,
    Symbol,
    partial_derivative,
)
from .classicality import ClassicalData
from .hilbert import (
    CompiledOperator,
    OperatorMatrix,
    SpectralDecomp,
    State,
    compile_expression,
    interval_mask,
    spectral_decompose,
    tensor,
)


@dataclass(frozen=True)
class HybridObservable:
    """A hybrid expression bound to classical data and quantum grids."""

    expr: HybridExpression
    data: ClassicalData
    quantum_grids: dict
    hbar: float
    constants: dict

    def __post_init__(self):
        for sym in self.expr.classical_symbols():
            self.data.center(sym)  # raises if unbound
        unbound = self.expr.constants() - set(self.constants)
        if unbound:
            raise AlgebraError(f"unbound constants in observable: {sorted(unbound)}")
        object.__setattr__(self, "quantum_grids", dict(self.quantum_grids))
        object.__setattr__(self, "constants", dict(self.constants))

    def compiled(self, expr: HybridExpression | None = None) -> CompiledOperator:
        """Quantum-sector operator with classical symbols at their centers."""
        e = self.expr if expr is None else expr
        centers = {sym: self.data.center(sym) for sym in e.classical_symbols()}
        return compile_expression(
            e, centers, self.quantum_grids, self.hbar, self.constants
        )

    def matrix(self, expr: HybridExpression | None = None) -> OperatorMatrix:
        """Dense quantum-sector matrix of :meth:`compiled`."""
        return self.compiled(expr).dense()


@dataclass(frozen=True)
class BoundConfig:
    """Order, confidence, and spectral window width for one prediction."""

    L: int
    p: float
    I_B: float | None = None  # None: use delta_L itself

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("order L must be a positive integer")
        if not 0 < self.p < 1:
            raise ValueError("probability p must lie in (0,1)")
        if self.I_B is not None and self.I_B < 0:
            raise ValueError("I_B must be nonnegative")


# --------------------------------------------------------------------------
# error margins


@dataclass(frozen=True)
class DeltaMargin:
    """First- and second-order pieces of the L-order error margin."""

    total: float  # sum of first-order contributions
    per_symbol: dict  # symbol -> contribution
    second_order: float  # reported separately (truncation magnitude)

    @property
    def with_second_order(self) -> float:
        return self.total + self.second_order


def delta_L_margin(
    observable: HybridObservable,
    xi_quantum: State,
    L: int,
) -> DeltaMargin:
    """delta_L = sum_i |<xi|(dB^dag/dO_i)^L (dB/dO_i)^L|xi>|^(1/2L) * delta_i.

    Second-order derivative terms (the n=2 tail of the margin expansion)
    are evaluated and reported separately.  For observables whose classical
    derivatives are constant multiples of the identity the result is
    independent of L and of the state.
    """
    if L < 1:
        raise ValueError("order L must be a positive integer")
    data = observable.data
    symbols = sorted(
        [Symbol.q(i) for i in range(1, data.dofs + 1)]
        + [Symbol.p(i) for i in range(1, data.dofs + 1)]
    )

    def weight(deriv: HybridExpression) -> float:
        """|<xi|(D^dag)^L D^L|xi>|^(1/2L) of one derivative operator D."""
        op = observable.compiled(deriv)
        vec = xi_quantum.amplitudes
        for _ in range(L):
            vec = op.apply(vec)
        return float(np.vdot(vec, vec).real) ** (1.0 / (2 * L))

    per_symbol = {}
    second = 0.0
    for sym_i in symbols:
        deriv = partial_derivative(observable.expr, sym_i)
        if deriv.is_zero:
            continue
        contribution = weight(deriv) * data.margin(sym_i)
        if contribution:
            per_symbol[sym_i] = contribution
        for sym_k in symbols:
            deriv2 = partial_derivative(deriv, sym_k)
            if not deriv2.is_zero:
                second += 0.5 * weight(deriv2) * data.margin(sym_i) * data.margin(sym_k)
    return DeltaMargin(
        total=float(sum(per_symbol.values())),
        per_symbol=per_symbol,
        second_order=second,
    )


def closed_form_margin(expr: HybridExpression, time: str = "t") -> dict:
    """Symbolic margin weights for constant-derivative observables.

    Returns {classical symbol: weight expression in |t| and the declared
    constants}; the margin is sum_i weight_i * delta_i.  Requires every
    classical derivative to be a scalar multiple of the identity whose
    coefficient is a single constant monomial (true for the worked example);
    declared constants are taken positive.  Raises otherwise.
    """
    out = {}
    for sym in sorted(expr.classical_symbols()):
        deriv = partial_derivative(expr, sym)
        terms = deriv.terms()
        if deriv.is_zero:
            continue
        if len(terms) != 1:
            raise AlgebraError(
                f"derivative along {sym.name} is not a single constant monomial"
            )
        (hbar, consts, classical, word), coeff = terms[0]
        if hbar or classical or word:
            raise AlgebraError(
                f"derivative along {sym.name} is not a constant multiple of the identity"
            )
        if coeff.im != 0:
            raise AlgebraError("margin weights must be real")
        out[sym] = HybridExpression(
            deriv.system, {(0, consts, (), ()): CNum(abs(coeff.re))}
        )
    return out


def spread_Delta_L(delta_L: float, cfg: BoundConfig) -> float:
    """Delta_L = (delta_L + I_B) / (1-p)^(1/2L)."""
    i_b = delta_L if cfg.I_B is None else cfg.I_B
    return (delta_L + i_b) / (1.0 - cfg.p) ** (1.0 / (2 * cfg.L))


def leakage_constant(delta_L: float, cfg: BoundConfig) -> float:
    """(1-p) Delta_L / (2(2L-1) I_B): the spectral tail-leakage bound.

    Degenerate exact case: when the observable carries no classical error
    (delta_L = 0) and I_B collapses with it, every xi state is a true
    eigenstate and the leakage vanishes identically.
    """
    i_b = delta_L if cfg.I_B is None else cfg.I_B
    if i_b == 0:
        if delta_L == 0:
            return 0.0
        raise ValueError("I_B must be positive when the observable carries classical error")
    delta = spread_Delta_L(delta_L, cfg)
    return (1.0 - cfg.p) * delta / (2.0 * (2 * cfg.L - 1) * i_b)


# --------------------------------------------------------------------------
# xi states


@dataclass(frozen=True)
class XiState:
    """Coarse-grained spectral component of phi^Q over one eigenvalue window."""

    center: float  # central eigenvalue b_u
    state: State  # tensored with the classical factor when supplied
    quantum_state: State
    weight: complex  # <xi_u|phi>


def xi_states(
    B: OperatorMatrix | SpectralDecomp,
    phi_quantum: State,
    phi_classical: State | None,
    I_B: float,
) -> list:
    """Bin the eigencomponents of phi^Q into disjoint windows of width 2 I_B.

    Windows step by 2*I_B from the spectral minimum; the central eigenvalue
    is the window midpoint.  Bins with no amplitude are dropped.  The
    returned states are orthonormal and reconstruct phi exactly.
    """
    if I_B <= 0:
        raise ValueError("I_B must be positive")
    decomp = B if isinstance(B, SpectralDecomp) else spectral_decompose(B)
    amps = decomp.amplitudes(phi_quantum)
    lo = float(decomp.eigenvalues[0])
    bins = np.floor((decomp.eigenvalues - lo) / (2.0 * I_B)).astype(int)
    out = []
    for u in sorted(set(bins.tolist())):
        mask = bins == u
        coeffs = np.where(mask, amps, 0.0)
        weight_sq = float(np.sum(np.abs(coeffs) ** 2))
        if weight_sq <= 1e-30:
            continue
        vec = decomp.eigenvectors @ coeffs
        norm = math.sqrt(weight_sq)
        quantum = State(vec / norm, phi_quantum.grids)
        full = quantum if phi_classical is None else tensor(phi_classical, quantum)
        # <xi_u|phi> = <xi_u^Q|phi^Q> for product states
        weight = complex(np.vdot(quantum.amplitudes, phi_quantum.amplitudes))
        out.append(
            XiState(
                center=lo + (2 * u + 1) * I_B,
                state=full,
                quantum_state=quantum,
                weight=weight,
            )
        )
    return out


# --------------------------------------------------------------------------
# the sandwich bound


@dataclass(frozen=True)
class PredictionBound:
    """Interval probabilities with explicit imprecision (the sandwich)."""

    I0: tuple
    Imin: tuple
    Imax: tuple
    delta_L: float
    Delta_L: float
    L: int
    p: float
    I_B: float
    Pmin: float
    Pmax: float
    Emin: float
    Emax: float

    @property
    def lower(self) -> float:
        return self.Pmin - self.Emin

    @property
    def upper(self) -> float:
        return self.Pmax + self.Emax

    @property
    def lower_clamped(self) -> float:
        return min(max(self.lower, 0.0), 1.0)

    @property
    def upper_clamped(self) -> float:
        return min(max(self.upper, 0.0), 1.0)

    def contains(self, probability: float) -> bool:
        return self.lower <= probability <= self.upper

    def to_json_dict(self) -> dict:
        return {
            "I0": list(self.I0),
            "Imin": list(self.Imin),
            "Imax": list(self.Imax),
            "delta_L": self.delta_L,
            "Delta_L": self.Delta_L,
            "L": self.L,
            "p": self.p,
            "I_B": self.I_B,
            "Pmin": self.Pmin,
            "Pmax": self.Pmax,
            "Emin": self.Emin,
            "Emax": self.Emax,
            "lower": self.lower,
            "upper": self.upper,
            "lower_clamped": self.lower_clamped,
            "upper_clamped": self.upper_clamped,
        }


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def prediction_bounds(
    observable: HybridObservable,
    phi_quantum: State,
    cfg: BoundConfig,
    I0: tuple,
    decomp: SpectralDecomp | None = None,
    margin: DeltaMargin | None = None,
) -> PredictionBound:
    """Sandwich bound for P(a in I0) from the half-quantum operator alone.

    ``I0 = [a0-D, a0+D]`` must satisfy ``D > Delta_L``.  ``decomp``/``margin``
    may be supplied to reuse cached pieces; they must belong to the same
    observable.
    """
    if margin is None:
        margin = delta_L_margin(observable, phi_quantum, cfg.L)
    delta = margin.total
    i_b = delta if cfg.I_B is None else cfg.I_B
    big_delta = spread_Delta_L(delta, cfg)
    lo, hi = I0
    a0 = 0.5 * (lo + hi)
    D = 0.5 * (hi - lo)
    if i_b == 0:
        # exact quantum sector: no classical blur, xi states are eigenstates
        if delta != 0:
            raise ValueError("I_B must be positive when delta_L > 0")
        big_delta = 0.0
    elif D <= big_delta:
        raise ValueError(
            f"interval half-width D={D:.6g} must exceed Delta_L={big_delta:.6g}"
        )
    if decomp is None:
        decomp = spectral_decompose(observable.matrix())
    imin = (a0 - (D - big_delta), a0 + (D - big_delta))
    imax = (a0 - (D + big_delta), a0 + (D + big_delta))
    amps2 = np.abs(decomp.amplitudes(phi_quantum)) ** 2
    pmin = float(amps2[interval_mask(decomp.eigenvalues, imin)].sum())
    pmax = float(amps2[interval_mask(decomp.eigenvalues, imax)].sum())
    leak = leakage_constant(delta, cfg)
    # probabilities inside the error terms clamped against grid blur
    emin = 2.0 * math.sqrt(_clamp01(1.0 - pmin)) * math.sqrt(leak) + leak
    emax = 2.0 * math.sqrt(_clamp01(pmax)) * math.sqrt(leak) + leak
    return PredictionBound(
        I0=(lo, hi),
        Imin=imin,
        Imax=imax,
        delta_L=delta,
        Delta_L=big_delta,
        L=cfg.L,
        p=cfg.p,
        I_B=i_b,
        Pmin=pmin,
        Pmax=pmax,
        Emin=emin,
        Emax=emax,
    )


def worst_case_errors(cfg: BoundConfig) -> dict:
    """The sandwich-error constants with both probability factors at one.

    With I_B = delta_L the leakage constant reduces to
    (1-p)^((2L-1)/2L) / (2L-1) and the interval widening to
    2/(1-p)^(1/2L) in units of delta_L.
    """
    leak = (1.0 - cfg.p) ** ((2 * cfg.L - 1) / (2 * cfg.L)) / (2 * cfg.L - 1)
    coefficient = 2.0 * math.sqrt(leak)
    return {
        "L": cfg.L,
        "p": cfg.p,
        "leakage": leak,
        "error_coefficient": coefficient,
        "worst_error": coefficient + leak,
        "widening_over_delta": 2.0 / (1.0 - cfg.p) ** (1.0 / (2 * cfg.L)),
    }


# --------------------------------------------------------------------------
# verification-mode checks against the full quantum oracle


def leakage_sum(
    eigenvalues: np.ndarray,
    xi_amps: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
    I0: tuple,
    window: tuple,
    which: str,
) -> float:
    """Spectral double sum behind the X1/X2 leakage terms.

    ``xi_amps[i, u] = <a_i|xi_u>`` over the full-quantum eigenbasis.
    X1 sums |sum_u <phi|xi_u><xi_u|a>|^2 over a in I0 and xi centers
    outside ``window`` (= Imax); X2 over a outside I0 and centers inside
    ``window`` (= Imin).
    """
    if which == "X1":
        a_mask = interval_mask(eigenvalues, I0)
        u_mask = ~interval_mask(centers, window)
    elif which == "X2":
        a_mask = ~interval_mask(eigenvalues, I0)
        u_mask = interval_mask(centers, window)
    else:
        raise ValueError(f"unknown leakage term {which!r}")
    if not a_mask.any() or not u_mask.any():
        return 0.0
    block = xi_amps[np.ix_(a_mask, u_mask)] @ weights[u_mask]
    return float(np.sum(np.abs(block) ** 2))


def tail_leakage(
    eigenvalues: np.ndarray,
    xi_amps: np.ndarray,
    xi_set: Sequence[XiState],
    I0: tuple,
    big_delta: float,
) -> dict:
    """Measured X1 and X2 leakage of one sandwich row (verification mode).

    ``xi_amps[i, u] = <a_i|xi_u>`` over the eigenbasis (``eigenvalues``) of
    the full-quantum observable; the xi states may be evolved into the
    Schroedinger picture.  X1 takes the window Imax, X2 the window Imin.
    For certified classical factors X1 <= leakage_constant is the testable
    content of the sandwich derivation.
    """
    weights = np.array([xi.weight for xi in xi_set])
    centers = np.array([xi.center for xi in xi_set])
    lo, hi = I0
    a0, D = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return {
        which: leakage_sum(
            eigenvalues, xi_amps, weights, centers, I0, (a0 - w, a0 + w), which
        )
        for which, w in (("X1", D + big_delta), ("X2", D - big_delta))
    }


def operator_discrepancy(
    A_full: CompiledOperator,
    observable: HybridObservable,
    psi_classical: State,
    psi_quantum: State,
    L: int,
    margin: DeltaMargin | None = None,
) -> tuple:
    """|<psi|(A-B)^2L|psi>|^(1/2L) against the margin bound.

    ``A_full`` acts on the tensor space, classical DOFs first; the
    half-quantum operator acts as the identity on the classical sector with
    classical symbols at their central values.  For a certified classical
    factor, lhs <= rhs.
    """
    psi = tensor(psi_classical, psi_quantum)
    b_small = observable.matrix().matrix
    n_c = psi_classical.dim
    vec = psi.amplitudes
    for _ in range(L):
        # I (x) B acts on the trailing quantum axis of the flattened tensor
        vec = A_full.apply(vec) - (vec.reshape(n_c, -1) @ b_small.T).reshape(-1)
    lhs = float(np.vdot(vec, vec).real) ** (1.0 / (2 * L))
    if margin is None:
        margin = delta_L_margin(observable, psi_quantum, L)
    return lhs, margin.with_second_order
