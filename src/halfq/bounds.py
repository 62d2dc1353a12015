"""Half-quantum prediction machinery.

A hybrid observable carries free classical symbols (initial values with
margins) and quantum operators.  Its L-order error margin delta_L
propagates the classical margins through the operator-valued derivatives;
the spread Delta_L converts margin plus spectral-window width into an
interval scale; and the probability sandwich

    P(b in Imin) - Emin  <=  P(a in I0)  <=  P(b in Imax) + Emax

is the theory's physical prediction, with Emin/Emax built from the
tail-leakage constant (1-p) Delta_L / (2(2L-1) I_B).
One function, :func:`power_weights`, reads every order's margin weight: of B's
derivatives at phi^Q, and of the exact A(t) - B at psi0 (the operator discrepancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .algebra import AlgebraError, HybridExpression, partial_derivative
from .classicality import ClassicalData
from .hilbert import (
    SpectralDecomp,
    State,
    compile_expression,
    interval_mask,
    interval_mass,
)


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
        if self.I_B is not None and self.I_B <= 0:
            raise ValueError("I_B must be positive")

    def window(self, delta_L: float) -> float:
        """The window width I_B at margin ``delta_L``: delta_L when unset."""
        return delta_L if self.I_B is None else self.I_B


# --------------------------------------------------------------------------
# error margins


@dataclass(frozen=True)
class DeltaMargin:
    """First- and second-order pieces of the L-order error margin."""

    total: float  # sum of first-order contributions
    second_order: float  # reported separately (truncation magnitude)

    @property
    def with_second_order(self) -> float:
        return self.total + self.second_order


def power_weights(
    expr: HybridExpression, centers: Mapping, state: State, hbar: float, orders: Collection[int]
) -> dict:
    """{L: ||O^L v||^(1/L)} for each order L in ``orders``, ascending, of ``expr``
    compiled once at ``centers`` on ``state``'s grids, from one chain of products O^L v:
    a margin weight, or for A(t) - B the discrepancy that B's margin bounds."""
    op = compile_expression(expr, centers, state.grids, hbar)
    vec, out = state.amplitudes, {}
    for L in range(1, max(orders) + 1):
        vec = op.apply(vec)
        if L in orders:
            out[L] = float(np.vdot(vec, vec).real) ** (1.0 / (2 * L))
    return out


def delta_L_margin(
    expr: HybridExpression,
    data: ClassicalData,
    phi_q: State,
    hbar: float,
    levels: Sequence[int],
) -> dict:
    """{L: DeltaMargin} for each distinct order L in ``levels`` of the
    sector expression ``expr`` at the quantum state ``phi_q``, with
    delta_L = sum_i |<phi|(dB^dag/dO_i)^L (dB/dO_i)^L|phi>|^(1/2L) * delta_i.

    Constants must already be substituted; classical symbols take their
    centers in ``data``, and ``phi_q``'s grids are the quantum grids.  Each
    derivative operator D is taken and compiled once; one chain of products
    D^L phi gives its weight at every order (:func:`power_weights`).
    Second-order derivative terms (the n=2 tail of the margin expansion)
    are evaluated and reported separately.  For observables whose classical
    derivatives are constant multiples of the identity the result is
    independent of L and of the state.
    """
    levels = tuple(dict.fromkeys(levels))
    centers = data.centers()
    unbound = expr.classical_symbols() - centers.keys()
    if unbound:
        raise AlgebraError(f"unbound classical symbol {min(unbound).name}")

    symbols = sorted(centers)
    first = dict.fromkeys(levels, 0.0)
    second = dict.fromkeys(levels, 0.0)
    for sym_i in symbols:
        deriv = partial_derivative(expr, sym_i)
        if deriv.is_zero:
            continue
        for L, w in power_weights(deriv, centers, phi_q, hbar, levels).items():
            first[L] += w * data.margin(sym_i)
        for sym_k in symbols:
            deriv2 = partial_derivative(deriv, sym_k)
            if not deriv2.is_zero:
                for L, w in power_weights(deriv2, centers, phi_q, hbar, levels).items():
                    second[L] += 0.5 * w * data.margin(sym_i) * data.margin(sym_k)
    return {L: DeltaMargin(first[L], second[L]) for L in levels}


def spread_Delta_L(delta_L: float, cfg: BoundConfig) -> float:
    """Delta_L = (delta_L + I_B) / (1-p)^(1/2L)."""
    return (delta_L + cfg.window(delta_L)) / (1.0 - cfg.p) ** (1.0 / (2 * cfg.L))


def leakage_constant(delta_L: float, cfg: BoundConfig) -> float:
    """(1-p) Delta_L / (2(2L-1) I_B): the spectral tail-leakage bound.

    Degenerate exact case: when the observable carries no classical error
    (delta_L = 0) and I_B is unset, I_B collapses with it, every xi state
    is a true eigenstate and the leakage vanishes identically.
    """
    i_b = cfg.window(delta_L)
    if i_b == 0:
        return 0.0
    delta = spread_Delta_L(delta_L, cfg)
    return (1.0 - cfg.p) * delta / (2.0 * (2 * cfg.L - 1) * i_b)


# --------------------------------------------------------------------------
# the sandwich bound


@dataclass(frozen=True)
class PredictionBound:
    """Interval probabilities with explicit imprecision (the sandwich):
    one row of the half-quantum prediction, I0 = [a0 - D, a0 + D]."""

    a0: float
    width_multiplier: float
    D: float
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
    leakage: float  # leakage_constant that Emin and Emax are built from

    @property
    def lower(self) -> float:
        return self.Pmin - self.Emin

    @property
    def upper(self) -> float:
        return self.Pmax + self.Emax

    @property
    def lower_clamped(self) -> float:
        return _clamp01(self.lower)

    @property
    def upper_clamped(self) -> float:
        return _clamp01(self.upper)

    def to_json_dict(self) -> dict:
        return {
            "a0": self.a0,
            "width_multiplier": self.width_multiplier,
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
    eigenvalues: np.ndarray,
    masses: np.ndarray,
    cfg: BoundConfig,
    a0: float,
    width_multiplier: float,
    margin: DeltaMargin,
) -> PredictionBound:
    """Sandwich bound for P(a in I0), I0 = [a0-D, a0+D], from the
    half-quantum operator alone.

    ``eigenvalues`` is the spectrum of the observable's sector operator B,
    ``masses`` the spectral masses of phi^Q on it, and ``margin`` B's
    order-``cfg.L`` margin at phi^Q.  D is ``width_multiplier`` times
    Delta_L, or the multiplier itself when Delta_L vanishes (no classical
    blur); D must exceed Delta_L, so a multiplier <= 1 is refused when
    Delta_L > 0.
    """
    delta = margin.total
    big_delta = spread_Delta_L(delta, cfg)
    # Delta_L = 0 is the exact quantum sector: no blur, xi states are eigenstates
    if big_delta > 0 and width_multiplier <= 1:
        raise ValueError(
            f"width multiplier {width_multiplier:g} must exceed 1 (D > Delta_L={big_delta:.6g})"
        )
    D = width_multiplier * big_delta if big_delta > 0 else width_multiplier
    imin = (a0 - (D - big_delta), a0 + (D - big_delta))
    imax = (a0 - (D + big_delta), a0 + (D + big_delta))
    pmin = interval_mass(eigenvalues, masses, imin)
    pmax = interval_mass(eigenvalues, masses, imax)
    leak = leakage_constant(delta, cfg)
    # probabilities inside the error terms clamped against grid blur
    emin = 2.0 * math.sqrt(_clamp01(1.0 - pmin)) * math.sqrt(leak) + leak
    emax = 2.0 * math.sqrt(_clamp01(pmax)) * math.sqrt(leak) + leak
    return PredictionBound(
        a0=a0,
        width_multiplier=width_multiplier,
        D=D,
        I0=(a0 - D, a0 + D),
        Imin=imin,
        Imax=imax,
        delta_L=delta,
        Delta_L=big_delta,
        L=cfg.L,
        p=cfg.p,
        I_B=cfg.window(delta),
        Pmin=pmin,
        Pmax=pmax,
        Emin=emin,
        Emax=emax,
        leakage=leak,
    )


def worst_case_errors(cfg: BoundConfig) -> dict:
    """The sandwich-error constants with both probability factors at one.

    With I_B unset (I_B = delta_L) and delta_L = 1, :func:`leakage_constant`
    is (1-p)^((2L-1)/2L) / (2L-1) and the interval widening
    :func:`spread_Delta_L` is 2/(1-p)^(1/2L), in units of delta_L.
    """
    leak = leakage_constant(1.0, cfg)
    coefficient = 2.0 * math.sqrt(leak)
    return {
        "L": cfg.L,
        "p": cfg.p,
        "leakage": leak,
        "error_coefficient": coefficient,
        "worst_error": coefficient + leak,
        "widening_over_delta": spread_Delta_L(1.0, cfg),
    }


# --------------------------------------------------------------------------
# verification-mode checks against the full quantum oracle


def leakage_sectors(
    decomp: SpectralDecomp,
    amplitudes: np.ndarray,
    I_B: float,
    Imax: tuple,
    Imin: tuple,
) -> np.ndarray:
    """Columns P_S phi^Q of an (N, 2) array whose evolved masses are a
    sandwich row's leakage: X1 is column 0's mass in I0, S the windows
    centred outside ``Imax``; X2 is column 1's mass outside I0, S the
    windows centred inside ``Imin``.

    Windows of width 2 I_B step from the minimum of the spectrum ``decomp``
    of the sector operator B; ``amplitudes`` are phi^Q's projections on
    its eigenbasis (:meth:`SpectralDecomp.amplitudes`).  With
    xi_u = P_u phi / |P_u phi| the paper's xi states,
    sum_{u in S} <xi_u|phi> xi_u = P_S phi.  For certified classical factors
    X1 <= leakage_constant is the testable content of the sandwich
    derivation.
    """
    if I_B <= 0:
        raise ValueError("I_B must be positive")
    lo = float(decomp.eigenvalues[0])
    bins = np.floor((decomp.eigenvalues - lo) / (2.0 * I_B))
    centers = lo + (2 * bins + 1) * I_B
    kept = np.stack([~interval_mask(centers, Imax), interval_mask(centers, Imin)], axis=1)
    return decomp.eigenvectors @ np.where(kept, amplitudes[:, None], 0.0)
