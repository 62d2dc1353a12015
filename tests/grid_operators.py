"""Q and P on one grid, compiled from the one-DOF expressions Q1 and P1."""

from halfq.algebra import System
from halfq.hilbert import Grid, compile_expression


def position_operator(grid: Grid):
    return compile_expression(System(0, 1).Q(1), {}, (grid,), 1.0)


def momentum_operator(grid: Grid, hbar: float):
    """Spectral-derivative momentum; periodic convention.

    [q, p] = i*hbar*I holds on states negligible at the grid edges (the
    commutator picks up aliasing corrections in the outermost cells).
    """
    return compile_expression(System(0, 1).P(1), {}, (grid,), hbar)
