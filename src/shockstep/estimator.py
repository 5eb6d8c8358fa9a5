"""Target functional and space-time error breakdown.

The error in the functional splits into a time part eta_k (driven by the
jump of the solution across time levels) and a space part eta_h (driven by
the interface-flux imbalance), each weighted by the adjoint gradient.  The
closed forms below are the exact reductions of the prism-residual integrals
for piecewise-constant solution, weight and adjoint samples; the omitted
cross terms vanish identically in that representation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forward
from .dual import CoefficientField, DualGradientTrajectory
from .forward import ForwardTrajectory
from .grid import EXPLICIT, build_spatial_grid

REF_LEVEL = 6
# intervals per block of the breakdown and of the reference march: their
# cell terms, fluxes or states are the only (rows, J) temporaries, so
# memory stays O(_BLOCK_ROWS * J)
_BLOCK_ROWS = 256
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

# (type(case), perturbation_scale, ref_level, base_cells, cfl) -> J_ref
_ref_cache: dict = {}


@dataclass
class ErrorBreakdown:
    eta_k_bar_n: np.ndarray   # per-interval densities, (1/k_n) * sum_j |.|
    eta_h_bar_n: np.ndarray
    eta_k_bar: float
    eta_h_bar: float
    eta_bar: float
    eta_k: float              # signed sums, over each interval first
    eta_h: float
    J_h: float


def weight_cell_integrals(grid, case) -> np.ndarray:
    """W_j = integral of the weight over cell j, 5-point Gauss per cell."""
    mid = grid.centers
    acc = np.zeros(grid.cell_count)
    for q in range(_GAUSS_X.size):
        acc += _GAUSS_W[q] * case.weight(mid + 0.5 * grid.h * _GAUSS_X[q])
    return 0.5 * grid.h * acc


def evaluate_functional(traj: ForwardTrajectory, case) -> float:
    """J_h = sum_n k_n sum_j u_j^n W_j with the end-of-interval state."""
    W = weight_cell_integrals(traj.grid, case)
    k = traj.partition.steps
    return float(np.sum(k * (traj.states[1:] @ W)))


def _cell_terms(traj: ForwardTrajectory, coeff: CoefficientField,
                dual: DualGradientTrajectory, case, lo: int, hi: int):
    """The signed cell contributions (eta_k, eta_h) of intervals lo..hi-1,
    each (hi - lo, J).

    Time term: -(1/2) k h (u^{n+1} - u^n) (psi - a w).  Space term:
    (1/2) k h w (F_{j+1/2} + F_{j-1/2} - 2 f(u^{n+1})) with the fluxes the
    update used.
    """
    k = traj.partition.steps[lo:hi, None]
    h = traj.grid.h
    psi_c = case.weight(traj.grid.centers)[None, :]
    u0, u1 = traj.states[lo:hi], traj.states[lo + 1:hi + 1]
    W = dual.w_samples[lo:hi]
    eta_k = -0.5 * k * h * (u1 - u0) * (psi_c - coeff.a_values[lo:hi] * W)
    F = forward.update_fluxes(traj, case, slice(lo, hi))
    eta_h = k * 0.5 * h * W * (F[:, 1:] + F[:, :-1] - 2.0 * traj.flux.f(u1))
    return eta_k, eta_h


def assemble_breakdown(traj: ForwardTrajectory, coeff: CoefficientField,
                       dual: DualGradientTrajectory, case) -> ErrorBreakdown:
    """Densities and totals of the space-time split, reduced block by
    block: only _BLOCK_ROWS intervals' cell terms exist at a time.  Every
    field is a per-row reduction or a sum over rows, so it does not
    depend on the block size."""
    grid = traj.grid
    part = traj.partition
    N = part.interval_count
    if coeff.a_values.shape != dual.w_samples.shape or \
            coeff.a_values.shape != (N, grid.cell_count):
        raise ValueError("trajectory, coefficients and dual samples disagree in shape")
    abs_k, abs_h = np.empty(N), np.empty(N)
    signed_k, signed_h = np.empty(N), np.empty(N)
    for lo in range(0, N, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, N)
        eta_k, eta_h = _cell_terms(traj, coeff, dual, case, lo, hi)
        np.sum(eta_k, axis=1, out=signed_k[lo:hi])
        np.sum(eta_h, axis=1, out=signed_h[lo:hi])
        np.sum(np.abs(eta_k, out=eta_k), axis=1, out=abs_k[lo:hi])
        np.sum(np.abs(eta_h, out=eta_h), axis=1, out=abs_h[lo:hi])
    k = part.steps
    eta_k_bar_n = abs_k / k
    eta_h_bar_n = abs_h / k
    eta_k_bar = float(np.sum(k * eta_k_bar_n))
    eta_h_bar = float(np.sum(k * eta_h_bar_n))
    return ErrorBreakdown(
        eta_k_bar_n=eta_k_bar_n,
        eta_h_bar_n=eta_h_bar_n,
        eta_k_bar=eta_k_bar,
        eta_h_bar=eta_h_bar,
        eta_bar=eta_k_bar + eta_h_bar,
        eta_k=float(np.sum(signed_k)),
        eta_h=float(np.sum(signed_h)),
        J_h=evaluate_functional(traj, case),
    )


def efficiency_index(breakdown: ErrorBreakdown, J_ref: float) -> float:
    """theta = (eta_h + eta_k) / (J_ref - J_h), signed sums throughout.

    Returns nan when the reference and computed functional are numerically
    indistinguishable; a ratio against noise carries no information.
    """
    denom = J_ref - breakdown.J_h
    if abs(denom) < 1e-14:
        return float("nan")
    return (breakdown.eta_h + breakdown.eta_k) / denom


def reference_functional(case, ref_level: int = REF_LEVEL,
                         base_cells: int = 20, cfl: float = 0.8) -> float:
    """Functional value from a fine uniform explicit run.

    Memoized by value, (type(case), perturbation_scale, ref_level,
    base_cells, cfl), so equal cases share one run and a changed scale gets
    a fresh one.  Cases without a `perturbation_scale` are not memoized.
    The run is streamed through one (_BLOCK_ROWS + 1, J) buffer: the
    compiled march fills a block of states, each row's `row @ W` (one
    BLAS ddot; a block gemv would round differently) is weighted by k_n
    and added in step order, and the block's last state starts the next
    block.
    """
    scale = getattr(case, "perturbation_scale", None)
    key = (type(case), scale, ref_level, base_cells, cfl)
    if scale is not None and key in _ref_cache:
        return _ref_cache[key]
    grid = build_spatial_grid(base_cells, ref_level, case.domain)
    part = forward.uniform_cfl_partition(case, grid, cfl)
    W = weight_cell_integrals(grid, case)
    g_at = np.atleast_1d(np.asarray(case.inflow_value(part.times), dtype=float))
    k = part.steps
    N = part.interval_count
    buf = np.empty((min(_BLOCK_ROWS, N) + 1, grid.cell_count))
    buf[0] = case.initial_cell_averages(grid.edges)
    acc = 0.0
    for lo in range(0, N, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, N)
        rows = buf[:hi - lo + 1]
        _, err = forward.march(rows, k[lo:hi], g_at[lo:hi], grid.h, case.flux,
                               EXPLICIT)
        if err is not None:
            raise err
        for k_n, row in zip(k[lo:hi].tolist(), rows[1:]):
            acc += k_n * float(row @ W)
        buf[0] = rows[-1]
    if scale is not None:
        _ref_cache[key] = acc
    return acc
