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
from .dual import DualGradientTrajectory, _cells, sweep
from .forward import ForwardTrajectory
from .grid import build_spatial_grid, weight_cell_integrals

REF_LEVEL = 6
# bytes of states per block of the reference march: they are its only
# (rows, J) temporary, and a block this size stays in L2 between the
# march and its dots (102 rows at 1,280 cells); fewer rows per block
# would add more per-block call overhead than they save
_BLOCK_BYTES = 1 << 20


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


def evaluate_functional(traj: ForwardTrajectory, case) -> float:
    """J_h = sum_n k_n sum_j u_j^n W_j with the end-of-interval state, from
    the dots the forward march took block by block (`RowReductions`).  A
    case whose cell weights W differ from the ones the march took its
    dots with is refused."""
    red = traj.reduced
    if weight_cell_integrals(traj.grid, case).tobytes() != red.weights.tobytes():
        raise ValueError("the case's cell weights differ from the run's")
    return float(np.sum(traj.partition.steps * red.dots))


def assemble_breakdown(dual: DualGradientTrajectory, case) -> ErrorBreakdown:
    """Densities and totals of the space-time split of the run `dual.traj`.

    Time term of a cell: -(1/2) k h (u^{n+1} - u^n) (psi - a w) with
    a = f'(u^{n+1}).  Space term: (1/2) k h w (F_{j+1/2} + F_{j-1/2} -
    2 f(u^{n+1})) with the fluxes the update used, of state n and g(t_n)
    for an explicit step, of state n+1 and g(t_{n+1}) for an implicit
    one, as the march took them from `traj.g`.  The compiled core forms
    a, the fluxes and both terms row by row from the states and reduces
    each row to its signed and absolute sums, so no (N, J) term array
    exists; every field is a per-row reduction or a sum over rows.  The
    dual is marched over the run it was planned on in the same backward
    sweep (`dual.sweep`), each interval reduced as soon as its sample
    exists.  The sweep reads each block's states once, rebuilt from
    their checkpoint just before the block runs, for the march and the
    reduction: no (N, J) array exists.
    """
    traj = dual.traj
    grid = traj.grid
    N, J = dual.shape
    k = traj.partition.steps
    psi = _cells(case.weight(grid.centers), J)
    sums = np.empty((N, 4))
    sweep(dual, breakdown=(psi, sums))
    signed_k, abs_k, signed_h, abs_h = np.ascontiguousarray(sums.T)
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

    The run is streamed through `forward.march_blocks` in blocks of B
    states, about _BLOCK_BYTES: one `np.matmul` of each block as
    (B, 1, J) @ (J, 1) takes each row's `row @ W` through the same BLAS
    ddot as `row @ W` itself (a block gemv would round differently).  One
    `np.add.accumulate` adds the k_n-weighted dots in order.
    """
    grid = build_spatial_grid(base_cells, ref_level, case.domain)
    part = forward.uniform_cfl_partition(case, grid, cfl)
    W = weight_cell_integrals(grid, case)
    g_at = np.atleast_1d(np.asarray(case.inflow_value(part.times), dtype=float))
    block = max(1, _BLOCK_BYTES // (8 * grid.cell_count))
    terms = np.zeros(part.interval_count + 1)     # 0.0, then the dots
    for lo, rows in forward.march_blocks(case.initial_cell_averages(grid.edges),
                                         part, g_at, grid.h, case.flux, block):
        terms[lo + 1:lo + len(rows)] = np.matmul(rows[1:, None, :], W[:, None])[:, 0, 0]
    terms[1:] *= part.steps
    return float(np.add.accumulate(terms)[-1])
