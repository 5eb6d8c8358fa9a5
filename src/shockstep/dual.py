"""Adjoint gradient solver.

The derivative w of the adjoint solution satisfies a linear conservation
law with the frozen transport coefficient a(x,t); it is marched backward
in time with the same finite-volume machinery as the forward problem.
Substituting tau = T - t turns the backward march into a forward one for
d/dtau w - d/dx (a w) = -psi', integrated explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _core
from ._core import ptr
from .forward import ForwardTrajectory, SolverFailure, _flux_code
from .grid import SpatialGrid, TimePartition

DUAL_CFL = 0.8


@dataclass
class CoefficientField:
    """The frozen coefficient a = f'(u^{n+1}) of each interval, as the end
    states and the flux from which the compiled core forms it."""
    grid: SpatialGrid
    partition: TimePartition
    states: np.ndarray  # (N, J), u^{n+1} of interval n
    flux: object


@dataclass
class DualGradientTrajectory:
    grid: SpatialGrid
    partition: TimePartition
    w_samples: np.ndarray  # (N, J), one sampled profile per interval
    substep_log: Optional[list] = None
    max_mass_residual: Optional[float] = None


def _cells(values, n: int) -> np.ndarray:
    """`values` as n contiguous floats; a scalar broadcasts, as in numpy
    arithmetic."""
    return np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=float), (n,)))


def build_coefficient_field(traj: ForwardTrajectory) -> CoefficientField:
    """Linearization coefficient a_j^n = f'(u_j^{n+1}), end-of-interval
    state, kept as a view of the trajectory's states and its flux.

    The end state is the one defining an implicit step's fluxes, and the
    piecewise-constant-in-time freezing matches the solution representation.
    """
    return CoefficientField(grid=traj.grid, partition=traj.partition,
                            states=traj.states[1:], flux=traj.flux)


def solve_dual_gradient(coeff: CoefficientField, case,
                        dual_cfl: float = DUAL_CFL,
                        record_substeps: bool = False) -> DualGradientTrajectory:
    """Explicit backward march from w(., T) = 0.

    Within each forward interval the coefficient is frozen and sub-steps of
    size delta_tau <= dual_cfl * h / max|a| are taken (adaptive forward
    steps can sit at CFL of several hundred, far too coarse for an explicit
    transport solve): max(ceil(k max|a| / (dual_cfl h) - 1e-12), 1) of
    them, counted for every interval before any runs.  w_j^n is the
    sub-step profile nearest the interval midpoint; spatial boundaries use
    zero ghost values, the coefficient is extended by its edge cells.  The
    compiled core forms the coefficient a = f'(u^{n+1}) from the end
    states and the flux and runs the substeps in one call; with
    `record_substeps` the same march also returns each substep's relative
    mass-balance residual, logged as (interval, dt, residual) in march
    order.
    """
    if not (0.0 < dual_cfl <= 1.0):
        raise ValueError("need 0 < dual_cfl <= 1")
    grid = coeff.grid
    part = coeff.partition
    h = grid.h
    J = grid.cell_count
    N = part.interval_count
    U = np.ascontiguousarray(coeff.states, dtype=float)
    if U.shape != (N, J):
        raise ValueError(f"end states of shape {U.shape}, need {(N, J)}")
    kind, a = _flux_code(coeff.flux)
    # substep counts and sizes of all intervals, before any substep runs;
    # a_max = 0 gives m = 1
    k = part.steps
    m_all, dt_all = np.empty(N, _core.LONG), np.empty(N)
    core = _core.lib()
    bad = core.dual_substeps(N, J, h, dual_cfl, ptr(k), ptr(U), kind, a,
                             ptr(m_all, _core.LONG), ptr(dt_all))
    if bad < N:
        raise SolverFailure(f"dual march: non-finite coefficient in interval {bad}")
    source = -_cells(case.weight_gradient(grid.centers), J)
    source_total = h * float(np.sum(source))
    w_ext = np.zeros(J + 2)   # w between zero ghost values
    samples = np.empty((N, J))
    # per-substep mass-balance residuals, in march order (last interval first)
    mass = np.empty(int(m_all.sum())) if record_substeps else None
    done = core.march_dual(N, J, h, ptr(U), kind, a, ptr(m_all, _core.LONG),
                           ptr(dt_all), ptr(source), source_total, ptr(w_ext),
                           ptr(samples), None if mass is None else ptr(mass))
    if done < 0:
        raise MemoryError("dual march could not allocate its work buffers")
    if done < N:
        raise SolverFailure(f"dual march non-finite in interval {N - 1 - done}")
    log, max_resid = None, None
    if record_substeps:
        order = np.arange(N - 1, -1, -1)
        log = list(zip(np.repeat(order, m_all[order]).tolist(),
                       np.repeat(dt_all[order], m_all[order]).tolist(),
                       mass.tolist()))
        max_resid = float(mass.max()) if mass.size else 0.0
    return DualGradientTrajectory(grid=grid, partition=part, w_samples=samples,
                                  substep_log=log, max_mass_residual=max_resid)
