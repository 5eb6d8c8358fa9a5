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
class DualPlan:
    """The backward march of one coefficient field, counted before any
    substep runs."""
    states: np.ndarray       # (N, J), C-contiguous end states of the intervals
    flux: object
    substeps: np.ndarray     # m per interval, the kernels' `long`
    dt: np.ndarray           # substep length per interval
    source: np.ndarray       # -psi' at the J cell centres


class DualGradientTrajectory:
    """The dual gradient w of a partition, one sample per interval.

    `solve_dual_gradient` gives its march plan and no sample:
    `estimator.assemble_breakdown` reduces each one in the backward sweep
    that takes it, and the first read of `w_samples` runs the same sweep
    to store them, (N, J).  Built from stored samples instead, the dual
    has no plan and its samples are read as given.
    """

    def __init__(self, grid: SpatialGrid, partition: TimePartition,
                 w_samples: Optional[np.ndarray] = None,
                 substep_log: Optional[list] = None,
                 max_mass_residual: Optional[float] = None,
                 plan: Optional[DualPlan] = None):
        if (w_samples is None) == (plan is None):
            raise ValueError("a dual holds either its samples or its march plan")
        self.grid, self.partition, self.plan = grid, partition, plan
        self.stored = w_samples
        self.substep_log, self.max_mass_residual = substep_log, max_mass_residual

    @property
    def shape(self) -> tuple:
        """(N, J) of the samples, stored or planned."""
        return self.plan.states.shape if self.stored is None else np.shape(self.stored)

    @property
    def w_samples(self) -> np.ndarray:
        """(N, J), stored on the first read."""
        if self.stored is None:
            samples = np.empty(self.shape)
            sweep(self, samples=samples)
            self.stored = samples
        return self.stored


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
    states and the flux.  Only the plan is made here: the substeps run in
    `sweep`, inside the breakdown or on the first read of `w_samples`.
    With `record_substeps` the march runs at once and stores the samples,
    and also returns each substep's relative mass-balance residual,
    logged as (interval, dt, residual) in march order.
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
    bad = _core.lib().dual_substeps(N, J, h, dual_cfl, ptr(k), ptr(U), kind, a,
                                    ptr(m_all, _core.LONG), ptr(dt_all))
    if 0 <= bad < N:
        raise SolverFailure(f"dual march: non-finite coefficient in interval {bad}")
    if bad < 0:
        raise SolverFailure(f"dual march: interval {-1 - bad} needs more substeps "
                            f"than a long counts (k max|f'| / (dual_cfl h) too "
                            f"large at dual_cfl = {dual_cfl!r})")
    source = -_cells(case.weight_gradient(grid.centers), J)
    dual = DualGradientTrajectory(grid, part, plan=DualPlan(
        states=U, flux=coeff.flux, substeps=m_all, dt=dt_all, source=source))
    if record_substeps:
        # per-substep mass-balance residuals, in march order (last interval
        # first), from the march that stores the samples
        mass = np.empty(int(m_all.sum()))
        samples = np.empty((N, J))
        sweep(dual, samples=samples, mass=mass)
        order = np.arange(N - 1, -1, -1)
        dual.stored = samples
        dual.substep_log = list(zip(np.repeat(order, m_all[order]).tolist(),
                                    np.repeat(dt_all[order], m_all[order]).tolist(),
                                    mass.tolist()))
        dual.max_mass_residual = float(mass.max()) if mass.size else 0.0
    return dual


def sweep(dual: DualGradientTrajectory, samples=None, mass=None,
          breakdown=None) -> None:
    """The compiled backward sweep `march_dual` over `dual`'s intervals,
    the last first.

    With a plan, the march runs from w(., T) = 0, and each interval's
    sample (its substep (m + 1) / 2) goes to `samples` (N, J) when given;
    `mass` receives each substep's relative mass-balance residual.  Once
    the samples are stored the march is skipped and they are read.
    `breakdown` = (traj, psi, out) reduces each interval, as soon as its
    sample exists, to the four sums `estimator.assemble_breakdown` reads
    in `out` (4, N), from the trajectory's states, inflow and modes and
    `psi` at the cell centres.  The sweep takes one flux, the plan's when
    it marches: the caller sees that it is the trajectory's.
    """
    N, J = dual.shape
    h = dual.grid.h
    plan = dual.plan
    # every array the kernel reads stays bound here until it returns
    if dual.stored is not None:
        kind, a = _flux_code(breakdown[0].flux)
        samples = np.ascontiguousarray(dual.stored, dtype=float)
        c, march = None, (None, None, None, 0.0, None)
    else:
        kind, a = _flux_code(plan.flux)
        w_ext = np.zeros(J + 2)   # w between zero ghost values
        c = ptr(plan.states)
        march = (ptr(plan.substeps, _core.LONG), ptr(plan.dt), ptr(plan.source),
                 h * float(np.sum(plan.source)), ptr(w_ext))
    reduce = (None,) * 6
    if breakdown is not None:
        traj, psi, out = breakdown
        u, g = (np.ascontiguousarray(x, dtype=float) for x in (traj.states, traj.g))
        k, modes = traj.partition.steps, traj.partition.modes
        reduce = (ptr(u), ptr(k), ptr(modes, np.int8), ptr(g), ptr(psi), ptr(out))
    done = _core.lib().march_dual(
        N, J, h, c, kind, a, *march,
        None if samples is None else ptr(samples),
        None if mass is None else ptr(mass), *reduce)
    if done < 0:
        raise MemoryError("dual march could not allocate its work buffers")
    if done < N:
        raise SolverFailure(f"dual march non-finite in interval {N - 1 - done}")
