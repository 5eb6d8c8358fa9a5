"""Adjoint gradient solver.

The derivative w of the adjoint solution satisfies a linear conservation
law with the frozen transport coefficient a(x,t) = f'(u^{n+1}); it is
marched backward in time with the same finite-volume machinery as the
forward problem, from the forward run it linearizes and nothing else.
Substituting tau = T - t turns the backward march into a forward one for
d/dtau w - d/dx (a w) = -psi', integrated explicitly.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import _core
from ._core import ptr
from .forward import BLOCK, ForwardTrajectory, SolverFailure, _flux_code

DUAL_CFL = 0.8
# the most substeps one interval may take, as a double: every count up to
# it is a whole double and a `long`, with room to sum them
_MOST = float(np.iinfo(_core.LONG).max // 2)


class DualGradientTrajectory:
    """The dual gradient w of a forward run, one sample per interval, held
    as its march plan: the run `traj` it linearizes, each interval's
    substep count m and the source -psi' at the J cell centres, counted
    before any substep runs.  A substep of interval n is k_n / m_n long,
    formed from the run's steps where it runs.  No sample is kept:
    `estimator.assemble_breakdown` reduces each one in the backward sweep
    that takes it (`sweep`), which reads the end states u^{n+1} from the
    run, block by block.
    """

    def __init__(self, traj: ForwardTrajectory, substeps: np.ndarray,
                 source: np.ndarray, substep_log: Optional[list] = None,
                 max_mass_residual: Optional[float] = None):
        # m per interval (the kernels' `long`) and -psi'
        self.traj, self.substeps, self.source = traj, substeps, source
        self.substep_log, self.max_mass_residual = substep_log, max_mass_residual

    @property
    def shape(self) -> tuple:
        """(N, J) of the samples."""
        return self.traj.partition.interval_count, self.traj.grid.cell_count


def _cells(values, n: int) -> np.ndarray:
    """`values` as n contiguous floats; a scalar broadcasts, as in numpy
    arithmetic."""
    return np.ascontiguousarray(np.broadcast_to(np.asarray(values, dtype=float), (n,)))


def build_coefficient_field(traj: ForwardTrajectory) -> ForwardTrajectory:
    """The run itself: the dual's coefficient a = f'(u^{n+1}) is formed
    from its end states and flux in the sweep."""
    return traj


def solve_dual_gradient(coeff: ForwardTrajectory, case,
                        dual_cfl: float = DUAL_CFL,
                        record_substeps: bool = False) -> DualGradientTrajectory:
    """Explicit backward march from w(., T) = 0 over the forward run
    `coeff`.

    Within each forward interval the coefficient is frozen and sub-steps of
    size delta_tau <= dual_cfl * h / max|a| are taken (adaptive forward
    steps can sit at CFL of several hundred, far too coarse for an explicit
    transport solve): max(ceil(k max|a| / (dual_cfl h) - 1e-12), 1) of
    them, counted for every interval before any runs.  w_j^n is the
    sub-step profile nearest the interval midpoint; spatial boundaries use
    zero ghost values, the coefficient is extended by its edge cells.  The
    compiled core forms the coefficient a = f'(u^{n+1}) from the run's end
    states and flux (the end state defines an implicit step's fluxes, and
    freezing it per interval matches the piecewise-constant solution); the
    counts, taken here in numpy, read each end state's max|a| only, the
    run's row reduction `coeff_speeds` (`coeff.reduced`); the first
    interval whose max|a| is not finite or whose count does not fit a
    `long` is refused.  Only the plan is made here: the substeps run in
    `sweep`, inside the breakdown.  With `record_substeps` the march runs
    once at once for each substep's relative mass-balance residual,
    logged as (interval, dt = k / m, residual) in march order; no sample
    is kept.
    """
    if not (0.0 < dual_cfl <= 1.0):
        raise ValueError("need 0 < dual_cfl <= 1")
    grid = coeff.grid
    k, a_max = coeff.partition.steps, coeff.reduced.coeff_speeds
    # the substep counts of all intervals, before any substep runs
    # (a_max = 0 gives m = 1); a NaN count, or one past _MOST, is refused
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.maximum(np.ceil((k * a_max) / (dual_cfl * grid.h) - 1e-12), 1.0)
        bad = np.flatnonzero(~np.isfinite(a_max) | ~(m <= _MOST))
    if bad.size:
        i = int(bad[0])
        if not math.isfinite(a_max[i]):
            raise SolverFailure(f"dual march: non-finite coefficient in interval {i}")
        raise SolverFailure(f"dual march: interval {i} needs more substeps "
                            f"than a long counts (k max|f'| / (dual_cfl h) too "
                            f"large at dual_cfl = {dual_cfl!r})")
    source = -_cells(case.weight_gradient(grid.centers), grid.cell_count)
    dual = DualGradientTrajectory(coeff, m.astype(_core.LONG), source)
    if record_substeps:
        # per-substep mass-balance residuals, in march order: last interval first
        mass = np.empty(int(dual.substeps.sum()))
        sweep(dual, mass=mass)
        order = np.arange(k.size - 1, -1, -1)
        reps = dual.substeps[order]
        dual.substep_log = list(zip(np.repeat(order, reps).tolist(),
                                    np.repeat(k[order] / reps, reps).tolist(),
                                    mass.tolist()))
        dual.max_mass_residual = float(mass.max()) if mass.size else 0.0
    return dual


def sweep(dual: DualGradientTrajectory, samples=None, mass=None,
          breakdown=None) -> None:
    """The compiled backward sweep `march_dual` over `dual`'s intervals,
    one call per block of `forward.BLOCK` intervals, the last block first.

    The march runs from w(., T) = 0, carried from block to block, and each
    interval's sample (its substep (m + 1) / 2) goes to `samples` (N, J)
    when given.  No stage of the pipeline asks for the samples; the tests
    read the dual's bits through them, as `oracles.w_samples` does for
    `test_core.py`'s `_same(w_samples(dual), samples)` checks against the
    numpy march, so `march_dual` keeps that output.  `mass` receives each
    substep's relative mass-balance residual, in march order.  `breakdown`
    = (psi, out) reduces each interval, as soon as its sample exists, to
    the four sums `estimator.assemble_breakdown` reads in `out` (N, 4),
    from the run's states, inflow and modes and `psi` at the cell centres.
    Each block's states are read once from `dual.traj`
    (`ForwardTrajectory.rows`, which rebuilds them from their checkpoint
    into one reused buffer): the march takes the end states rows[1:] and
    the run's steps k, the breakdown all of them, with the run's one flux.
    A run whose states, grid and inflow disagree in shape is refused.
    """
    traj = dual.traj
    N, J = dual.shape
    # the kernel trusts these lengths
    if traj.shape != (N + 1, J) or np.shape(traj.g) != (N + 1,):
        raise ValueError("trajectory states, grid and inflow disagree in shape")
    h = traj.grid.h
    kind, a = _flux_code(traj.flux)
    m, k = dual.substeps, traj.partition.steps
    src_total = h * float(np.sum(dual.source))
    # every array the kernel reads stays bound here until it returns
    buf = np.empty((min(BLOCK, N) + 1, J))
    w_ext = np.zeros(J + 2)   # w between zero ghost values
    # march order is the last interval first: the substeps of the
    # intervals from hi on come before a block that ends at hi
    if mass is not None:
        first = mass.size - np.concatenate(([0], np.cumsum(m)))
    reduce = (None,) * 4
    if breakdown is not None:
        psi, out = breakdown
        g = np.ascontiguousarray(traj.g, dtype=float)
        modes = traj.partition.modes
    core = _core.lib()
    for lo in reversed(range(0, N, BLOCK)):
        hi = min(lo + BLOCK, N)
        rows = traj.rows(lo, hi, buf)
        if breakdown is not None:
            reduce = (ptr(modes[lo:hi], np.int8), ptr(g[lo:hi + 1]),
                      ptr(psi), ptr(out[lo:hi]))
        done = core.march_dual(
            hi - lo, J, h, ptr(rows), kind, a, ptr(m[lo:hi], _core.LONG),
            ptr(k[lo:hi]), ptr(dual.source), src_total, ptr(w_ext),
            None if samples is None else ptr(samples[lo:hi]),
            None if mass is None else ptr(mass[first[hi]:]), *reduce)
        if done < 0:
            raise MemoryError("dual march could not allocate its work buffers")
        if done < hi - lo:
            raise SolverFailure(f"dual march non-finite in interval {hi - 1 - done}")
