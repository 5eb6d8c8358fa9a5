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

from .forward import ForwardTrajectory, SolverFailure, _finite
from .grid import SpatialGrid, TimePartition

DUAL_CFL = 0.8
# intervals whose coefficient-dependent inputs are built in one call
_BLOCK_ROWS = 256


@dataclass
class CoefficientField:
    grid: SpatialGrid
    partition: TimePartition
    a_values: np.ndarray  # (N, J), frozen per interval


@dataclass
class DualGradientTrajectory:
    grid: SpatialGrid
    partition: TimePartition
    w_samples: np.ndarray  # (N, J), one sampled profile per interval
    substep_log: Optional[list] = None
    max_mass_residual: Optional[float] = None


def build_coefficient_field(traj: ForwardTrajectory) -> CoefficientField:
    """Linearization coefficient a_j^n = f'(u_j^n), end-of-interval state.

    The end state is the one defining an implicit step's fluxes, and the
    piecewise-constant-in-time freezing matches the solution representation.
    The values are not copied: for Burgers, f'(u) = u, they are a view of
    the trajectory's states, so they are marked read-only.
    """
    a = traj.flux.fprime(traj.states[1:])
    a.flags.writeable = False
    return CoefficientField(grid=traj.grid, partition=traj.partition,
                            a_values=a)


def solve_dual_gradient(coeff: CoefficientField, case,
                        dual_cfl: float = DUAL_CFL,
                        record_substeps: bool = False) -> DualGradientTrajectory:
    """Explicit backward march from w(., T) = 0.

    Within each forward interval the coefficient is frozen and sub-steps of
    size delta_tau <= dual_cfl * h / max|a| are taken (adaptive forward
    steps can sit at CFL of several hundred, far too coarse for an explicit
    transport solve).  w_j^n is the sub-step profile nearest the interval
    midpoint; spatial boundaries use zero ghost values, the coefficient is
    extended by its edge cells.
    """
    if not (0.0 < dual_cfl <= 1.0):
        raise ValueError("need 0 < dual_cfl <= 1")
    grid = coeff.grid
    part = coeff.partition
    h = grid.h
    J = grid.cell_count
    N = part.interval_count
    A = coeff.a_values
    # substep counts and sizes of all intervals; a_max = 0 gives m = 1
    k = part.steps
    a_max = np.maximum(A.max(axis=1), -A.min(axis=1))
    m_all = np.maximum(np.ceil(k * a_max / (dual_cfl * h) - 1e-12), 1.0)
    dt_all = k / m_all
    source = -np.asarray(case.weight_gradient(grid.centers), dtype=float)
    source_total = h * float(np.sum(source))
    w_ext = np.zeros(J + 2)   # zero ghost values around the state w
    w, w_right, w_left = w_ext[1:-1], w_ext[1:], w_ext[:-1]
    S, tmp = np.empty(J + 1), np.empty(J + 1)
    S_hi, S_lo = S[1:], S[:-1]
    dw = np.empty(J)
    samples = np.empty((N, J))
    log: Optional[list] = [] if record_substeps else None
    max_resid = 0.0
    for hi in range(N, 0, -_BLOCK_ROWS):
        lo = max(hi - _BLOCK_ROWS, 0)
        # per-interval inputs of the block, one vectorized call each; row i
        # holds what the unblocked march built for interval lo + i
        a_ext = np.empty((hi - lo, J + 2))
        a_ext[:, 1:-1] = A[lo:hi]
        a_ext[:, 0], a_ext[:, -1] = A[lo:hi, 0], A[lo:hi, -1]
        ap = np.add(a_ext[:, :-1], a_ext[:, 1:])
        ap *= 0.5                # a at the interfaces
        am = np.minimum(ap, 0.0)
        np.maximum(ap, 0.0, out=ap)
        dt_blk = dt_all[lo:hi]
        dt_source = dt_blk[:, None] * source
        lam_blk = (dt_blk / h).tolist()
        m_blk = m_all[lo:hi].astype(int).tolist()
        dt_list = dt_blk.tolist()
        for i in range(hi - lo - 1, -1, -1):
            n = lo + i
            m, dt, lam = m_blk[i], dt_list[i], lam_blk[i]
            ap_n, am_n, src_n = ap[i], am[i], dt_source[i]
            sample_at = (m + 1) // 2
            for step in range(1, m + 1):
                # S = -G with the upwind flux G = -(ap w_right + am w_left), so
                # w - lam (G[1:] - G[:-1]) is w + lam (S[1:] - S[:-1]), bit for bit
                np.multiply(ap_n, w_right, out=S)
                np.multiply(am_n, w_left, out=tmp)
                S += tmp
                np.subtract(S_hi, S_lo, out=dw)
                dw *= lam
                if record_substeps:
                    w_prev = w.copy()
                w += dw
                w += src_n
                if record_substeps:
                    # telescoping mass balance of the conservative update
                    G0, GJ = -float(S[0]), -float(S[-1])
                    resid = abs(h * float(np.sum(w - w_prev))
                                + dt * (GJ - G0) - dt * source_total)
                    scale = (h * float(np.sum(np.abs(w))) + abs(dt * source_total)
                             + dt * (abs(G0) + abs(GJ)) + 1e-300)
                    rel = resid / scale
                    max_resid = max(max_resid, rel)
                    log.append((n, dt, rel))
                if step == sample_at:
                    samples[n] = w
            if not _finite(w):
                raise SolverFailure(f"dual march non-finite in interval {n}")
    return DualGradientTrajectory(grid=grid, partition=part, w_samples=samples,
                                  substep_log=log,
                                  max_mass_residual=max_resid if record_substeps else None)
