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

from .forward import ForwardTrajectory, SolverFailure
from .grid import SpatialGrid, TimePartition

DUAL_CFL = 0.8


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
    """
    a = traj.flux.fprime(traj.states[1:])
    return CoefficientField(grid=traj.grid, partition=traj.partition,
                            a_values=np.array(a, dtype=float))


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
    times = part.times
    source = -np.asarray(case.weight_gradient(grid.centers), dtype=float)
    source_total = h * float(np.sum(source))
    w = np.zeros(J)
    w_ext = np.zeros(J + 2)
    samples = np.empty((N, J))
    log: Optional[list] = [] if record_substeps else None
    max_resid = 0.0
    for n in range(N - 1, -1, -1):
        a = coeff.a_values[n]
        a_max = float(np.max(np.abs(a)))
        k_n = float(times[n + 1] - times[n])
        if a_max == 0.0:
            m = 1
        else:
            m = max(1, int(np.ceil(k_n * a_max / (dual_cfl * h) - 1e-12)))
        dt = k_n / m
        a_ext = np.concatenate((a[:1], a, a[-1:]))
        a_half = 0.5 * (a_ext[:-1] + a_ext[1:])
        ap = np.maximum(a_half, 0.0)
        am = np.minimum(a_half, 0.0)
        sample_at = (m + 1) // 2
        for i in range(1, m + 1):
            w_ext[1:-1] = w
            G = -(ap * w_ext[1:] + am * w_ext[:-1])
            w_new = w - (dt / h) * (G[1:] - G[:-1]) + dt * source
            if record_substeps:
                # telescoping mass balance of the conservative update
                resid = abs(h * float(np.sum(w_new - w))
                            + dt * (G[-1] - G[0]) - dt * source_total)
                scale = (h * float(np.sum(np.abs(w_new))) + abs(dt * source_total)
                         + dt * (abs(G[0]) + abs(G[-1])) + 1e-300)
                rel = resid / scale
                max_resid = max(max_resid, rel)
                log.append((n, dt, rel))
            w = w_new
            if i == sample_at:
                samples[n] = w
        if not np.all(np.isfinite(w)):
            raise SolverFailure(f"dual march non-finite in interval {n}")
    return DualGradientTrajectory(grid=grid, partition=part, w_samples=samples,
                                  substep_log=log,
                                  max_mass_residual=max_resid if record_substeps else None)
