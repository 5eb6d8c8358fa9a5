"""First-order finite-volume forward solver.

Piecewise-constant cells with Euler stepping in time, upwind flux splitting
at interfaces.  The left boundary is supersonic inflow fed by prescribed
data, the right boundary pure upwind outflow.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .grid import EXPLICIT, IMPLICIT, SpatialGrid, TimePartition

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class SolverFailure(RuntimeError):
    """Forward or dual march produced garbage or could not proceed."""


class NonConvergence(SolverFailure):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"Newton stalled after {iterations} iterations, "
                         f"residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


def eo_flux(uL, uR):
    """Engquist-Osher interface flux for f(u) = u^2/2.

    Splitting F = f+(uL) + f-(uR) with f+(u) = u^2/2 for u > 0 else 0 and
    f-(u) = u^2/2 for u < 0 else 0; monotone and consistent.
    """
    # one splitting term at a time keeps a single full-size temporary alive
    out = np.maximum(np.asarray(uL, dtype=float), 0.0)
    out = 0.5 * out * out
    m = np.minimum(np.asarray(uR, dtype=float), 0.0)
    out += 0.5 * m * m
    return float(out) if out.ndim == 0 else out


class BurgersFlux:
    """f(u) = u^2/2 with Engquist-Osher interface splitting."""

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def fprime(self, u):
        return np.asarray(u, dtype=float)

    def interface(self, uL, uR):
        return eo_flux(uL, uR)

    # one-sided derivative 0 at the sonic point u=0
    def dleft(self, uL):
        return np.maximum(np.asarray(uL, dtype=float), 0.0)

    def dright(self, uR):
        return np.minimum(np.asarray(uR, dtype=float), 0.0)

    def wave_speed(self, u):
        return np.abs(np.asarray(u, dtype=float))


class LinearFlux:
    """f(u) = a*u, upwind interface flux; exact linearization coefficient."""

    def __init__(self, a: float):
        self.a = float(a)

    def f(self, u):
        return self.a * np.asarray(u, dtype=float)

    def fprime(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.a)

    def interface(self, uL, uR):
        return (max(self.a, 0.0) * np.asarray(uL, dtype=float)
                + min(self.a, 0.0) * np.asarray(uR, dtype=float))

    def dleft(self, uL):
        return np.full_like(np.asarray(uL, dtype=float), max(self.a, 0.0))

    def dright(self, uR):
        return np.full_like(np.asarray(uR, dtype=float), min(self.a, 0.0))

    def wave_speed(self, u):
        return np.full_like(np.asarray(u, dtype=float), abs(self.a))


BURGERS = BurgersFlux()


@dataclass
class NewtonStats:
    iterations: int
    residual: float


@dataclass
class ForwardTrajectory:
    grid: SpatialGrid
    partition: TimePartition
    states: np.ndarray  # (N+1, J) cell averages, row 0 = initial data
    flux: object
    newton_stats: Optional[list] = None


def interface_fluxes(u: np.ndarray, g, flux=BURGERS) -> np.ndarray:
    """All J+1 interface fluxes: inflow splitting against the ghost value g
    on the left, pure upwind extrapolation f(u_J) on the right.  Cells run
    along the last axis; leading axes of u and g broadcast."""
    F = np.empty(u.shape[:-1] + (u.shape[-1] + 1,))
    F[..., 1:-1] = flux.interface(u[..., :-1], u[..., 1:])
    F[..., 0] = flux.interface(g, u[..., 0])
    F[..., -1] = flux.f(u[..., -1])
    return F


def _check_finite(u: np.ndarray):
    if not np.all(np.isfinite(u)):
        raise SolverFailure("non-finite state")


def explicit_step(u: np.ndarray, k: float, h: float, g: float,
                  flux=BURGERS):
    """One forward-Euler update; returns (new state, interface fluxes)."""
    speed = float(np.max(flux.wave_speed(u)))
    if k * speed / h > 1.0:
        warnings.warn(f"explicit step at CFL {k * speed / h:.2f} > 1",
                      RuntimeWarning, stacklevel=2)
    F = interface_fluxes(u, g, flux)
    u_new = u - (k / h) * (F[1:] - F[:-1])
    _check_finite(u_new)
    return u_new, F


def implicit_step(u_old: np.ndarray, k: float, h: float, g: float,
                  flux=BURGERS, tol: float = NEWTON_TOL,
                  max_iter: int = NEWTON_MAX_ITER):
    """One backward-Euler update solved by Newton with the analytic
    tridiagonal Jacobian; returns (new state, fluxes, NewtonStats).

    Full steps, no damping: the scalar monotone system is diagonally
    dominant (diagonal 1 + lam*|df|), so the plain iteration is safe for
    any k.
    """
    lam = k / h
    u = u_old.copy()
    res = np.inf
    for it in range(1, max_iter + 1):
        F = interface_fluxes(u, g, flux)
        r = u - u_old + lam * (F[1:] - F[:-1])
        res = float(np.max(np.abs(r)))
        if res <= tol:
            _check_finite(u)
            return u, F, NewtonStats(iterations=it, residual=res)
        dl = flux.dleft(u)
        dr = flux.dright(u)
        diag = 1.0 + lam * (dl - dr)
        diag[-1] = 1.0 + lam * (float(flux.fprime(u[-1:])[0]) - dr[-1])
        ab = np.zeros((3, u.size))
        ab[0, 1:] = lam * dr[1:]      # superdiagonal
        ab[1, :] = diag
        ab[2, :-1] = -lam * dl[:-1]   # subdiagonal
        u = u + solve_banded((1, 1), ab, -r)
        _check_finite(u)
    raise NonConvergence(max_iter, res)


def run_forward(grid: SpatialGrid, partition: TimePartition,
                case) -> ForwardTrajectory:
    """March through all intervals with each interval's tagged mode.

    Interval n runs from t_n to t_{n+1}.  The stencil and the boundary data
    live on t_n for explicit steps and on t_{n+1} for implicit ones; only
    the states are kept, `update_fluxes` rebuilds the fluxes.
    """
    flux = case.flux
    times = partition.times
    N = partition.interval_count
    J = grid.cell_count
    g_at = np.atleast_1d(np.asarray(case.inflow_value(times), dtype=float))
    u = np.asarray(case.initial_cell_averages(grid.edges), dtype=float)
    states = np.empty((N + 1, J))
    states[0] = u
    stats: list = []
    for n in range(N):
        k = float(times[n + 1] - times[n])
        try:
            if partition.modes[n] == EXPLICIT:
                u, _ = explicit_step(u, k, grid.h, g_at[n], flux)
                stats.append(None)
            else:
                u, _, st = implicit_step(u, k, grid.h, g_at[n + 1], flux)
                stats.append(st)
        except SolverFailure as err:
            raise SolverFailure(f"interval {n} (t={times[n]:.6g}): {err}") from err
        states[n + 1] = u
    return ForwardTrajectory(grid=grid, partition=partition, states=states,
                             flux=flux, newton_stats=stats)


def update_fluxes(traj: ForwardTrajectory, case) -> np.ndarray:
    """The (N, J+1) interface fluxes each update of `run_forward` used.

    Same stencil-time rule as the march: state n and g(t_n) for explicit
    steps, state n+1 and g(t_{n+1}) for implicit ones.  Same inputs through
    the same `interface_fluxes`, so the values are bit-identical.
    """
    part = traj.partition
    rows = np.arange(part.interval_count) + (part.modes == IMPLICIT)
    g = np.atleast_1d(np.asarray(case.inflow_value(part.times), dtype=float))
    return interface_fluxes(traj.states[rows], g[rows], traj.flux)
