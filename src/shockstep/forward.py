"""First-order finite-volume forward solver.

Piecewise-constant cells with Euler stepping in time, upwind flux splitting
at interfaces.  The left boundary is supersonic inflow fed by prescribed
data, the right boundary pure upwind outflow.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

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

    def split(self, v, d, f):
        """Write the splitting of v into the (2, n) buffers d and f: the
        one-sided derivatives d = (max(v, 0), min(v, 0)), 0 at the sonic
        point, and the flux parts f = d^2/2, so that
        eo_flux(uL, uR) == f[0](uL) + f[1](uR) bit for bit."""
        np.maximum(v, 0.0, out=d[0])
        np.minimum(v, 0.0, out=d[1])
        np.multiply(d, 0.5, out=f)
        f *= d

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

    def split(self, v, d, f):
        """Same contract as `BurgersFlux.split`, with constant derivatives."""
        d[0] = max(self.a, 0.0)
        d[1] = min(self.a, 0.0)
        np.multiply(d, v, out=f)

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


_amax = np.maximum.reduce


def _finite(u: np.ndarray) -> bool:
    """One dot product per call; the elementwise test runs only when u.u
    is not finite, which a finite state can also reach by overflow."""
    return math.isfinite(u.dot(u)) or bool(np.isfinite(u).all())


class Stepper:
    """The stepping core: work buffers for one grid and the in-place
    forward-Euler and backward-Euler updates of the state `u`.

    `u` lives in `v[1:-1]` between two ghost cells, the inflow value g on
    the left and a copy of the last cell on the right (pure upwind
    outflow).  One `flux.split` of `v` then yields all J+1 interface
    fluxes F = f[0, :-1] + f[1, 1:], and d[0] - d[1] = |f'| gives the
    wave speed bound over the state and g and the Jacobian diagonal.
    `F` holds the fluxes of the last update; the next one overwrites it.
    """

    def __init__(self, u, flux):
        u = np.asarray(u, dtype=float)
        J = u.size
        self.flux = flux
        self.v = np.empty(J + 2)
        self.u = self.v[1:-1]
        self.u[:] = u
        self.d = np.empty((2, J + 2))   # one-sided derivative splits
        self.f = np.empty((2, J + 2))   # flux splits
        self.speed = np.empty(J + 2)    # |f'| = d[0] - d[1]
        self.F = np.empty(J + 1)
        self.du = np.empty(J)           # (k/h) (F[1:] - F[:-1])
        self.u_old = np.empty(J)
        self.r = np.empty(J)            # Newton residual, then -residual
        self.abs_r = np.empty(J)
        self.diag = np.empty(J)
        # the LAPACK wrapper wants off-diagonals of length >= 1, also at J = 1
        self.sub = np.zeros(max(J - 1, 1))
        self.sup = np.zeros(max(J - 1, 1))
        # views reused by every update: cell j sits at v[j + 1]
        self._f_left, self._f_right = self.f[0, :-1], self.f[1, 1:]
        self._F_hi, self._F_lo = self.F[1:], self.F[:-1]
        self._speed_cells = self.speed[1:-1]
        self._dm_sup = self.d[1, 2:-1]
        self._dp_sub = self.d[0, 1:-2]
        self._sup, self._sub = self.sup[:J - 1], self.sub[:J - 1]

    def _update(self, lam: float, g: float) -> np.ndarray:
        """Splits and fluxes of the current state and inflow g; returns
        lam * (F[1:] - F[:-1])."""
        v, d, F, du = self.v, self.d, self.F, self.du
        v[0] = g
        v[-1] = v[-2]
        self.flux.split(v, d, self.f)
        np.subtract(d[0], d[1], out=self.speed)
        np.add(self._f_left, self._f_right, out=F)
        np.subtract(self._F_hi, self._F_lo, out=du)
        du *= lam
        return du

    def explicit(self, k: float, h: float, g: float):
        """u <- u - (k/h) (F[1:] - F[:-1]) with the fluxes of u and g."""
        du = self._update(k / h, g)
        speed = _amax(self.speed)
        if k * speed / h > 1.0:
            warnings.warn(f"explicit step at CFL {k * speed / h:.2f} > 1",
                          RuntimeWarning, stacklevel=3)
        self.u -= du
        if not _finite(self.u):
            raise SolverFailure("non-finite state")

    def implicit(self, k: float, h: float, g: float, tol: float = NEWTON_TOL,
                 max_iter: int = NEWTON_MAX_ITER) -> NewtonStats:
        """Backward Euler: Newton on u - u_old + (k/h) (F[1:] - F[:-1]) = 0
        with the analytic tridiagonal Jacobian, solved by LAPACK dgtsv,
        which is what scipy's solve_banded((1, 1), ...) calls."""
        lam = k / h
        u, u_old, r, diag, d = self.u, self.u_old, self.r, self.diag, self.d
        u_old[:] = u
        res = math.inf
        for it in range(1, max_iter + 1):
            du = self._update(lam, g)
            np.subtract(u, u_old, out=r)
            r += du
            res = float(_amax(np.abs(r, out=self.abs_r)))
            if res <= tol:
                return NewtonStats(iterations=it, residual=res)
            if not math.isfinite(res):
                raise SolverFailure("non-finite Newton residual")
            np.multiply(self._speed_cells, lam, out=diag)
            diag += 1.0
            # the right ghost copies u_J: 1 + lam * (f'(u_J) - dm(u_J))
            diag[-1] = 1.0 + lam * ((d[0, -1] + d[1, -1]) - d[1, -2])
            np.multiply(self._dm_sup, lam, out=self._sup)
            np.multiply(self._dp_sub, -lam, out=self._sub)
            np.negative(r, out=r)
            x, info = dgtsv(self.sub, diag, self.sup, r, 1, 1, 1, 1)[3:]
            if info:
                raise SolverFailure(f"singular Newton system (dgtsv info {info})")
            u += x
            if not _finite(u):
                raise SolverFailure("non-finite state")
        raise NonConvergence(max_iter, res)


def explicit_step(u: np.ndarray, k: float, h: float, g: float,
                  flux=BURGERS):
    """One forward-Euler update; returns (new state, interface fluxes).

    Warns when k * max(|u|, |g|) / h > 1, the bound the max principle needs.
    """
    s = Stepper(u, flux)
    s.explicit(k, h, g)
    return s.u, s.F


def implicit_step(u_old: np.ndarray, k: float, h: float, g: float,
                  flux=BURGERS, tol: float = NEWTON_TOL,
                  max_iter: int = NEWTON_MAX_ITER):
    """One backward-Euler update solved by Newton with the analytic
    tridiagonal Jacobian; returns (new state, fluxes, NewtonStats).

    Full steps, no damping.  The Jacobian is diagonally dominant (diagonal
    1 + lam*|df|), so every linear solve is well posed, but that does not
    make the undamped iteration converge for every k: from level-0 data
    with k = 5h and inflow 1.03 it stalls once the shock nears the outflow
    boundary.  A stall raises `NonConvergence`, a non-finite residual
    `SolverFailure`.
    """
    s = Stepper(u_old, flux)
    stats = s.implicit(k, h, g, tol, max_iter)
    return s.u, s.F, stats


def run_forward(grid: SpatialGrid, partition: TimePartition,
                case) -> ForwardTrajectory:
    """March through all intervals with each interval's tagged mode.

    Interval n runs from t_n to t_{n+1}.  The stencil and the boundary data
    live on t_n for explicit steps and on t_{n+1} for implicit ones; only
    the states are kept, `update_fluxes` rebuilds the fluxes.
    """
    times = partition.times
    N = partition.interval_count
    J = grid.cell_count
    h = grid.h
    g_at = np.atleast_1d(np.asarray(case.inflow_value(times), dtype=float))
    s = Stepper(case.initial_cell_averages(grid.edges), case.flux)
    states = np.empty((N + 1, J))
    states[0] = s.u
    stats: list = []
    for n, (k, mode) in enumerate(zip(partition.steps.tolist(),
                                      partition.modes.tolist())):
        try:
            if mode == EXPLICIT:
                s.explicit(k, h, g_at[n])
                stats.append(None)
            else:
                stats.append(s.implicit(k, h, g_at[n + 1]))
        except SolverFailure as err:
            raise SolverFailure(f"interval {n} (t={times[n]:.6g}): {err}") from err
        states[n + 1] = s.u
    return ForwardTrajectory(grid=grid, partition=partition, states=states,
                             flux=case.flux, newton_stats=stats)


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
