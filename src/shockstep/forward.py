"""First-order finite-volume forward solver.

Piecewise-constant cells with Euler stepping in time, upwind flux splitting
at interfaces.  The left boundary is supersonic inflow fed by prescribed
data, the right boundary pure upwind outflow.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec
from typing import Optional

import numpy as np

from .grid import (EXPLICIT, IMPLICIT, SpatialGrid, TimePartition,
                   uniform_partition)

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


class BurgersFlux:
    """f(u) = u^2/2 with Engquist-Osher interface splitting."""

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def fprime(self, u):
        return np.asarray(u, dtype=float)

    def split(self, v, d, f):
        """Write the splitting of v into the (2, n) buffers d and f: the
        one-sided derivatives d = (max(v, 0), min(v, 0)), 0 at the sonic
        point, and the flux parts f = d^2/2, so that f[0](uL) + f[1](uR)
        is the Engquist-Osher interface flux."""
        np.maximum(v, 0.0, out=d[0])
        np.minimum(v, 0.0, out=d[1])
        np.multiply(d, 0.5, out=f)
        f *= d


class LinearFlux:
    """f(u) = a*u, upwind interface flux; exact linearization coefficient."""

    def __init__(self, a: float):
        self.a = float(a)

    def f(self, u):
        return self.a * np.asarray(u, dtype=float)

    def fprime(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.a)

    def split(self, v, d, f):
        """Same contract as `BurgersFlux.split`, with constant derivatives."""
        d[0] = max(self.a, 0.0)
        d[1] = min(self.a, 0.0)
        np.multiply(d, v, out=f)


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
    """All J+1 interface fluxes of the state u with inflow g, built as the
    `Stepper` builds them: u between the ghost cells g and a copy of its
    last cell, one `flux.split`, F = f[0, :-1] + f[1, 1:].  Cells run along
    the last axis; leading axes of u and g broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    v[..., 0] = g
    v[..., 1:-1] = u
    v[..., -1] = v[..., -2]
    # drop each input once read: a row copy passed in (update_fluxes) and
    # the derivative splits are not kept alive next to the result
    del u
    d, f = np.empty((2,) + v.shape), np.empty((2,) + v.shape)
    flux.split(v, d, f)
    del v, d
    return f[0, ..., :-1] + f[1, ..., 1:]


_amax = np.maximum.reduce


@functools.cache
def _dgtsv():
    """LAPACK's tridiagonal solver, loaded on the first implicit solve, so
    explicit-only runs never load scipy.

    Only scipy's f2py extension `scipy.linalg._flapack`, whose `dgtsv` is
    the one `scipy.linalg.lapack` re-exports, is loaded: the package's
    `scipy.linalg.__init__` would cost about 0.25 s and 26.5 MiB of RSS for
    this one routine, the extension about 20 ms and 3.3 MiB.
    """
    import scipy
    where = os.path.join(scipy.__path__[0], "linalg")
    finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack extension in {where}")
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv


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
        """u <- u - (k/h) (F[1:] - F[:-1]) with the fluxes of u and g.

        Refuses (SolverFailure, u unchanged) a step with k max|f'| / h > 1
        over the state and g, the bound the max principle needs.
        """
        du = self._update(k / h, g)
        cfl = k * _amax(self.speed) / h
        if cfl > 1.0:
            raise SolverFailure(f"explicit step at CFL {cfl:.2f} > 1")
        self.u -= du
        if not _finite(self.u):
            raise SolverFailure("non-finite state")

    def implicit(self, k: float, h: float, g: float, tol: float = NEWTON_TOL,
                 max_iter: int = NEWTON_MAX_ITER) -> NewtonStats:
        """Backward Euler: Newton on u - u_old + (k/h) (F[1:] - F[:-1]) = 0
        with the analytic tridiagonal Jacobian, solved by LAPACK dgtsv,
        which is what scipy's solve_banded((1, 1), ...) calls.

        Full steps, no damping.  The Jacobian is diagonally dominant
        (diagonal 1 + lam*|f'|), so every linear solve is well posed, but
        that does not make the undamped iteration converge for every k:
        from level-0 data with k = 5h and inflow 1.03 it stalls once the
        shock nears the outflow boundary.  A stall raises `NonConvergence`,
        a non-finite residual `SolverFailure`.
        """
        lam = k / h
        u, u_old, r, diag, d = self.u, self.u_old, self.r, self.diag, self.d
        u_old[:] = u
        dgtsv = _dgtsv()
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


def speed_for_basis(case, grid: SpatialGrid, basis: str) -> float:
    """Wave speed bound max|f'| for a uniform partition: over the initial
    cell averages ("initial"), and also over the inflow peak ("global")."""
    fprime = case.flux.fprime
    speed = float(np.max(np.abs(fprime(case.initial_cell_averages(grid.edges)))))
    if basis == "initial":
        return speed
    if basis == "global":
        g = np.array([case.inflow_peak()])
        return max(speed, float(np.max(np.abs(fprime(g)))))
    raise ValueError(f"unknown speed basis {basis!r}")


def uniform_cfl_partition(case, grid: SpatialGrid, cfl: float, basis="global",
                          mode=EXPLICIT) -> TimePartition:
    """Uniform steps k = cfl * h / speed_for_basis over [0, T]; keep that
    operation order, every output is pinned bit for bit."""
    speed = speed_for_basis(case, grid, basis)
    return uniform_partition(case.T, cfl * grid.h / speed, mode)


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


def update_fluxes(traj: ForwardTrajectory, case,
                  rows: slice = slice(None)) -> np.ndarray:
    """The (n, J+1) interface fluxes the updates of the intervals `rows`
    (all N by default) of `run_forward` used.

    Same stencil-time rule as the march: state n and g(t_n) for explicit
    steps, state n+1 and g(t_{n+1}) for implicit ones.  Same inputs through
    the same `interface_fluxes`, so the values are bit-identical.
    """
    part = traj.partition
    stencil = np.arange(part.interval_count)[rows]
    stencil += part.modes[rows] == IMPLICIT
    g = np.atleast_1d(np.asarray(case.inflow_value(part.times[stencil]),
                                 dtype=float))
    return interface_fluxes(traj.states[stencil], g, traj.flux)
