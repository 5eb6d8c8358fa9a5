"""First-order finite-volume forward solver.

Piecewise-constant cells with Euler stepping in time, upwind flux splitting
at interfaces.  The left boundary is supersonic inflow fed by prescribed
data, the right boundary pure upwind outflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from ._core import ptr
from .grid import EXPLICIT, SpatialGrid, TimePartition, uniform_partition

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


class LinearFlux:
    """f(u) = a*u, upwind interface flux; exact linearization coefficient."""

    def __init__(self, a: float):
        self.a = float(a)


BURGERS = BurgersFlux()


@dataclass
class NewtonStats:
    iterations: int
    residual: float
    stop: str   # "tol": residual <= NEWTON_TOL; "floor": round-off floor


@dataclass
class ForwardTrajectory:
    grid: SpatialGrid
    partition: TimePartition
    states: np.ndarray  # (N+1, J) cell averages, row 0 = initial data
    flux: object
    g: np.ndarray       # (N+1,) the inflow at each t_n, as `march` took it
    # per interval: Newton iterations, final residual and stop code (0 for
    # an explicit interval)
    newton_iters: np.ndarray
    newton_resid: np.ndarray
    newton_stop: np.ndarray

    @property
    def newton_stats(self) -> list:
        """One `NewtonStats` per implicit interval and None per explicit
        one, built from the Newton arrays when read."""
        return [NewtonStats(it, r, _core.STOP_RULES[s]) if s else None
                for it, r, s in zip(self.newton_iters.tolist(),
                                    self.newton_resid.tolist(),
                                    self.newton_stop.tolist())]


def _flux_code(flux):
    """The compiled core's (kind, a) for a flux object."""
    if isinstance(flux, LinearFlux):
        return 1, flux.a
    if isinstance(flux, BurgersFlux):
        return 0, 0.0
    raise TypeError(f"no compiled march for the flux {type(flux).__name__}")


_MESSAGES = {
    _core.CFL: "explicit step at CFL {:.2f} > 1",
    _core.NONFINITE_STATE: "non-finite state",
    _core.NONFINITE_RESIDUAL: "non-finite Newton residual",
    _core.SINGULAR: "singular Newton system (dgtsv info {:.0f})",
}


def march(rows: np.ndarray, k: np.ndarray, g: np.ndarray, h: float, flux,
          mode: int, newton=None, F=None):
    """March the state rows[0] through the len(k) steps of one mode in the
    compiled core, writing the states into rows[1:].  Step i has length
    k[i]; g holds the inflow at each of the len(k) + 1 times, and step i
    reads g[i] at its start (explicit) or g[i + 1] at its end (implicit).

    Explicit steps are forward Euler, u - (k/h) (F[1:] - F[:-1]) with the
    fluxes of u and g; a step with k max|f'| / h > 1 over the state and g,
    the bound the max principle needs, is refused and its row left as it
    was.  Implicit steps are backward Euler, Newton with full steps and
    the analytic tridiagonal Jacobian solved as LAPACK dgtsv solves it,
    stopped at `NEWTON_TOL` or at the round-off floor (`NewtonStats.stop`);
    `newton` = (iterations, residuals, stop codes) receive each step's
    record.  Full steps do not converge for every k: from level-0 data
    with k = 5h and inflow 1.03 Newton stalls once the shock nears the
    outflow boundary.

    Returns (len(k), None), or (i, error) with the failure of step i:
    a refused CFL, a non-finite state or residual, a singular system, or
    a Newton stall (`NonConvergence`).  F, when given, ends with the
    fluxes of the last update.
    """
    n, J = len(k), rows.shape[1]
    if J == 0:
        raise ValueError("a march needs at least one cell")
    kind, a = _flux_code(flux)
    if F is None:
        F = np.empty(J + 1)
    records = () if mode == EXPLICIT else newton
    # the kernels trust these lengths
    if (len(g) < n + 1 or rows.ndim != 2 or rows.shape[0] < n + 1
            or F.shape != (J + 1,) or any(len(r) < n for r in records)):
        raise ValueError(f"a march of {n} steps over {J} cells needs {n + 1} "
                         f"rows, {n + 1} inflow values and {J + 1} fluxes")
    core = _core.lib()
    code, value = np.zeros(1, np.intc), np.zeros(1)
    args = (n, J, h, ptr(k), ptr(g), kind, a)
    if mode == EXPLICIT:
        done = core.march_explicit(*args, ptr(rows), ptr(F), ptr(code, np.intc),
                                   ptr(value))
    else:
        iters, resid, stop = newton
        done = core.march_implicit(*args, NEWTON_TOL, NEWTON_MAX_ITER,
                                   ptr(rows), ptr(F), ptr(iters, np.intc),
                                   ptr(resid), ptr(stop, np.int8),
                                   ptr(code, np.intc), ptr(value))
    code, value = int(code[0]), float(value[0])
    if code == _core.NO_MEMORY:
        raise MemoryError("the compiled march could not allocate its work buffers")
    if code == _core.STALLED:
        return done, NonConvergence(NEWTON_MAX_ITER, value)
    return done, SolverFailure(_MESSAGES[code].format(value)) if code else None


def wave_speeds(rows: np.ndarray, g: np.ndarray, flux) -> np.ndarray:
    """max|f'| of each row of states together with its inflow value g[i],
    as np.maximum.reduce takes it (NaN when one of them is NaN), from the
    compiled core."""
    n, J = rows.shape
    if len(g) != n:
        raise ValueError(f"{n} rows of states need {n} inflow values, not {len(g)}")
    kind, a = _flux_code(flux)
    out = np.empty(n)
    _core.lib().row_speeds(n, J, ptr(rows), ptr(g), kind, a, ptr(out))
    return out


def speed_for_basis(case, grid: SpatialGrid, basis: str) -> float:
    """Wave speed bound max|f'| for a uniform partition: over the initial
    cell averages ("initial"), and also over the inflow peak ("global").
    A NaN among them makes it NaN."""
    u = np.ascontiguousarray(case.initial_cell_averages(grid.edges), dtype=float)
    if basis == "global":
        g = case.inflow_peak()
    elif basis == "initial":
        g = u[0]    # a value the maximum already takes
    else:
        raise ValueError(f"unknown speed basis {basis!r}")
    return float(wave_speeds(u[None], np.array([g], dtype=float), case.flux)[0])


def uniform_cfl_partition(case, grid: SpatialGrid, cfl: float, basis="global",
                          mode=EXPLICIT) -> TimePartition:
    """Uniform steps k = cfl * h / speed_for_basis over [0, T]; keep that
    operation order, every output is pinned bit for bit."""
    speed = speed_for_basis(case, grid, basis)
    return uniform_partition(case.T, cfl * grid.h / speed, mode)


def run_forward(grid: SpatialGrid, partition: TimePartition,
                case) -> ForwardTrajectory:
    """March through all intervals with each interval's tagged mode, one
    `march` call per run of equal modes.

    Interval n runs from t_n to t_{n+1}.  The stencil and the boundary data
    live on t_n for explicit steps and on t_{n+1} for implicit ones; the
    states and the inflow at every t_n are kept, and
    `estimator.assemble_breakdown` rebuilds the fluxes by the same rule.
    """
    times = partition.times
    modes = partition.modes
    k = partition.steps
    N = partition.interval_count
    g_at = np.atleast_1d(np.asarray(case.inflow_value(times), dtype=float))
    states = np.empty((N + 1, grid.cell_count))
    states[0] = case.initial_cell_averages(grid.edges)
    iters, resid = np.zeros(N, np.intc), np.zeros(N)
    stop = np.zeros(N, np.int8)
    cuts = [0, *(np.flatnonzero(np.diff(modes)) + 1).tolist(), N] if N else [0]
    for n, e in zip(cuts[:-1], cuts[1:]):
        done, err = march(states[n:e + 1], k[n:e], g_at[n:e + 1], grid.h,
                          case.flux, int(modes[n]),
                          (iters[n:e], resid[n:e], stop[n:e]))
        if err is not None:
            n += done
            raise SolverFailure(f"interval {n} (t={times[n]:.6g}): {err}") from err
    return ForwardTrajectory(grid=grid, partition=partition, states=states,
                             flux=case.flux, g=g_at, newton_iters=iters,
                             newton_resid=resid, newton_stop=stop)

