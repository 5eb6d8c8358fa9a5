"""First-order finite-volume forward solver.

Piecewise-constant cells with Euler stepping in time, upwind flux splitting
at interfaces.  The left boundary is supersonic inflow fed by prescribed
data, the right boundary pure upwind outflow.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import _core
from ._core import ptr
from .grid import (EXPLICIT, SpatialGrid, TimePartition, uniform_partition,
                   weight_cell_integrals)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# intervals per block of the forward march, of its rebuild in the backward
# sweep and of the J_h gemv: a checkpoint is kept every BLOCK states.  A
# multiple of 4, since OpenBLAS's gemv takes rows four at a time
BLOCK = 256


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
class RowReductions:
    """What later stages read of each state, reduced while its block of
    the march is still in cache."""
    speeds: np.ndarray        # (N+1,) max|f'| of state n with the inflow g[n]
    coeff_speeds: np.ndarray  # (N,) max|f'| of state n+1 alone (g = 0)
    dots: Optional[np.ndarray]      # (N,) state n+1 @ weights, the J_h dots
    weights: Optional[np.ndarray]   # (J,) cell integrals of the weight

    @classmethod
    def start(cls, N: int, u0: np.ndarray, g: np.ndarray, flux,
              weights=None) -> "RowReductions":
        """Room for N intervals, and the initial state u0's speed."""
        red = cls(np.empty(N + 1), np.empty(N),
                  None if weights is None else np.empty(N), weights)
        red.speeds[0] = wave_speeds(u0[None], g[:1], flux)[0]
        return red

    def take(self, rows: np.ndarray, lo: int, g: np.ndarray, flux):
        """Reduce rows[1:], the states lo + 1 .. of one block.  The dots are
        one BLAS gemv per block: aligned at row 1 + BLOCK b, with BLOCK a
        multiple of 4, they have the bits of one gemv over all the rows."""
        hi = lo + len(rows) - 1
        end = rows[1:]
        self.speeds[lo + 1:hi + 1] = wave_speeds(end, g[lo + 1:hi + 1], flux,
                                                 self.coeff_speeds[lo:hi])
        if self.dots is not None:
            self.dots[lo:hi] = end @ self.weights


class ForwardTrajectory:
    """A forward run: the inflow at each t_n, the Newton record and the
    states u^0 .. u^N of J cells each, the dual's one input.

    `kept` holds the states at the rows `kept_at`, read-only: all N + 1
    when built by hand from `states` (a view of them); `run_forward`
    keeps row 0, every BLOCK-th and each state that ends an implicit
    interval, since rebuilding it would take Newton again, and `reduced`
    holds the per-row reductions the later stages read.  `rows` gives
    one block's states, re-marched from its checkpoint by the kernel
    that made them, so with their bits; no read changes what is kept.
    """

    def __init__(self, grid: SpatialGrid, partition: TimePartition,
                 states=None, flux=None, g=None, newton_iters=None,
                 newton_resid=None, newton_stop=None, *, kept=None,
                 kept_at=None, reduced: Optional[RowReductions] = None):
        self.grid, self.partition, self.flux = grid, partition, flux
        self.g = g          # (N+1,) the inflow at each t_n, as `march` took it
        # per interval: Newton iterations, final residual and stop code (0
        # for an explicit interval)
        self.newton_iters = newton_iters
        self.newton_resid = newton_resid
        self.newton_stop = newton_stop
        if states is not None:
            kept = np.ascontiguousarray(states, dtype=float).view()
            kept_at = np.arange(partition.interval_count + 1)
            if len(kept) != kept_at.size:
                raise ValueError(f"{len(kept)} states, need {kept_at.size}")
        self.kept, self.kept_at, self.reduced = kept, kept_at, reduced
        kept.flags.writeable = False
        self._runs, self._steps = mode_runs(partition.modes), partition.steps

    @property
    def shape(self) -> tuple:
        """(N+1, J) of the states, kept or not."""
        return self.partition.interval_count + 1, self.kept.shape[1]

    @property
    def states(self) -> np.ndarray:
        """(N+1, J) cell averages, row 0 the initial data: `kept` when every
        row is kept, else a new array rebuilt block by block on each read."""
        N = self.partition.interval_count
        if self.kept_at.size == N + 1:
            return self.kept
        full = np.empty(self.shape)
        full[self.kept_at] = self.kept
        for lo in range(0, N, BLOCK):
            hi = min(lo + BLOCK, N)
            full[lo:hi + 1] = self.rows(lo, hi, full[lo:])
        return full

    def rows(self, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        """The states lo .. hi, C-contiguous, lo a multiple of BLOCK: kept
        ones as they are, the others re-marched from the checkpoint at lo
        into buf (hi - lo + 1 rows of J at least)."""
        rows = _kept_block(self.kept, self.kept_at, lo, hi)
        if rows is not None:
            return rows
        rows = buf[:hi - lo + 1]
        rows[0] = self.kept[np.searchsorted(self.kept_at, lo)]
        stored = partial(_kept_block, self.kept, self.kept_at)
        done, err = march_block(rows, lo, self._runs, self._steps, self.g,
                                self.grid.h, self.flux, self.partition.modes,
                                stored=stored)
        if err is not None:
            raise SolverFailure(f"rebuilding interval {lo + done}: {err}") from err
        return rows

    def reductions(self, weights=None) -> RowReductions:
        """The per-row reductions: the march's own, unless `weights` differ
        from its or it kept none (built by hand); then taken block by block
        from the states as `rows` gives them, dots only with `weights`."""
        red = self.reduced
        if red is not None and (weights is None
                                or weights.tobytes() == red.weights.tobytes()):
            return red
        N = self.partition.interval_count
        g = np.ascontiguousarray(self.g, dtype=float)
        buf = np.empty((min(BLOCK, N) + 1, self.shape[1]))
        red = RowReductions.start(N, self.rows(0, 0, buf)[0], g, self.flux, weights)
        for lo in range(0, N, BLOCK):
            red.take(self.rows(lo, min(lo + BLOCK, N), buf), lo, g, self.flux)
        return red

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

    Each step computes only the active prefix of its row: the cells up to
    the first one of the trailing run that holds the last cell's value c
    bit for bit, the stationary state right of the shock.  With that cell
    as the window's last, its right ghost copies c and every flux, speed,
    residual and update is the full row's; the run is copied on.  An
    implicit step takes the full row from the start when lam < 0, lam
    |f'(c)| is not finite, or the flux is linear with a > 0 (whose rows
    all couple to their left neighbours).  A step the window cannot vouch
    for runs again at full width from its old row: an explicit step that
    would not leave the run at c; an implicit step in which the window's
    last row takes a residual or a coupling to its left neighbour (the
    shock reached it), or a state is +0.0 or -0.0 (whose sign a zero
    update can flip); and any step that fails, so that a failure's code,
    value and row are the full width's.  The states, the Newton record
    and F have every bit of the full-width march.

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


def wave_speeds(rows: np.ndarray, g: np.ndarray, flux,
                alone=None) -> np.ndarray:
    """max|f'| of each row of states together with its inflow value g[i],
    as np.maximum.reduce takes it (NaN when one of them is NaN), from the
    compiled core.  `alone`, when given, receives each row's max|f'|
    without its inflow value (g = 0), from the same pass over the rows."""
    n, J = rows.shape
    if len(g) != n:
        raise ValueError(f"{n} rows of states need {n} inflow values, not {len(g)}")
    kind, a = _flux_code(flux)
    out = np.empty(n)
    alone = np.empty(n) if alone is None else alone
    if alone.shape != (n,):
        raise ValueError(f"{n} rows of states need {n} speeds")
    _core.lib().row_speeds(n, J, ptr(rows), ptr(g), kind, a, ptr(out),
                           ptr(alone))
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


def _kept_block(kept: np.ndarray, kept_at: np.ndarray, lo: int, hi: int):
    """The rows of `kept` that hold the states lo .. hi, lo among
    `kept_at`, when every one of them is kept; else None."""
    p, n = int(np.searchsorted(kept_at, lo)), hi - lo
    if p + n < kept_at.size and kept_at[p + n] == hi:
        return kept[p:p + n + 1]
    return None


def mode_runs(modes: np.ndarray) -> list:
    """The first interval of each run of equal modes, then the count."""
    return [0, *(np.flatnonzero(np.diff(modes)) + 1).tolist(), len(modes)]


def march_block(rows: np.ndarray, lo: int, runs: list, k: np.ndarray,
                g: np.ndarray, h: float, flux, modes: np.ndarray, newton=None,
                stored=None):
    """March rows[0], the state at t_lo, through the intervals lo .. lo +
    len(rows) - 2 into rows[1:], one `march` per piece of a run of equal
    modes that `runs` (`mode_runs`) gives; k, g, modes and the Newton
    arrays `newton` cover all intervals.  With `stored`, a function giving
    the states lo' .. hi', an implicit piece is copied from it instead of
    solved.  Each step reads only its own row, so where the pieces are
    cut moves no bit.  Returns (steps done, None), or (i, error) for the
    failure of step lo + i, as `march` does."""
    hi = lo + len(rows) - 1
    r = bisect.bisect_right(runs, lo) - 1
    s = lo
    while s < hi:
        e = min(runs[r + 1], hi)
        mode = int(modes[s])
        if stored is not None and mode != EXPLICIT:
            rows[s + 1 - lo:e + 1 - lo] = stored(s + 1, e)
        else:
            done, err = march(rows[s - lo:e + 1 - lo], k[s:e], g[s:e + 1], h, flux,
                              mode, newton and tuple(x[s:e] for x in newton))
            if err is not None:
                return s - lo + done, err
        s, r = e, r + 1
    return hi - lo, None


def march_blocks(u0: np.ndarray, partition: TimePartition, g: np.ndarray,
                 h: float, flux, block: int, newton=None, place=None):
    """March the state u0 through `partition`, `block` intervals at a time
    (`march_block`); yields (lo, rows) per block, rows[0] the state at
    t_lo and rows[1:] the block's new states, valid until the next block.
    The rows are those `place(lo, hi)` gives, or else (without `place`, or
    when it gives None) one reused buffer of block + 1 states.  A failed
    step raises `SolverFailure` with its interval and time."""
    k, modes, N = partition.steps, partition.modes, partition.interval_count
    runs = mode_runs(modes)
    buf, prev = None, u0
    for lo in range(0, N, block):
        hi = min(lo + block, N)
        rows = None if place is None else place(lo, hi)
        if rows is None:
            if buf is None:
                buf = np.empty((min(block, N) + 1, len(u0)))
            rows = buf[:hi - lo + 1]
        rows[0] = prev
        done, err = march_block(rows, lo, runs, k, g, h, flux, modes, newton)
        if err is not None:
            n = lo + done
            raise SolverFailure(f"interval {n} (t={partition.times[n]:.6g}): "
                                f"{err}") from err
        yield lo, rows
        prev = rows[-1]


def run_forward(grid: SpatialGrid, partition: TimePartition,
                case) -> ForwardTrajectory:
    """March through all intervals with each interval's tagged mode, BLOCK
    intervals at a time (`march_blocks`).

    Interval n runs from t_n to t_{n+1}.  The stencil and the boundary data
    live on t_n for explicit steps and on t_{n+1} for implicit ones; the
    inflow at every t_n is kept, and `estimator.assemble_breakdown`
    rebuilds the fluxes by the same rule.  Of the states only the
    checkpoints are kept (see `ForwardTrajectory`); a block whose states
    are all kept is marched in place.  Each block is reduced to its
    `RowReductions`, the J_h dots with the case's cell weights, while it
    is still in cache.
    """
    modes = partition.modes
    N = partition.interval_count
    g_at = np.atleast_1d(np.asarray(case.inflow_value(partition.times), dtype=float))
    keep = np.zeros(N + 1, bool)
    keep[::BLOCK] = True
    keep[1:] |= modes != EXPLICIT
    kept_at = np.flatnonzero(keep)
    kept = np.empty((kept_at.size, grid.cell_count))
    kept[0] = case.initial_cell_averages(grid.edges)
    red = RowReductions.start(N, kept[0], g_at, case.flux,
                              weight_cell_integrals(grid, case))
    newton = (np.zeros(N, np.intc), np.zeros(N), np.zeros(N, np.int8))
    p = 1
    for lo, rows in march_blocks(kept[0], partition, g_at, grid.h, case.flux,
                                 BLOCK, newton, partial(_kept_block, kept, kept_at)):
        # the kept states of this block: lo's is the last block's
        q = int(np.searchsorted(kept_at, lo + len(rows) - 1, "right"))
        if rows.base is not kept:
            kept[p:q] = rows[kept_at[p:q] - lo]
        red.take(rows, lo, g_at, case.flux)
        p = q
    return ForwardTrajectory(grid, partition, None, case.flux, g_at, *newton,
                             kept=kept, kept_at=kept_at, reduced=red)
