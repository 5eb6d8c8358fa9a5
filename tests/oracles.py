"""Numpy formulas that the compiled core replaced, kept as test oracles,
and `Stepper`, which takes one step at a time through the compiled march.

`flux_values` is f(u) of a flux object and `fprime` its f'(u), which
the compiled core forms.  `hand_run` is a run built by hand from all
its states, and `end_state_run` one with given end states, the dual's
one input.  `kept_states` unpacks the states a run keeps, and `states`
and `w_samples` read all N + 1 states of a run and all N samples of its
dual: the reference readers tests compare against.
`split` is the flux splitting the march transcribes, `interface_fluxes`
the march's flux construction in array form, `update_fluxes` rebuilds
the fluxes every update of a `run_forward` trajectory used, and
`cell_terms` forms the error breakdown's per-cell time and space terms,
in the operation order the compiled breakdown transcribes.
`propose_timesteps` and `assign_modes` are the planner's loops on numpy
scalars, which the package now runs in the compiled core.
`percent_rows` is the CSV writer's old text: `fmt % row` over
`.tolist()` columns.  `bisect_departure` is the plain 48-level bisection
the inflow table reproduces, every comparison on numpy's exact
departure map.
"""
import math

import numpy as np

import shockstep as ss
from shockstep import _core, testcase
from shockstep.adaptivity import CFL_CAP, CFL_SWITCH, FLOOR_SCALE
from shockstep.dual import sweep
from shockstep.forward import (BLOCK, NewtonStats, RowReductions, march,
                               tile_states)
from shockstep.grid import EXPLICIT, IMPLICIT


class Stepper:
    """One step at a time through `march`, for the scalar-oracle tests:
    `u` is updated in place, a refused explicit step leaves it unchanged,
    and `F` holds the fluxes of the last update.  The march takes the
    inflow at the step's start and end; the step's mode reads `g` at one
    of them, and the other holds NaN, so reading it fails the step."""

    def __init__(self, u, flux):
        self.flux = flux
        self.u = np.array(u, dtype=float)
        self.F = np.empty(self.u.size + 1)
        self._rows = np.empty((2, self.u.size))

    def _step(self, k, h, g, mode, newton=None):
        self._rows[:] = self.u
        g = [g, math.nan] if mode == EXPLICIT else [math.nan, g]
        _, err = march(self._rows, np.array([k], dtype=float),
                       np.array(g, dtype=float), h, self.flux, mode,
                       newton, self.F)
        self.u[:] = self._rows[1]
        if err is not None:
            raise err

    def explicit(self, k: float, h: float, g: float):
        self._step(k, h, g, EXPLICIT)

    def implicit(self, k: float, h: float, g: float) -> NewtonStats:
        rec = np.zeros(1, np.intc), np.zeros(1), np.zeros(1, np.int8)
        self._step(k, h, g, IMPLICIT, rec)
        return NewtonStats(int(rec[0][0]), float(rec[1][0]),
                           _core.STOP_RULES[int(rec[2][0])])


def flux_values(flux, u):
    """f(u): u^2/2 for Burgers, a u for a `LinearFlux`."""
    u = np.asarray(u, dtype=float)
    if isinstance(flux, ss.LinearFlux):
        return flux.a * u
    return 0.5 * u * u


def fprime(flux, u):
    """f'(u): u itself for Burgers, a in every cell for a `LinearFlux`."""
    u = np.asarray(u, dtype=float)
    if isinstance(flux, ss.LinearFlux):
        return np.full_like(u, flux.a)
    return u


def hand_run(grid, partition, states, flux, g, newton=None, weights=None):
    """A `ForwardTrajectory` built by hand from all N + 1 `states`, every
    one kept, tiled by `forward.tile_states` as `run_forward` tiles them,
    with the inflow g at each t_n and the Newton arrays `newton` =
    (iterations, residuals, stop codes), by default those of intervals
    that ran no Newton iteration.  Its row reductions are taken block by
    block with `RowReductions.start` and `take`, as `run_forward` takes
    them, so the J_h dots with the cell `weights` have the march's bits;
    without weights the dots are NaN, and `evaluate_functional` refuses
    the run."""
    N = partition.interval_count
    states = np.ascontiguousarray(states, dtype=float)
    if len(states) != N + 1:
        raise ValueError(f"{len(states)} states, need {N + 1}")
    if newton is None:
        newton = np.zeros(N, np.intc), np.zeros(N), np.zeros(N, np.int8)
    g = np.ascontiguousarray(g, dtype=float)
    J = states.shape[1]
    if weights is None:
        weights = np.full(J, np.nan)
    red = RowReductions.start(N, states[0], g, flux, weights)
    for lo in range(0, N, BLOCK):
        red.take(states[lo:min(lo + BLOCK, N) + 1], lo, g, flux)
    kept_at = np.arange(N + 1)
    blocks = ((lo, states[lo:lo + BLOCK]) for lo in range(0, N + 1, BLOCK))
    return ss.ForwardTrajectory(grid, partition, flux, g, *newton, kept_at,
                                *tile_states(kept_at, J, blocks), J, red)


def end_state_run(grid, part, A, flux):
    """A `hand_run` whose end states u^1 .. u^N are the (N, J) rows A, row
    0 repeating A[0] (zeros when N = 0), with inflow 0 and no Newton
    record."""
    A = np.asarray(A, dtype=float)
    first = A[:1] if len(A) else np.zeros((1, A.shape[1]))
    return hand_run(grid, part, np.concatenate((first, A)), flux,
                    np.zeros(part.interval_count + 1))


def kept_states(traj) -> np.ndarray:
    """The (kept_at.size, J) kept states of a run, unpacked tile by tile
    into a new array: each tile's W cells, then its last column copied
    over the rest of the row."""
    out = np.empty((traj.kept_at.size, traj.cells))
    first = np.searchsorted(traj.kept_at, BLOCK * np.arange(len(traj.tiles) + 1))
    for (at, W), p, q in zip(traj.tiles.tolist(), first[:-1], first[1:]):
        tile = traj.kept[at:at + (q - p) * W].reshape(q - p, W)
        out[p:q, :W] = tile
        out[p:q, W:] = tile[:, W - 1:W]
    return out


def states(traj) -> np.ndarray:
    """The (N+1, J) cell averages of a run, row 0 the initial data, a new
    array rebuilt block by block by `ForwardTrajectory.rows` on each
    call."""
    N = traj.partition.interval_count
    full = np.empty(traj.shape)
    full[traj.kept_at] = kept_states(traj)
    for lo in range(0, N, BLOCK):
        hi = min(lo + BLOCK, N)
        full[lo:hi + 1] = traj.rows(lo, hi, full[lo:])
    return full


def w_samples(dual) -> np.ndarray:
    """The (N, J) dual samples, marched by `dual.sweep` into a new array
    on each call."""
    samples = np.empty(dual.shape)
    sweep(dual, samples=samples)
    return samples


def split(flux, v, d, f):
    """Write the splitting of v under `flux` into the (2, n) buffers d and
    f.  Burgers: the one-sided derivatives d = (max(v, 0), min(v, 0)), 0
    at the sonic point, and the flux parts f = d^2/2, so that
    f[0](uL) + f[1](uR) is the Engquist-Osher interface flux.  A
    `LinearFlux` has the constant derivatives (max(a, 0), min(a, 0)) and
    f = d v."""
    if isinstance(flux, ss.LinearFlux):
        d[0] = max(flux.a, 0.0)
        d[1] = min(flux.a, 0.0)
        np.multiply(d, v, out=f)
    else:
        np.maximum(v, 0.0, out=d[0])
        np.minimum(v, 0.0, out=d[1])
        np.multiply(d, 0.5, out=f)
        f *= d


def interface_fluxes(u, g, flux=ss.BURGERS) -> np.ndarray:
    """All J+1 interface fluxes of the state u with inflow g: u between
    the ghost cells g and a copy of its last cell, one `split`,
    F = f[0, :-1] + f[1, 1:].  Cells run along the last axis; leading axes
    of u and g broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    v[..., 0] = g
    v[..., 1:-1] = u
    v[..., -1] = v[..., -2]
    d, f = np.empty((2,) + v.shape), np.empty((2,) + v.shape)
    split(flux, v, d, f)
    return f[0, ..., :-1] + f[1, ..., 1:]


def update_fluxes(traj, case, rows=slice(None)) -> np.ndarray:
    """The (n, J+1) interface fluxes the updates of the intervals `rows`
    (all N by default) of `run_forward` used: state n and g(t_n) for
    explicit steps, state n+1 and g(t_{n+1}) for implicit ones."""
    part = traj.partition
    stencil = np.arange(part.interval_count)[rows]
    stencil += part.modes[rows] == ss.IMPLICIT
    g = np.atleast_1d(np.asarray(case.inflow_value(part.times[stencil]),
                                 dtype=float))
    return interface_fluxes(states(traj)[stencil], g, traj.flux)


def cell_terms(traj, dual, case, lo, hi):
    """The signed cell contributions (eta_k, eta_h) of intervals lo..hi-1,
    each (hi - lo, J).

    Time term: -(1/2) k h (u^{n+1} - u^n) (psi - a w) with a = f'(u^{n+1}).
    Space term: (1/2) k h w (F_{j+1/2} + F_{j-1/2} - 2 f(u^{n+1})) with the
    fluxes the update used.
    """
    k = traj.partition.steps[lo:hi, None]
    h = traj.grid.h
    psi_c = np.asarray(case.weight(traj.grid.centers), dtype=float)
    u = states(traj)    # a checkpointed run rebuilds them on each call
    u0, u1 = u[lo:hi], u[lo + 1:hi + 1]
    W = w_samples(dual)[lo:hi]
    eta_k = -0.5 * k * h * (u1 - u0) * (psi_c - fprime(traj.flux, u1) * W)
    F = update_fluxes(traj, case, slice(lo, hi))
    eta_h = k * 0.5 * h * W * (F[:, 1:] + F[:, :-1]
                               - 2.0 * flux_values(traj.flux, u1))
    return eta_k, eta_h


def propose_timesteps(old, densities, cfg) -> np.ndarray:
    """`adaptivity.propose_timesteps` with the walk on numpy scalars and a
    `np.searchsorted` per step (valid input only)."""
    densities = np.asarray(densities, dtype=float)
    T = old.T
    k_old = old.steps
    floor = FLOOR_SCALE * cfg.tol_k / T
    km = k_old * (cfg.tol_k / T) / np.maximum(densities, floor)
    t_old = old.times
    new_times = [0.0]
    t = 0.0
    eps = 1e-12 * T
    while t < T - eps:
        n = int(np.searchsorted(t_old, t + eps)) - 1
        n = min(max(n, 0), km.size - 1)
        step = km[n]
        m = n + 1
        while m < km.size:
            b = t_old[m]
            if b >= t + step:
                break
            if km[m] < (t + step) - b:
                step = b - t
                break
            m += 1
        if t + step > T:
            step = T - t
        t += step
        new_times.append(t)
    new_times[-1] = T
    return np.diff(np.array(new_times))


def assign_modes(raw, speed_profile, cfg, h, strategy="imex"):
    """`adaptivity.assign_modes` with its loops on numpy scalars (valid
    input only)."""
    raw = np.asarray(raw, dtype=float)
    edges = np.concatenate(([0.0], np.cumsum(raw)))
    T = float(speed_profile.times[-1])
    edges[-1] = T
    n_seg = raw.size
    seg_speed = speed_profile.max_over(edges[:-1], edges[1:])
    seg_cfl = (edges[1:] - edges[:-1]) * seg_speed / h

    times = [0.0]
    modes: list = []

    def lay_implicit(t0, t1, cfl):
        pieces = max(1, math.ceil(cfl / CFL_CAP - 1e-12))
        for p in range(1, pieces + 1):
            times.append(t1 if p == pieces else t0 + (t1 - t0) * p / pieces)
            modes.append(ss.IMPLICIT)

    if strategy == "fully_implicit":
        for i in range(n_seg):
            lay_implicit(edges[i], edges[i + 1], seg_cfl[i])
    else:
        i = 0
        while i < n_seg:
            if seg_cfl[i] >= CFL_SWITCH:
                lay_implicit(edges[i], edges[i + 1], seg_cfl[i])
                i += 1
                continue
            j = i
            s_max = 0.0
            while j < n_seg and seg_cfl[j] < CFL_SWITCH:
                s_max = max(s_max, seg_speed[j])
                j += 1
            ta, tb = edges[i], edges[j]
            span = tb - ta
            if s_max > 0.0:
                ne = max(1, math.ceil(span * s_max / (cfg.cfl_explicit * h) - 1e-12))
            else:
                ne = 1
            for p in range(1, ne + 1):
                times.append(tb if p == ne else ta + span * p / ne)
                modes.append(ss.EXPLICIT)
            i = j

    part = ss.TimePartition(times=np.array(times),
                            modes=np.array(modes, dtype=np.int8))
    cfl = part.steps * speed_profile.max_over(part.times[:-1], part.times[1:]) / h
    return ss.AdaptationPlan(partition=part, stats=ss.PlanStats.of(part, cfl))


def percent_rows(cols, modes=None, mode_at=0) -> str:
    """The rows the CSV writer formatted in Python, before
    `_core.format_rows`: every value as `'%.5e' % value`, and with `modes`
    the word explicit or implicit before column `mode_at`."""
    fmt = ["%.5e"] * len(cols)
    rows = zip(*(np.asarray(c).tolist() for c in cols))
    if modes is not None:
        fmt.insert(mode_at, "%s")
        names = [{EXPLICIT: "explicit", IMPLICIT: "implicit"}[m]
                 for m in np.asarray(modes).tolist()]
        rows = (row[:mode_at] + (name,) + row[mode_at:]
                for row, name in zip(rows, names))
    fmt = ",".join(fmt) + "\n"
    return "".join([fmt % row for row in rows])


def bisect_departure(target, p, scale):
    """The root of departure(tau) = target over window p's [a, b]: 48
    bisection levels, each comparing numpy's `_departure` with the target,
    and the final mid."""
    _, a, b = p[:3]
    lo, hi = np.full(target.shape, a), np.full(target.shape, b)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        takes_hi = testcase._departure(mid, p, scale) < target
        lo = np.where(takes_hi, mid, lo)
        hi = np.where(takes_hi, hi, mid)
    return 0.5 * (lo + hi)
