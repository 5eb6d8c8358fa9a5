"""Error-density driven time adaptation.

Per-interval temporal error densities are turned into a new partition by
equidistribution: each old interval proposes steps k_m = k_n * (tol/T) /
density, laid out consecutively and clipped so a long step never tramples
a later region that demands finer resolution.  A switching policy then
tags each step implicit or explicit: a step at planning CFL >= CFL_SWITCH
stays implicit, split into pieces of CFL at most CFL_CAP, and runs of
sub-threshold CFL proposals are merged and re-tiled with uniform explicit
steps.  Both walks run in the compiled core (`_core.c`), on the same double
operations as the loops `tests/oracles.py` keeps on numpy scalars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _core
from ._core import ptr
from .dual import build_coefficient_field, solve_dual_gradient
from .estimator import ErrorBreakdown, assemble_breakdown
# speed_for_basis is unused here: bench/run.py --trace 1 imports it from here
from .forward import (ForwardTrajectory, run_forward, speed_for_basis,
                      uniform_cfl_partition)
from .grid import EXPLICIT, SpatialGrid, TimePartition, build_spatial_grid

FLOOR_SCALE = 1e-14
CFL_SWITCH = 5.0
CFL_CAP = 1e4


@dataclass
class AdaptationConfig:
    tol_k: Optional[float] = None
    tol_total: Optional[float] = None
    cfl_explicit: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.cfl_explicit < CFL_SWITCH):
            raise ValueError(f"need 0 < cfl_explicit < {CFL_SWITCH}")
        for name in ("tol_k", "tol_total"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive")


@dataclass
class PlanStats:
    N: int
    N_explicit: int
    N_implicit: int
    cfl_min: float
    cfl_max: float

    @classmethod
    def of(cls, part: TimePartition, cfl: np.ndarray) -> "PlanStats":
        """Step counts by mode and the CFL range of a partition."""
        n_exp = int(np.sum(part.modes == EXPLICIT))
        return cls(N=part.interval_count, N_explicit=n_exp,
                   N_implicit=part.interval_count - n_exp,
                   cfl_min=float(np.min(cfl)), cfl_max=float(np.max(cfl)))


@dataclass
class AdaptationPlan:
    partition: TimePartition
    stats: PlanStats


@dataclass
class SpeedProfile:
    """Piecewise-constant-in-time wave-speed bound from a finished run."""
    times: np.ndarray
    values: np.ndarray  # per interval of `times`

    @classmethod
    def from_trajectory(cls, traj: ForwardTrajectory) -> "SpeedProfile":
        """Per interval, max|f'| over both end states and the inflow the
        march read there (`traj.g`), from the march's row reductions."""
        node = traj.reduced.speeds
        return cls(times=traj.partition.times.copy(),
                   values=np.maximum(node[:-1], node[1:]))

    def max_over(self, ta, tb):
        """Largest value over each window [ta, tb] (scalars or arrays).

        A window covers the intervals it overlaps; one that lies wholly
        before or beyond the profile gets the nearest end value.
        """
        nv = len(self.values)
        lo = np.clip(np.searchsorted(self.times, ta, side="right") - 1, 0, nv - 1)
        hi = np.clip(np.searchsorted(self.times, tb, side="left"), lo + 1, nv)
        # reduceat over the interleaved (lo, hi) pairs; even slots are the
        # window maxima, the appended 0 makes hi = nv a valid index
        bounds = np.stack((lo, hi), axis=-1).ravel()
        out = np.maximum.reduceat(np.append(self.values, 0.0), bounds)[::2]
        # of equal values np.maximum keeps the later, max() the first; only
        # a zero's sign tells them apart
        for i in np.flatnonzero(out == 0.0):
            out[i] = max(self.values[bounds[2 * i]:bounds[2 * i + 1]])
        return float(out[0]) if np.ndim(ta) == 0 and np.ndim(tb) == 0 else out


def propose_timesteps(old: TimePartition, densities: np.ndarray,
                      cfg: AdaptationConfig) -> np.ndarray:
    """Raw step sizes tiling [0, T] by equidistribution of the densities.

    Walking forward from t, the candidate step is the local k_m; scanning
    the old boundaries it would cross, the step is cut back to the first
    boundary whose local k_m is smaller than the gap that would remain
    beyond it.  The walk must also run for bridging steps that already
    reach past T, otherwise a zero-density span swallows every later
    active region in one jump.
    """
    densities = np.asarray(densities, dtype=float)
    if densities.size == 0:
        raise ValueError("empty density sequence")
    if densities.size != old.interval_count:
        raise ValueError("densities misaligned with partition")
    if not np.all(np.isfinite(densities) & (densities >= 0.0)):
        raise ValueError("densities must be finite and nonnegative")
    if cfg.tol_k is None:
        raise ValueError("tol_k required to propose steps")
    T = old.T
    k_old = old.steps
    floor = FLOOR_SCALE * cfg.tol_k / T
    km = k_old * (cfg.tol_k / T) / np.maximum(densities, floor)
    # the walk runs in the compiled core, twice: it counts the times,
    # then fills an array of that length
    core, t_old, stuck = _core.lib(), np.ascontiguousarray(old.times), np.empty(2)
    args = (km.size, ptr(t_old), ptr(km), T)
    count = core.propose_walk(*args, None, ptr(stuck))
    if count == -1:
        # a huge density makes k_m vanish next to t: the walk would
        # append the same time forever
        step, t = stuck.tolist()
        raise ValueError(f"a step of {step!r} at t = {t!r} does not advance "
                         f"the partition (density too large for tol_k)")
    if count == -2:
        need, t = stuck.tolist()
        raise MemoryError(f"the plan needs at least {need:.3g} steps from "
                          f"t = {t!r}, more than an address space holds "
                          f"(density too large for tol_k)")
    new_times = np.empty(count)
    core.propose_walk(*args, ptr(new_times), ptr(stuck))
    new_times[-1] = T
    return np.diff(new_times)


def assign_modes(raw: np.ndarray, speed_profile: SpeedProfile,
                 cfg: AdaptationConfig, h: float,
                 strategy: str = "imex") -> AdaptationPlan:
    """Tag proposed steps implicit/explicit and re-tile as needed.  The raw
    steps tile [0, T], T the end of the speed profile's span.

    imex: steps with planning CFL >= CFL_SWITCH stay implicit (split only
    beyond CFL_CAP); maximal runs below the threshold are replaced by
    uniform explicit stepping at cfl_explicit over the same span.
    fully_implicit: every step implicit, cap-splitting only.
    """
    raw = np.asarray(raw, dtype=float)
    edges = np.concatenate(([0.0], np.cumsum(raw)))
    T = float(speed_profile.times[-1])
    if abs(edges[-1] - T) > 1e-9 * T:
        raise ValueError("raw steps do not tile [0, T]")
    edges[-1] = T
    n_seg = raw.size
    seg_speed = np.ascontiguousarray(speed_profile.max_over(edges[:-1], edges[1:]))
    seg_cfl = (edges[1:] - edges[:-1]) * seg_speed / h
    if strategy not in ("imex", "fully_implicit"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if np.isnan(seg_cfl).any():
        raise ValueError("a planning CFL is NaN")
    # fully_implicit is imex with every CFL at or above the switch
    switch = CFL_SWITCH if strategy == "imex" else -math.inf
    # the compiled core lays the steps twice: it counts them, then fills
    # arrays of that length
    core = _core.lib()
    args = (n_seg, ptr(edges), ptr(seg_speed), ptr(seg_cfl), switch, CFL_CAP,
            cfg.cfl_explicit * h)
    count = core.lay_steps(*args, None, None)
    if count < 0:
        i = -count - 1
        raise MemoryError(f"the plan needs more steps than a long counts from "
                          f"segment {i} on (planning CFL {seg_cfl[i]:.3g})")
    times, modes = np.empty(count + 1), np.empty(count, np.int8)
    core.lay_steps(*args, ptr(times), ptr(modes, np.int8))
    part = TimePartition(times=times, modes=modes)
    cfl = part.steps * speed_profile.max_over(part.times[:-1], part.times[1:]) / h
    return AdaptationPlan(partition=part, stats=PlanStats.of(part, cfl))


def tolerance_schedule(rule: str, prior: Sequence[float],
                       factor: Optional[float] = None,
                       current_tol: Optional[float] = None) -> float:
    if rule == "halve":
        if current_tol is None:
            raise ValueError("halve rule needs the current tolerance")
        return 0.5 * current_tol
    if rule == "match_previous":
        if not len(prior):
            raise ValueError("match_previous rule needs a measured density")
        return float(prior[-1])
    if rule == "scaled_ref":
        if not len(prior):
            raise ValueError("scaled_ref rule needs the reference measurement")
        if factor is None:
            raise ValueError("scaled_ref rule needs a factor")
        return float(factor) * float(prior[0])
    raise ValueError(f"unknown tolerance rule {rule!r}")


@dataclass
class LevelReport:
    """A finished level's results, not its run: no states are kept, and
    `run_forward(grid, partition, case)` rebuilds the run with every bit."""
    level: int
    grid: SpatialGrid
    partition: TimePartition
    breakdown: ErrorBreakdown
    stats: PlanStats                 # the planner's for a planned level
    profile: SpeedProfile            # of the run, plans the next level
    tol_k: Optional[float] = None

    @property
    def cfl_series(self) -> np.ndarray:
        """Realized CFL per interval, from the trajectory's speed profile."""
        return self.partition.steps * self.profile.values / self.grid.h


def solve_level(level: int, grid: SpatialGrid, partition: TimePartition,
                case, dual_cfl: float) -> LevelReport:
    """Forward solve, dual gradient and error breakdown on one partition.

    The report keeps the finished trajectory's speed profile, which gives
    the realized CFL series and plans the next level; its stats come from
    that series, and the adaptive loop puts the planner's in their place.
    No stage reads all N + 1 states: the breakdown's sweep reads each block
    once (`ForwardTrajectory.rows`), the rest the row reductions.
    """
    traj = run_forward(grid, partition, case)
    dual = solve_dual_gradient(build_coefficient_field(traj), case, dual_cfl)
    br = assemble_breakdown(dual, case)
    profile = SpeedProfile.from_trajectory(traj)
    stats = PlanStats.of(partition, partition.steps * profile.values / grid.h)
    return LevelReport(level=level, grid=grid, partition=partition,
                       breakdown=br, stats=stats, profile=profile)


def adaptive_loop(case, cfg: AdaptationConfig, levels: Sequence[int],
                  rule: str, *, strategy: str = "imex", base_cells: int = 20,
                  speed_basis: str = "global", factor=None,
                  dual_cfl: float = 0.8) -> list:
    """Run the multi-level loop: uniform explicit base run, then per level
    a tolerance from the schedule, a proposed partition, a mode assignment,
    and a full solve/dual/estimate pass.  Stops early once the combined
    density drops below tol_total (when set)."""
    if not len(levels):
        raise ValueError("empty level schedule")
    n_adapt = len(levels) - 1
    if factor is None or np.isscalar(factor):
        factors = [factor] * n_adapt
    else:
        factors = list(factor)
        if len(factors) != n_adapt:
            raise ValueError("one factor per adaptive level required")
    # a rule the schedule refuses is refused by its own checks before the
    # base level is solved: they read no value of the measured densities,
    # for which 1.0 stands in
    for f in factors:
        tolerance_schedule(rule, [1.0], factor=f, current_tol=cfg.tol_k)

    reports: list = []
    priors: list = []
    current_tol = cfg.tol_k

    for idx, level in enumerate(levels):
        grid = build_spatial_grid(base_cells, level, case.domain)
        if idx == 0:
            part = uniform_cfl_partition(case, grid, cfg.cfl_explicit,
                                         speed_basis)
            rep = solve_level(level, grid, part, case, dual_cfl)
        else:
            prev = reports[-1]
            tol = tolerance_schedule(rule, priors, factor=factors[idx - 1],
                                     current_tol=current_tol)
            current_tol = tol
            local = replace(cfg, tol_k=tol)
            raw = propose_timesteps(prev.partition, prev.breakdown.eta_k_bar_n,
                                    local)
            plan = assign_modes(raw, prev.profile, local, grid.h, strategy)
            rep = replace(solve_level(level, grid, plan.partition, case,
                                      dual_cfl), tol_k=tol, stats=plan.stats)
        reports.append(rep)
        priors.append(rep.breakdown.eta_k_bar)
        if cfg.tol_total is not None and rep.breakdown.eta_bar < cfg.tol_total:
            break
    return reports
