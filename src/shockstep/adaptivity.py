"""Error-density driven time adaptation.

Per-interval temporal error densities are turned into a new partition by
equidistribution: each old interval proposes steps k_m = k_n * (tol/T) /
density, laid out consecutively and clipped so a long step never tramples
a later region that demands finer resolution.  A switching policy then
tags each step implicit or explicit: a step at planning CFL >= CFL_SWITCH
stays implicit, split into pieces of CFL at most CFL_CAP, and runs of
sub-threshold CFL proposals are merged and re-tiled with uniform explicit
steps.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dual import build_coefficient_field, solve_dual_gradient
from .estimator import ErrorBreakdown, assemble_breakdown
# speed_for_basis is unused here: bench/run.py --trace 1 imports it from here
from .forward import (ForwardTrajectory, run_forward, speed_for_basis,
                      uniform_cfl_partition)
from .grid import (EXPLICIT, IMPLICIT, SpatialGrid, TimePartition,
                   build_spatial_grid)

FLOOR_SCALE = 1e-14
CFL_SWITCH = 5.0
CFL_CAP = 1e4


@dataclass
class AdaptationConfig:
    T: float
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
        march read there (`traj.g`)."""
        fprime = traj.flux.fprime
        # max|f'| per row without an |f'| table: for Burgers f'(u) is a
        # view of the states, so this allocates nothing of their size
        a = fprime(traj.states)
        state_speed = np.maximum(a.max(axis=1), -a.min(axis=1))
        node = np.maximum(state_speed, np.abs(fprime(traj.g)))
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
    floor = FLOOR_SCALE * cfg.tol_k / cfg.T
    km = k_old * (cfg.tol_k / T) / np.maximum(densities, floor)
    # the walk runs on Python floats: the same IEEE operations as on numpy
    # scalars, and bisect_left is searchsorted's side="left"
    km = km.tolist()
    t_old = old.times.tolist()
    new_times = [0.0]
    t = 0.0
    eps = 1e-12 * T
    while t < T - eps:
        n = bisect.bisect_left(t_old, t + eps) - 1
        n = min(max(n, 0), len(km) - 1)
        step = km[n]
        m = n + 1
        while m < len(km):
            b = t_old[m]
            if b >= t + step:
                break
            if km[m] < (t + step) - b:
                step = b - t
                break
            m += 1
        if t + step > T:
            step = T - t
        if t + step == t:
            # a huge density makes k_m vanish next to t: the walk would
            # append the same time forever
            raise ValueError(f"a step of {step!r} at t = {t!r} does not advance "
                             f"the partition (density too large for tol_k)")
        t += step
        new_times.append(t)
    new_times[-1] = T
    return np.diff(np.array(new_times))


def assign_modes(raw: np.ndarray, speed_profile: SpeedProfile,
                 cfg: AdaptationConfig, h: float,
                 strategy: str = "imex") -> AdaptationPlan:
    """Tag proposed steps implicit/explicit and re-tile as needed.

    imex: steps with planning CFL >= CFL_SWITCH stay implicit (split only
    beyond CFL_CAP); maximal runs below the threshold are replaced by
    uniform explicit stepping at cfl_explicit over the same span.
    fully_implicit: every step implicit, cap-splitting only.
    """
    raw = np.asarray(raw, dtype=float)
    edges = np.concatenate(([0.0], np.cumsum(raw)))
    T = cfg.T
    if abs(edges[-1] - T) > 1e-9 * T:
        raise ValueError("raw steps do not tile [0, T]")
    edges[-1] = T
    n_seg = raw.size
    seg_speed = speed_profile.max_over(edges[:-1], edges[1:])
    seg_cfl = (edges[1:] - edges[:-1]) * seg_speed / h
    # the loops below run on Python floats, the same IEEE operations
    edges, seg_speed, seg_cfl = edges.tolist(), seg_speed.tolist(), seg_cfl.tolist()

    times = [0.0]
    modes: list = []

    def lay_implicit(t0, t1, cfl):
        pieces = max(1, math.ceil(cfl / CFL_CAP - 1e-12))
        for p in range(1, pieces + 1):
            times.append(t1 if p == pieces else t0 + (t1 - t0) * p / pieces)
            modes.append(IMPLICIT)

    if strategy == "fully_implicit":
        for i in range(n_seg):
            lay_implicit(edges[i], edges[i + 1], seg_cfl[i])
    elif strategy == "imex":
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
                modes.append(EXPLICIT)
            i = j
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    part = TimePartition(times=np.array(times), modes=np.array(modes, dtype=np.int8))
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
    `run_forward(grid, partition, case)` rebuilds them bit for bit."""
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
    """
    traj = run_forward(grid, partition, case)
    coeff = build_coefficient_field(traj)
    dual = solve_dual_gradient(coeff, case, dual_cfl)
    br = assemble_breakdown(traj, coeff, dual, case)
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
