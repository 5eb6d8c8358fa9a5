"""Perturbed stationary-shock benchmark.

A standing unit shock at x = 1/2 is wiggled by two smooth, compactly
supported perturbations of its position.  Prescribing the shock path s(t)
fixes, through the jump condition with frozen right state -1, the pre-shock
value u_L(tau) = 1 + 2*sdot(tau), and tracing the straight characteristic
carrying that value back to the inflow boundary x = 0 yields the left
boundary data g(t).  The target functional is a bump-weighted space-time
mean of the solution.

g(t) comes from a table of 48-level bisection roots of the departure map,
pinned bit for bit.  Its comparisons go through the compiled core's
departure filter, which decides each one whose outcome its error bound
certifies; numpy's exact map decides the close calls and gives every
table value, so the filter changes no bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from ._core import ptr
from .forward import BurgersFlux

T_END = 48.0
SHOCK_X0 = 0.5
WEIGHT_CENTER = 0.45
WEIGHT_HALFWIDTH = 0.2

_OMEGA = 2.0 * np.pi / 3.0
# One row per perturbation: (amplitude, shock window [a, b),
# inflow departure window (lo, hi)).
_PERTURBATIONS = ((7.5e-3, 12.0, 18.0, 11.5, 17.5),
                  (0.5e-3, 30.0, 36.0, 29.5, 35.5))
_TABLE_DT = 1e-4
_BISECT_ITERS = 48
_NODE_LEVEL = 16    # bisection levels resolved on shared nodes
_SNAP_LEVEL = 44    # dyadic level the root guess snaps to
_MAX_SHIFTS = 3
_PEAK_SEEDS = 8    # nodes per window filled first for the peak
_SAMPLE_DT = 1e-3   # spacing of the characteristic check's shock times


def _window_path(t, p, scale):
    """Shock position and speed inside one window, t an array in [a, b).

    theta(t) = amp (t-a)^4 (t-b)^4 / ((b-a)/2)^8 peaks at amp mid-window.
    Keep `**` and the operation order: the inflow table is pinned bit for
    bit, and repeated multiplication rounds differently.
    """
    amp, a, b = p[:3]
    norm = (0.5 * (b - a)) ** 8
    ta, tb = t - a, t - b
    ta4, tb4 = ta ** 4, tb ** 4
    theta = amp * ta4 * tb4 / norm
    dtheta = amp * 4.0 * (ta ** 3 * tb4 + ta4 * tb ** 3) / norm
    arg = _OMEGA * ta
    sin = np.sin(arg)
    s = SHOCK_X0 + scale * theta * sin
    sdot = scale * (dtheta * sin + theta * _OMEGA * np.cos(arg))
    return s, sdot


def _shock_path(t, scale):
    """(s, sdot) at every t: SHOCK_X0 and 0 outside the windows; the
    quartic contact factors keep s C^3 at the window ends."""
    t = np.asarray(t, dtype=float)
    s = np.full(t.shape, SHOCK_X0)
    sdot = np.zeros(t.shape)
    for p in _PERTURBATIONS:
        m = (t >= p[1]) & (t < p[2])
        if np.any(m):
            s[m], sdot[m] = _window_path(t[m], p, scale)
    return s, sdot


def _departure_time(tau, s, sdot):
    # characteristic carrying u_L leaves x=0 at tau - s/u_L
    uL = 1.0 + 2.0 * sdot
    return tau - s / uL, uL


def _departure(tau, p, scale):
    return _departure_time(tau, *_window_path(tau, p, scale))[0]


def _filter(tau, p, scale, x=None):
    """The compiled core's departure filter on window p
    (`departure_filter` in `_core.c`).  Without targets: its fast
    departure values and shock speeds at tau, close to `_window_path`'s
    but not its bits.  With targets x, one per point: one verdict per
    point, 1 where `_departure(tau) < x`, 0 where not, -1 where the
    filter cannot tell."""
    amp, a, b = p[:3]
    w = np.array([amp, a, b, (0.5 * (b - a)) ** 8, scale, _OMEGA, SHOCK_X0])
    tau = np.ascontiguousarray(tau, dtype=float)
    fn = _core.lib().departure_filter
    if x is None:
        dep, sdot = np.empty_like(tau), np.empty_like(tau)
        fn(tau.size, ptr(tau), ptr(w), None, ptr(dep), ptr(sdot), None)
        return dep, sdot
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != tau.shape:
        raise ValueError(f"{x.size} targets for {tau.size} points")
    verdict = np.empty(tau.shape, np.int8)
    fn(tau.size, ptr(tau), ptr(w), ptr(x), None, None, ptr(verdict, np.int8))
    return verdict


def _below(tau, x, p, scale):
    """`_departure(tau, p, scale) < x` at every point, bit for bit: the
    filter decides the points whose fast departure lies clearly on one
    side of x, and numpy's map evaluates only the rest."""
    verdict = _filter(tau, p, scale, x)
    u = np.flatnonzero(verdict < 0)
    if u.size:
        verdict[u] = _departure(tau[u], p, scale) < x[u]
    return verdict.view(bool)


def _bisect(lo, hi, target, p, scale, levels):
    """`levels` bisection steps for departure(tau) = target, tau in
    [lo, hi]; returns the final mid."""
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        takes_hi = _below(mid, target, p, scale)
        lo = np.where(takes_hi, mid, lo)
        hi = np.where(takes_hi, hi, mid)
    return 0.5 * (lo + hi)


def _node_spacing(p):
    """Width of window p's level-16 cells."""
    return (p[2] - p[1]) / 2 ** _NODE_LEVEL


def _node_pass(p, scale):
    """The filter's fast departure values v and shock speeds sdot on the
    2**16 + 1 level-16 dyadic nodes of window p.  The departure map
    divides by u_L = 1 + 2 sdot, and sdot moves at most L D between
    nodes, so a window where 1 + 2 (min sdot - L D) is not positive, also
    NaN from a non-finite scale, is refused."""
    D = _node_spacing(p)
    v, sdot = _filter(p[1] + D * np.arange(2 ** _NODE_LEVEL + 1), p, scale)
    if not 1.0 + 2.0 * (np.min(sdot) - _speed_lipschitz(p, scale) * D) > 0.0:
        raise ValueError(f"window [{p[1]:g}, {p[2]:g}) at perturbation_scale "
                         f"{scale!r}: the carried value 1 + 2 sdot can reach 0 "
                         "or is not finite")
    return v, sdot


def _passes_gate(v, p):
    """Node values rising everywhere with slope >= 1/2."""
    return bool(np.min(np.diff(v)) >= 0.5 * _node_spacing(p))


def _departure_roots(target, p, scale, v):
    """The root tau of departure(tau) = target in [a, b], bit for bit what
    `_BISECT_ITERS` bisection levels from [a, b] give; v are the window's
    fast node values from `_node_pass`, computed once per window and
    scale by the caller.

    Every comparison goes through `_below`, so its outcome is numpy's,
    whichever side decides it.  a, b and b - a are small integers, so
    every bisection mid through the last level is exactly the dyadic node
    a + (b-a) i / 2**L of its level L.  Bisection ends in the level-L cell
    whose endpoints pass their own comparisons (lo below the target, hi
    not) and all of whose ancestor mids pass theirs; the fast path finds
    that cell at level 44 and bisects only the remaining levels:

    1. When the fast node values rise everywhere with slope >= 1/2 (the
       gate), `searchsorted` finds the level-16 cell j where they cross
       the target.
    2. Guess by linear interpolation inside that cell, take one chord
       step from the guess with the filter's fast map and the cell's
       slope, and snap to the level-44 cell [lo, hi] around it.
    3. Verify: departure(lo) < target and not departure(hi) < target.
       Bisection never evaluates a and b, but the map sends them to the
       departure window's ends, which the targets lie strictly inside,
       so those checks pass as they should.  A failing cell shifts by
       one, at most `_MAX_SHIFTS` times and only inside cell j.
    4. Bisect levels 45-48 and take the final mid with `_bisect`.  Points
       left unverified run all 48 levels from [a, b] instead: cell j
       comes from the fast values, so it need not be bisection's own.

    Why a verified cell is the one bisection reaches: every skipped
    ancestor mid (levels 1-44) lies on the level-44 grid, so at least one
    level-44 width, 6 * 2**-44 = 3.4e-13, beyond the verified endpoint on
    its side.  The fast node values lie within about 2e-15 of the map,
    so the gated secants over the level-16 cells (width 9.2e-5) are the
    map's own to 5e-11, and the smooth map's slope inside a cell stays
    close to its secant: the map rises with slope >= 1/2 (>= 0.96 at
    scale 1) across the window.  It moves at least 1.7e-13 between the
    endpoint and any skipped mid, while numpy's rounding error is about
    2e-14, so every skipped comparison agrees with the checked one.  The
    snap level stays well below the last one: a level-48 width is
    2.1e-14, no larger than the rounding error.  Windows whose nodes fail
    the gate (the invalid cases, scale 80 and 100) run all levels with
    `_bisect`.  The gate, the cell and the guess only choose the path;
    they decide no comparison.
    """
    _, a, b = p[:3]
    nodes = 2 ** _NODE_LEVEL
    h = _node_spacing(p)
    if not _passes_gate(v, p):
        return _bisect(np.full(target.shape, a), np.full(target.shape, b),
                       target, p, scale, _BISECT_ITERS)
    j = np.clip(np.searchsorted(v, target) - 1, 0, nodes - 1)
    slope = (v[j + 1] - v[j]) / h
    guess = a + h * j + (target - v[j]) / slope
    guess += (target - _filter(guess, p, scale)[0]) / slope
    cells = 2 ** (_SNAP_LEVEL - _NODE_LEVEL)
    w = h / cells
    first = j * cells
    k = np.clip(np.floor((guess - a) / w).astype(np.int64),
                first, first + cells - 1)
    verified = np.zeros(target.shape, dtype=bool)
    todo = np.arange(target.size)
    for _ in range(_MAX_SHIFTS + 1):
        lo, hi = a + w * k[todo], a + w * (k[todo] + 1)
        x = target[todo]
        below = _below(np.concatenate([lo, hi]), np.concatenate([x, x]), p,
                       scale)
        lo_ok = below[:todo.size]
        hi_ok = ~below[todo.size:]
        verified[todo] = lo_ok & hi_ok
        # -1 when the root lies left of the cell, +1 right, 0 when done or
        # when both checks fail (the map is not monotone there)
        shift = lo_ok.astype(np.int64) - hi_ok
        k[todo] += shift
        todo = todo[(shift != 0) & (k[todo] >= first[todo])
                    & (k[todo] < first[todo] + cells)]
    tau = np.empty_like(target)
    ok, bad = verified, np.flatnonzero(~verified)
    tau[ok] = _bisect(a + w * k[ok], a + w * (k[ok] + 1), target[ok], p,
                      scale, _BISECT_ITERS - _SNAP_LEVEL)
    if bad.size:
        tau[bad] = _bisect(np.full(bad.size, a), np.full(bad.size, b),
                           target[bad], p, scale, _BISECT_ITERS)
    return tau


def _invert_departure(t0, p, scale, v=None):
    """Inflow g(t0) over one window's departure grid: the root of
    departure(tau) = t0 for tau in [a, b], g = 1 at and beyond the
    departure window's ends.  v: the window's node values, from
    `_node_pass` when not given."""
    lo_t, hi_t = p[3:]
    g = np.ones_like(t0)
    m = (t0 > lo_t) & (t0 < hi_t)
    if v is None:
        v = _node_pass(p, scale)[0]
    tau = _departure_roots(t0[m], p, scale, v)
    g[m] = 1.0 + 2.0 * _window_path(tau, p, scale)[1]
    return g


def _speed_lipschitz(p, scale):
    """L >= |s''| over window p (see `_table_skeleton`)."""
    amp, a, b = p[:3]
    c = 0.5 * (b - a)
    return abs(scale) * amp * (16.0 / c ** 2 + 4.0 * _OMEGA / c + _OMEGA ** 2)


def _fill(gg, tg, idx, p, scale, v):
    """Root-find the nodes idx of one window's table that are still NaN;
    idx None means every node."""
    if idx is None:
        idx = np.flatnonzero(np.isnan(gg))
    else:
        # the sorted distinct nodes of idx, as np.unique gives them, without
        # np.unique's import of numpy.ma
        need = np.zeros(gg.size, dtype=bool)
        need[idx] = True
        idx = np.flatnonzero(need & np.isnan(gg))
    if idx.size:
        gg[idx] = _invert_departure(tg[idx], p, scale, v)


def _table_times(p):
    """One window's table nodes: spacing `_TABLE_DT` over its departure
    window, the last node on the window's end."""
    d_lo, d_hi = p[3:]
    n = int(round((d_hi - d_lo) / _TABLE_DT))
    tg = d_lo + _TABLE_DT * np.arange(n + 1)
    tg[-1] = d_hi
    return tg


def _table_skeleton(pieces_t, scale):
    """Each window's node values v and a g table with NaN at every node
    not filled yet, and the exact inflow peak max|g| over all nodes.

    The peak fills only the nodes that could hold it.  Under the slope
    gate the root of table node t0 lies in the level-16 cell
    [tau_j, tau_j + D] that `searchsorted(v, t0)` finds (`_departure_roots`,
    step 1), up to about 1e-14 past its ends, where the fast node values
    and numpy's map may part.  With u = (t - (a+b)/2) / c, c = (b-a)/2, the window's
    theta = amp (u^2-1)^4 has |theta| <= amp, |theta'| <= 2 amp / c and
    |theta''| = amp |8 (u^2-1)^3 + 48 u^2 (u^2-1)^2| / c^2 <= 16 amp / c^2,
    so s = x0 + scale theta sin(w (t-a)) has
    |s''| <= L = |scale| amp (16/c^2 + 4w/c + w^2).  Inside the cell sdot
    then stays within L D of the nodes' sdot_j, sdot_(j+1), which bounds
    |g| = |1 + 2 sdot| by the larger end of
    1 + 2 [min(sdot_j, sdot_(j+1)) - L D, max(sdot_j, sdot_(j+1)) + L D];
    1e-12 more covers rounding, the fast sdot's error of about 1e-16 and
    L times the 1e-14 a root may lie past the cell.  Filling the `_PEAK_SEEDS` nodes with the
    largest bounds in each window gives an exact |g| `best`; every other
    node whose bound reaches `best` is filled too, and the nodes left
    have |g| below `best`.  A window failing the gate gets an infinite
    bound and fills completely.  Scale 1 fills about 220 nodes; at scale
    0 (L = 0) every g = 1 + 2 * 0 is exactly 1, so no node root-finds.
    """
    pieces_g, nodes_v, bounds = [], [], []
    for p, tg in zip(_PERTURBATIONS, pieces_t):
        v, sdot = _node_pass(p, scale)
        bound = np.full(tg.shape, np.inf)
        reach = _speed_lipschitz(p, scale) * _node_spacing(p)
        if _passes_gate(v, p):
            j = np.clip(np.searchsorted(v, tg) - 1, 0, v.size - 2)
            hi = np.maximum(sdot[j], sdot[j + 1]) + reach
            lo = np.minimum(sdot[j], sdot[j + 1]) - reach
            bound = np.maximum(np.abs(1.0 + 2.0 * hi),
                               np.abs(1.0 + 2.0 * lo)) + 1e-12
        pieces_g.append(np.full(tg.shape, np.nan if reach else 1.0))
        nodes_v.append(v)
        bounds.append(bound)
    windows = list(zip(pieces_t, pieces_g, _PERTURBATIONS, nodes_v, bounds))
    for tg, gg, p, v, bound in windows:
        seeds = np.argpartition(bound, -_PEAK_SEEDS)[-_PEAK_SEEDS:]
        _fill(gg, tg, seeds, p, scale, v)
    best = max(np.nanmax(np.abs(gg)) for gg in pieces_g)
    for tg, gg, p, v, bound in windows:
        _fill(gg, tg, np.flatnonzero(bound >= best), p, scale, v)
    peak = float(max(np.nanmax(np.abs(gg)) for gg in pieces_g))
    return pieces_g, nodes_v, peak


def weight_and_derivative(x):
    """Bump weight psi(x) = exp(-1/(1-y^2)), y=(x-0.45)/0.2, and d/dx psi."""
    x = np.asarray(x, dtype=float)
    y = (x - WEIGHT_CENTER) / WEIGHT_HALFWIDTH
    psi = np.zeros_like(y)
    dpsi = np.zeros_like(y)
    m = np.abs(y) < 1.0
    ym = y[m]
    q = 1.0 - ym ** 2
    psi[m] = np.exp(-1.0 / q)
    dpsi[m] = psi[m] * (-2.0 * ym / q ** 2) / WEIGHT_HALFWIDTH
    if psi.ndim == 0:
        return float(psi), float(dpsi)
    return psi, dpsi


class PerturbedShockCase:
    """Benchmark problem definition.

    Inflow queries go through a lookup table (spacing 1e-4, linear
    interpolation).  Root-finding per flux evaluation would dominate the
    runtime while the interpolation error is far below discretization
    error.  Each node's root is bit for bit what plain bisection on
    numpy's departure map gives; the compiled filter decides most of its
    comparisons, numpy the close calls.  The table is filled node by
    node, bit for bit the full table:
    a query root-finds only the two nodes around each queried time that
    are not filled yet, and the first use per scale runs the node pass
    and finds the exact peak from a bound on |g| per node, filling only
    the few hundred nodes that bound cannot rule out (`_table_skeleton`).
    A scale where u_L = 1 + 2 sdot can reach 0, or a non-finite one, has
    no inflow (`_node_pass`), and a non-finite query time is refused.
    """

    def __init__(self, perturbation_scale: float = 1.0):
        self.perturbation_scale = perturbation_scale
        self.T = T_END
        self.domain = (0.0, 1.0)
        self.flux = BurgersFlux()
        self._table_t = [_table_times(p) for p in _PERTURBATIONS]
        self._table = None

    # ---- inflow table ----
    def _ensure_table(self, need=None):
        """(pieces_t, pieces_g) with the nodes in `need`, one index array
        per window, filled; None fills every node and () none.  The
        skeleton is rebuilt when perturbation_scale has changed since the
        last build, so the inflow never lags the scale."""
        scale = self.perturbation_scale
        if self._table is None or self._table[0] != scale:
            self._table = (scale,) + _table_skeleton(self._table_t, scale)
        _, pieces_g, nodes_v, _ = self._table
        for p, tg, gg, v, idx in zip(
                _PERTURBATIONS, self._table_t, pieces_g, nodes_v,
                [None] * len(pieces_g) if need is None else need):
            _fill(gg, tg, idx, p, scale, v)
        return self._table_t, pieces_g

    def inflow_value(self, t):
        t = np.asarray(t, dtype=float)
        # min and max propagate NaN, with no temporary the size of t
        if t.size and not (np.isfinite(t.min()) and np.isfinite(t.max())):
            raise ValueError("inflow times must be finite")
        inside = [(t > tg[0]) & (t < tg[-1]) for tg in self._table_t]
        # np.interp reads the two nodes around each time
        cells = [np.searchsorted(tg, t[m], side="right") - 1
                 for tg, m in zip(self._table_t, inside)]
        pieces_t, pieces_g = self._ensure_table(
            [np.concatenate([j, j + 1]) for j in cells])
        g = np.ones_like(t)
        for tg, gg, m in zip(pieces_t, pieces_g, inside):
            if np.any(m):
                g[m] = np.interp(t[m], tg, gg)
        return float(g) if g.ndim == 0 else g

    def inflow_peak(self) -> float:
        self._ensure_table(need=())
        _, _, _, peak = self._table
        return peak

    # ---- initial data and weight ----
    def initial_cell_averages(self, edges) -> np.ndarray:
        edges = np.asarray(edges, dtype=float)
        widths = np.diff(edges)
        left_frac = np.clip((SHOCK_X0 - edges[:-1]) / widths, 0.0, 1.0)
        return 2.0 * left_frac - 1.0

    def weight(self, x):
        return weight_and_derivative(x)[0]

    def weight_gradient(self, x):
        return weight_and_derivative(x)[1]


@dataclass
class CharacteristicsReport:
    monotone_departure: bool
    min_inflow_value: float
    min_departure_spacing: float
    ok: bool


def validate_characteristics(case: PerturbedShockCase) -> CharacteristicsReport:
    """Certify the boundary-data construction: departure times must be
    strictly increasing (characteristics do not cross before x=0) and the
    carried value must stay positive (inflow stays supersonic)."""
    tau = np.arange(0.0, T_END + 0.5 + _SAMPLE_DT, _SAMPLE_DT)
    t0, uL = _departure_time(tau, *_shock_path(tau, case.perturbation_scale))
    spacing = np.diff(t0)
    monotone = bool(np.all(spacing > 0.0))
    min_u = float(np.min(uL))
    return CharacteristicsReport(
        monotone_departure=monotone,
        min_inflow_value=min_u,
        min_departure_spacing=float(np.min(spacing)),
        ok=monotone and min_u > 0.0,
    )
