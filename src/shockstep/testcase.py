"""Perturbed stationary-shock benchmark.

A standing unit shock at x = 1/2 is wiggled by two smooth, compactly
supported perturbations of its position.  Prescribing the shock path s(t)
fixes, through the jump condition with frozen right state -1, the pre-shock
value u_L(tau) = 1 + 2*sdot(tau), and tracing the straight characteristic
carrying that value back to the inflow boundary x = 0 yields the left
boundary data g(t).  The target functional is a bump-weighted space-time
mean of the solution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """(s, sdot) at every t: SHOCK_X0 and 0 outside the windows."""
    t = np.asarray(t, dtype=float)
    s = np.full(t.shape, SHOCK_X0)
    sdot = np.zeros(t.shape)
    for p in _PERTURBATIONS:
        m = (t >= p[1]) & (t < p[2])
        if np.any(m):
            s[m], sdot[m] = _window_path(t[m], p, scale)
    return s, sdot


def _check_range(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > T_END):
        raise ValueError(f"t outside [0, {T_END}]")
    return t


def shock_position(t, scale: float = 1.0):
    """Shock path s(t); quartic contact factors keep it C^3 at window ends."""
    out = _shock_path(_check_range(t), scale)[0]
    return float(out) if out.ndim == 0 else out


def shock_speed(t, scale: float = 1.0):
    out = _shock_path(_check_range(t), scale)[1]
    return float(out) if out.ndim == 0 else out


def _departure_time(tau, s, sdot):
    # characteristic carrying u_L leaves x=0 at tau - s/u_L
    uL = 1.0 + 2.0 * sdot
    return tau - s / uL, uL


def _invert_departure(t0, p, scale):
    """Inflow g(t0) over one window's departure grid: bisect t0(tau) = t0
    for tau in [a, b], g = 1 at and beyond the departure window's ends."""
    _, a, b, lo_t, hi_t = p
    g = np.ones_like(t0)
    m = (t0 > lo_t) & (t0 < hi_t)
    target = t0[m]
    lo = np.full(target.shape, a)
    hi = np.full(target.shape, b)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        val, _ = _departure_time(mid, *_window_path(mid, p, scale))
        takes_hi = val < target
        lo = np.where(takes_hi, mid, lo)
        hi = np.where(takes_hi, hi, mid)
    g[m] = 1.0 + 2.0 * _window_path(0.5 * (lo + hi), p, scale)[1]
    return g


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
    """Benchmark problem definition; immutable after construction.

    Inflow queries go through a lazily built lookup table (spacing 1e-4,
    linear interpolation).  Root-finding per flux evaluation would dominate
    the runtime while the interpolation error is far below discretization
    error.
    """

    def __init__(self, perturbation_scale: float = 1.0):
        self.perturbation_scale = perturbation_scale
        self.T = T_END
        self.domain = (0.0, 1.0)
        self.flux = BurgersFlux()
        self._table = None

    # ---- shock data ----
    def shock_position(self, t):
        return shock_position(t, self.perturbation_scale)

    def shock_speed(self, t):
        return shock_speed(t, self.perturbation_scale)

    # ---- inflow table ----
    def _ensure_table(self):
        if self._table is None:
            pieces_t, pieces_g = [], []
            for p in _PERTURBATIONS:
                d_lo, d_hi = p[3:]
                n = int(round((d_hi - d_lo) / _TABLE_DT))
                tg = d_lo + _TABLE_DT * np.arange(n + 1)
                tg[-1] = d_hi
                pieces_t.append(tg)
                pieces_g.append(
                    _invert_departure(tg, p, self.perturbation_scale))
            self._table = (pieces_t, pieces_g)
        return self._table

    def inflow_value(self, t):
        t = np.asarray(t, dtype=float)
        pieces_t, pieces_g = self._ensure_table()
        g = np.ones_like(t)
        for tg, gg in zip(pieces_t, pieces_g):
            m = (t > tg[0]) & (t < tg[-1])
            if np.any(m):
                g[m] = np.interp(t[m], tg, gg)
        return float(g) if g.ndim == 0 else g

    def inflow_peak(self) -> float:
        pieces_t, pieces_g = self._ensure_table()
        return float(max(np.max(np.abs(gg)) for gg in pieces_g))

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


def validate_characteristics(case: PerturbedShockCase,
                             sample_dt: float = 1e-3) -> CharacteristicsReport:
    """Certify the boundary-data construction: departure times must be
    strictly increasing (characteristics do not cross before x=0) and the
    carried value must stay positive (inflow stays supersonic)."""
    tau = np.arange(0.0, T_END + 0.5 + sample_dt, sample_dt)
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
