"""Numpy formulas that the compiled core replaced, kept as test oracles.

`interface_fluxes` is the march's flux construction in array form,
`update_fluxes` rebuilds the fluxes every update of a `run_forward`
trajectory used, and `cell_terms` forms the error breakdown's per-cell
time and space terms, in the operation order the compiled breakdown
transcribes.
"""
import numpy as np

import shockstep as ss


def interface_fluxes(u, g, flux=ss.BURGERS) -> np.ndarray:
    """All J+1 interface fluxes of the state u with inflow g: u between
    the ghost cells g and a copy of its last cell, one `flux.split`,
    F = f[0, :-1] + f[1, 1:].  Cells run along the last axis; leading axes
    of u and g broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    v[..., 0] = g
    v[..., 1:-1] = u
    v[..., -1] = v[..., -2]
    d, f = np.empty((2,) + v.shape), np.empty((2,) + v.shape)
    flux.split(v, d, f)
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
    return interface_fluxes(traj.states[stencil], g, traj.flux)


def cell_terms(traj, coeff, dual, case, lo, hi):
    """The signed cell contributions (eta_k, eta_h) of intervals lo..hi-1,
    each (hi - lo, J).

    Time term: -(1/2) k h (u^{n+1} - u^n) (psi - a w).  Space term:
    (1/2) k h w (F_{j+1/2} + F_{j-1/2} - 2 f(u^{n+1})) with the fluxes the
    update used.
    """
    k = traj.partition.steps[lo:hi, None]
    h = traj.grid.h
    psi_c = np.asarray(case.weight(traj.grid.centers), dtype=float)
    u0, u1 = traj.states[lo:hi], traj.states[lo + 1:hi + 1]
    W = dual.w_samples[lo:hi]
    eta_k = -0.5 * k * h * (u1 - u0) * (psi_c - coeff.a_values[lo:hi] * W)
    F = update_fluxes(traj, case, slice(lo, hi))
    eta_h = k * 0.5 * h * W * (F[:, 1:] + F[:, :-1] - 2.0 * traj.flux.f(u1))
    return eta_k, eta_h
