"""Flux functions and the forward march.

Covers the interface flux algebra, steady discrete shock profiles for both
steppers, the O(k^2) gap between the explicit and implicit one-step maps,
Newton failure reporting, and conservation of the full march.
"""
import warnings

import numpy as np
import pytest

import shockstep as ss


# ---------------------------------------------------------------- eo_flux

@pytest.mark.parametrize("uL,uR,expected", [
    (1.0, 1.0, 0.5),
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 0.0),
    (0.0, 0.0, 0.0),
    (2.0, 1.0, 2.0),
])
def test_eo_flux_values(uL, uR, expected):
    assert ss.eo_flux(uL, uR) == expected


def test_eo_flux_scalar_returns_float():
    out = ss.eo_flux(1.0, -1.0)
    assert isinstance(out, float)


def test_eo_flux_vectorized():
    uL = np.array([1.0, 1.0, -1.0, 0.0, 2.0])
    uR = np.array([1.0, -1.0, 1.0, 0.0, 1.0])
    out = ss.eo_flux(uL, uR)
    assert out.shape == uL.shape
    np.testing.assert_array_equal(out, [0.5, 1.0, 0.0, 0.0, 2.0])


def test_eo_flux_consistency():
    # F(u, u) must collapse to the physical flux
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, size=300)
    np.testing.assert_allclose(ss.eo_flux(u, u), 0.5 * u * u, rtol=1e-15)


def test_eo_flux_monotone():
    # nondecreasing in the left state, nonincreasing in the right state
    rng = np.random.default_rng(4)
    uL = rng.uniform(-2.0, 2.0, size=200)
    uR = rng.uniform(-2.0, 2.0, size=200)
    d = 1e-6
    dL = (ss.eo_flux(uL + d, uR) - ss.eo_flux(uL - d, uR)) / (2 * d)
    dR = (ss.eo_flux(uL, uR + d) - ss.eo_flux(uL, uR - d)) / (2 * d)
    assert np.all(dL >= -1e-9)
    assert np.all(dR <= 1e-9)


# ---------------------------------------------------------------- flux objects

def test_burgers_flux_methods():
    fl = ss.BurgersFlux()
    u = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
    np.testing.assert_array_equal(fl.f(u), 0.5 * u * u)
    np.testing.assert_array_equal(fl.fprime(u), u)
    np.testing.assert_array_equal(fl.wave_speed(u), np.abs(u))
    # one-sided derivatives vanish on the wrong side of the sonic point
    np.testing.assert_array_equal(fl.dleft(u), np.maximum(u, 0.0))
    np.testing.assert_array_equal(fl.dright(u), np.minimum(u, 0.0))
    assert fl.interface(1.0, -1.0) == ss.eo_flux(1.0, -1.0)


def test_linear_flux_positive_speed():
    fl = ss.LinearFlux(1.5)
    uL, uR = 0.3, -0.8
    assert fl.interface(uL, uR) == pytest.approx(1.5 * uL, abs=0)
    u = np.array([0.1, -2.0, 3.0])
    np.testing.assert_array_equal(fl.f(u), 1.5 * u)
    np.testing.assert_array_equal(fl.fprime(u), np.full(3, 1.5))
    np.testing.assert_array_equal(fl.dleft(u), np.full(3, 1.5))
    np.testing.assert_array_equal(fl.dright(u), np.zeros(3))
    np.testing.assert_array_equal(fl.wave_speed(u), np.full(3, 1.5))


def test_linear_flux_negative_speed():
    fl = ss.LinearFlux(-2.0)
    uL, uR = 0.3, -0.8
    assert fl.interface(uL, uR) == pytest.approx(-2.0 * uR, abs=0)
    u = np.array([1.0, 2.0])
    np.testing.assert_array_equal(fl.dleft(u), np.zeros(2))
    np.testing.assert_array_equal(fl.dright(u), np.full(2, -2.0))
    np.testing.assert_array_equal(fl.wave_speed(u), np.full(2, 2.0))


# ---------------------------------------------------------------- interfaces

def test_interface_fluxes_layout():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, size=17)
    g = 0.9
    F = ss.interface_fluxes(u, g)
    assert F.shape == (18,)
    assert F[0] == ss.eo_flux(g, u[0])
    assert F[-1] == 0.5 * u[-1] ** 2
    np.testing.assert_array_equal(F[1:-1], ss.eo_flux(u[:-1], u[1:]))


def test_interface_fluxes_uniform_state():
    u = np.full(12, 0.7)
    F = ss.interface_fluxes(u, 0.7)
    np.testing.assert_array_equal(F, np.full(13, 0.5 * 0.7 * 0.7))


# ---------------------------------------------------------------- explicit step

def test_explicit_step_constant_state_invariant():
    u = np.full(25, 0.6)
    h = 1.0 / 25
    un, F = ss.explicit_step(u, 0.8 * h / 0.6, h, 0.6)
    np.testing.assert_array_equal(un, u)
    assert F.shape == (26,)


def test_explicit_step_warns_above_unit_cfl():
    u = np.linspace(-1.0, 1.0, 10)
    h = 0.1
    with pytest.warns(RuntimeWarning, match="CFL"):
        ss.explicit_step(u, 0.12, h, 1.0)


def test_explicit_steady_shock_odd_grid(case):
    # center cell straddles the jump, its average is the sonic value
    grid = ss.build_spatial_grid(21, 0)
    u0 = case.initial_cell_averages(grid.edges)
    un, _ = ss.explicit_step(u0.copy(), 0.8 * grid.h, grid.h, 1.0)
    assert float(np.max(np.abs(un - u0))) == 0.0


def test_explicit_edge_aligned_jump_relaxes_to_two_cell_layer():
    # an edge-aligned jump is not steady; mass fixes the internal layer
    J = 20
    h = 1.0 / J
    u = np.where(np.arange(J) < 10, 1.0, -1.0).astype(float)
    for _ in range(400):
        u, _ = ss.explicit_step(u, 0.8 * h, h, 1.0)
    r = np.sqrt(0.5)
    assert abs(u[9] - r) <= 1e-13
    assert abs(u[10] + r) <= 1e-13
    np.testing.assert_allclose(u[:9], 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(u[11:], -1.0, rtol=0, atol=1e-13)


# ---------------------------------------------------------------- implicit step

def test_implicit_step_steady_shock_is_newton_fixed_point(case):
    grid = ss.build_spatial_grid(21, 0)
    u0 = case.initial_cell_averages(grid.edges)
    un, F, stats = ss.implicit_step(u0.copy(), 1.0, grid.h, 1.0)
    assert float(np.max(np.abs(un - u0))) == 0.0
    assert stats.iterations == 1
    assert stats.residual == 0.0
    np.testing.assert_array_equal(F, np.full(grid.cell_count + 1, 0.5))


def test_implicit_edge_aligned_jump_reaches_layer():
    J = 20
    h = 1.0 / J
    u = np.where(np.arange(J) < 10, 1.0, -1.0).astype(float)
    r = np.sqrt(0.5)
    hit = None
    for it in range(1, 20):
        u, _, _ = ss.implicit_step(u, 1.0, h, 1.0)
        if abs(u[9] - r) < 1e-12 and abs(u[10] + r) < 1e-12:
            hit = it
            break
    assert hit is not None and hit <= 10


def test_implicit_explicit_one_step_gap_is_second_order():
    # both maps are first order; their difference cancels the O(k) term
    rng = np.random.default_rng(7)
    J = 40
    h = 1.0 / J
    x = (np.arange(J) + 0.5) * h
    u0 = 0.6 + 0.3 * np.sin(2 * np.pi * x) + 0.05 * rng.standard_normal(J)
    gaps = []
    for k in (0.008, 0.004, 0.002):
        ue, _ = ss.explicit_step(u0.copy(), k, h, 1.0)
        ui, _, _ = ss.implicit_step(u0.copy(), k, h, 1.0)
        gaps.append(float(np.max(np.abs(ui - ue))))
    np.testing.assert_allclose(
        gaps, [1.713369e-2, 4.760483e-3, 1.287508e-3], rtol=1e-6)
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0
    assert 3.0 <= gaps[1] / gaps[2] <= 5.0


def test_implicit_nonconvergence_carries_diagnostics():
    rng = np.random.default_rng(19)
    u = rng.uniform(-1.0, 1.0, size=30)
    with pytest.raises(ss.NonConvergence, match="Newton stalled") as exc:
        ss.implicit_step(u, 50.0, 1.0 / 30, 1.0, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0
    assert isinstance(exc.value, ss.SolverFailure)
    assert isinstance(exc.value, RuntimeError)


# ---------------------------------------------------------------- full march

def test_run_forward_layout_and_mode_bookkeeping(case):
    grid = ss.build_spatial_grid(20, 0)
    times = np.array([0.0, 0.02, 0.06, 0.1])
    modes = np.array([ss.EXPLICIT, ss.IMPLICIT, ss.EXPLICIT], dtype=np.int8)
    traj = ss.run_forward(grid, ss.TimePartition(times=times, modes=modes), case)
    assert traj.states.shape == (4, 20)
    np.testing.assert_array_equal(traj.states[0],
                                  case.initial_cell_averages(grid.edges))
    assert traj.newton_stats[0] is None
    assert traj.newton_stats[1] is not None
    assert traj.newton_stats[1].iterations >= 1
    assert traj.newton_stats[2] is None


def test_run_forward_zero_interval_partition(case):
    grid = ss.build_spatial_grid(20, 0)
    traj = ss.run_forward(grid, ss.TimePartition(times=np.array([0.0])), case)
    assert traj.states.shape == (1, 20)
    assert ss.update_fluxes(traj, case).shape == (0, 21)
    assert traj.newton_stats == []


def test_update_fluxes_reproduce_every_update(case):
    # explicit rows replay the march bit for bit, implicit rows close the
    # backward-Euler residual to the Newton tolerance
    grid = ss.build_spatial_grid(20, 0)
    # inside the first inflow window, so g differs between t_n and t_{n+1}
    times = np.array([0.0, 12.0, 12.02, 12.06, 13.0, 13.03, 14.0])
    modes = np.array([ss.IMPLICIT, ss.EXPLICIT, ss.EXPLICIT, ss.IMPLICIT,
                      ss.EXPLICIT, ss.IMPLICIT], dtype=np.int8)
    traj = ss.run_forward(grid, ss.TimePartition(times=times, modes=modes),
                          case)
    F = ss.update_fluxes(traj, case)
    assert F.shape == (6, 21)
    u = traj.states
    for n in range(6):
        lam = float(times[n + 1] - times[n]) / grid.h
        if modes[n] == ss.EXPLICIT:
            assert np.array_equal(u[n + 1], u[n] - lam * (F[n, 1:] - F[n, :-1]))
        else:
            r = u[n + 1] - u[n] + lam * (F[n, 1:] - F[n, :-1])
            assert float(np.max(np.abs(r))) <= ss.forward.NEWTON_TOL


def test_run_forward_stays_within_data_range(uniform_reports):
    states = uniform_reports[0].trajectory.states
    assert float(np.min(states)) >= -1.05
    assert float(np.max(states)) <= 1.05
    # the inflow pulse really does push the state above the initial amplitude
    assert float(np.max(states)) > 1.0


def test_run_forward_conserves_mass_explicit(uniform_reports, case):
    traj = uniform_reports[0].trajectory
    h = traj.grid.h
    k = traj.partition.steps
    F = ss.update_fluxes(traj, case)
    lhs = h * float(np.sum(traj.states[-1] - traj.states[0]))
    rhs = -float(np.sum(k * (F[:, -1] - F[:, 0])))
    scale = h * float(np.sum(np.abs(traj.states[-1])))
    N, J = F.shape
    assert abs(lhs - rhs) <= 10 * N * J * np.finfo(float).eps * scale


def test_run_forward_conserves_mass_implicit(case):
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(case.T, 1.0, mode=ss.IMPLICIT)
    traj = ss.run_forward(grid, part, case)
    h = grid.h
    k = part.steps
    F = ss.update_fluxes(traj, case)
    lhs = h * float(np.sum(traj.states[-1] - traj.states[0]))
    rhs = -float(np.sum(k * (F[:, -1] - F[:, 0])))
    # Newton tolerance, not roundoff, bounds the defect here
    assert abs(lhs - rhs) <= part.interval_count * grid.cell_count * 1e-12
    assert all(st is not None for st in traj.newton_stats)


def test_run_forward_failure_names_interval(case):
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(case.T, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ss.SolverFailure, match=r"interval \d+ \(t="):
            ss.run_forward(grid, part, case)
