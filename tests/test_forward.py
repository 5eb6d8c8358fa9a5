"""Flux functions and the forward march.

Covers the interface flux algebra, steady discrete shock profiles for both
steppers, the O(k^2) gap between the explicit and implicit one-step maps,
Newton failure reporting, and conservation of the full march.
"""
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shockstep as ss
from oracles import (Stepper, flux_values, hand_run, interface_fluxes,
                     kept_states, split, states, update_fluxes, w_samples)

# squares of these stay finite, so no overflow warning can fire
_FINITE = st.floats(min_value=-1e150, max_value=1e150,
                    allow_nan=False, allow_infinity=False)
_STATE = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


# ------------------------------------------------- Engquist-Osher flux

def _pair_flux(uL, uR, flux=ss.BURGERS):
    """The interface flux of each pair (uL, uR), taken from `interface_fluxes`
    as the inflow interface of a one-cell state uR with ghost value uL."""
    return interface_fluxes(np.asarray(uR)[..., None], uL, flux)[..., 0]


@pytest.mark.parametrize("uL,uR,expected", [
    (1.0, 1.0, 0.5),
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 0.0),
    (0.0, 0.0, 0.0),
    (2.0, 1.0, 2.0),
])
def test_eo_flux_values(uL, uR, expected):
    assert _pair_flux(uL, uR) == expected


def test_eo_flux_vectorized():
    # a leading axis of states and inflow values: one row per pair
    uL = np.array([1.0, 1.0, -1.0, 0.0, 2.0])
    uR = np.array([1.0, -1.0, 1.0, 0.0, 1.0])
    F = interface_fluxes(uR[:, None], uL)
    assert F.shape == (5, 2)
    np.testing.assert_array_equal(F[:, 0], [0.5, 1.0, 0.0, 0.0, 2.0])
    np.testing.assert_array_equal(F[:, 1], 0.5 * uR * uR)


def test_eo_flux_consistency():
    # F(u, u) must collapse to the physical flux
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, size=300)
    np.testing.assert_allclose(_pair_flux(u, u), 0.5 * u * u, rtol=1e-15)


def test_eo_flux_monotone():
    # nondecreasing in the left state, nonincreasing in the right state
    rng = np.random.default_rng(4)
    uL = rng.uniform(-2.0, 2.0, size=200)
    uR = rng.uniform(-2.0, 2.0, size=200)
    d = 1e-6
    dL = (_pair_flux(uL + d, uR) - _pair_flux(uL - d, uR)) / (2 * d)
    dR = (_pair_flux(uL, uR + d) - _pair_flux(uL, uR - d)) / (2 * d)
    assert np.all(dL >= -1e-9)
    assert np.all(dR <= 1e-9)


def _eo_flux_scalar(uL, uR):
    out = 0.0
    if uL > 0.0:
        out = 0.5 * uL * uL
    if uR < 0.0:
        out = out + 0.5 * uR * uR
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20))
def test_eo_flux_matches_scalar_reference_bitwise(pairs):
    uL = np.array([a for a, _ in pairs])
    uR = np.array([b for _, b in pairs])
    want = np.array([_eo_flux_scalar(a, b) for a, b in pairs])
    assert _pair_flux(uL, uR).tobytes() == want.tobytes()
    # the interior interfaces of one row of cells uR, inflow uL[0]
    F = interface_fluxes(uR, uL[0])
    inner = np.array([_eo_flux_scalar(a, b) for a, b in zip(uR[:-1], uR[1:])])
    assert F[1:-1].tobytes() == inner.tobytes()
    assert np.float64(F[0]).tobytes() == want[:1].tobytes()


# ---------------------------------------------------------------- flux objects

def _split(fl, u):
    """(dp, dm, fp, fm) from the in-place `split` into fresh buffers."""
    d = np.full((2,) + u.shape, np.nan)
    f = np.full((2,) + u.shape, np.nan)
    split(fl, u, d, f)
    return d[0], d[1], f[0], f[1]


def test_burgers_flux_methods():
    fl = ss.BurgersFlux()
    u = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
    np.testing.assert_array_equal(flux_values(fl, u), 0.5 * u * u)
    # one-sided derivatives vanish on the wrong side of the sonic point
    dp, dm, fp, fm = _split(fl, u)
    np.testing.assert_array_equal(dp, np.maximum(u, 0.0))
    np.testing.assert_array_equal(dm, np.minimum(u, 0.0))
    np.testing.assert_array_equal(dp - dm, np.abs(u))
    np.testing.assert_array_equal(
        fp[:-1] + fm[1:], [_eo_flux_scalar(a, b) for a, b in zip(u[:-1], u[1:])])
    np.testing.assert_array_equal(fp + fm, flux_values(fl, u))
    assert _pair_flux(1.0, -1.0, fl) == _eo_flux_scalar(1.0, -1.0)


def test_linear_flux_positive_speed():
    fl = ss.LinearFlux(1.5)
    uL, uR = 0.3, -0.8
    assert _pair_flux(uL, uR, fl) == pytest.approx(1.5 * uL, abs=0)
    u = np.array([0.1, -2.0, 3.0])
    np.testing.assert_array_equal(flux_values(fl, u), 1.5 * u)
    dp, dm, fp, fm = _split(fl, u)
    np.testing.assert_array_equal(dp, np.full(3, 1.5))
    np.testing.assert_array_equal(dm, np.zeros(3))
    np.testing.assert_array_equal(fp[:-1] + fm[1:], 1.5 * u[:-1])
    np.testing.assert_array_equal(dp - dm, np.full(3, 1.5))


def test_linear_flux_negative_speed():
    fl = ss.LinearFlux(-2.0)
    uL, uR = 0.3, -0.8
    assert _pair_flux(uL, uR, fl) == pytest.approx(-2.0 * uR, abs=0)
    u = np.array([1.0, 2.0])
    dp, dm, fp, fm = _split(fl, u)
    np.testing.assert_array_equal(dp, np.zeros(2))
    np.testing.assert_array_equal(dm, np.full(2, -2.0))
    np.testing.assert_array_equal(fp[:-1] + fm[1:], -2.0 * u[1:])
    np.testing.assert_array_equal(dp - dm, np.full(2, 2.0))


# ---------------------------------------------------------------- interfaces

def test_interface_fluxes_layout():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, size=17)
    g = 0.9
    F = interface_fluxes(u, g)
    assert F.shape == (18,)
    assert F[0] == _eo_flux_scalar(g, u[0])
    assert F[-1] == 0.5 * u[-1] ** 2
    np.testing.assert_array_equal(
        F[1:-1], [_eo_flux_scalar(a, b) for a, b in zip(u[:-1], u[1:])])
    # rows along a leading axis, each with its own inflow value
    rows = interface_fluxes(np.stack([u, u[::-1]]), np.array([g, -g]))
    np.testing.assert_array_equal(rows[0], F)
    np.testing.assert_array_equal(rows[1], interface_fluxes(u[::-1], -g))


def test_interface_fluxes_uniform_state():
    u = np.full(12, 0.7)
    F = interface_fluxes(u, 0.7)
    np.testing.assert_array_equal(F, np.full(13, 0.5 * 0.7 * 0.7))


@pytest.mark.parametrize("flux", [ss.BURGERS, ss.LinearFlux(1.5),
                                  ss.LinearFlux(-2.0)],
                         ids=["burgers", "linear_right", "linear_left"])
def test_interface_fluxes_equal_the_stepper_fluxes(flux):
    # the estimator's fluxes and the march's are one computation
    rng = np.random.default_rng(12)
    u = rng.uniform(-1.0, 1.0, size=9)
    s = Stepper(u, flux)
    s.explicit(0.01, 0.1, 0.4)
    assert s.F.tobytes() == interface_fluxes(u, 0.4, flux).tobytes()


# ---------------------------------------------------------------- explicit step

def test_explicit_step_constant_state_invariant():
    u = np.full(25, 0.6)
    h = 1.0 / 25
    s = Stepper(u, ss.BURGERS)
    s.explicit(0.8 * h / 0.6, h, 0.6)
    np.testing.assert_array_equal(s.u, u)
    assert s.F.shape == (26,)


def test_explicit_step_refuses_above_unit_cfl():
    u = np.linspace(-1.0, 1.0, 10)
    h = 0.1
    s = Stepper(u, ss.BURGERS)
    with pytest.raises(ss.SolverFailure, match="CFL"):
        s.explicit(0.12, h, 1.0)
    np.testing.assert_array_equal(s.u, u)


def test_explicit_step_cfl_counts_the_inflow_value():
    # CFL 0.99 against max|u| = 0.9 but 1.10 against g = 1.0; unchecked,
    # the step returns u_0 = 1.0045 > max(u, g)
    with pytest.raises(ss.SolverFailure, match="CFL 1.10"):
        Stepper(np.full(4, 0.9), ss.BURGERS).explicit(0.99 * 0.25 / 0.9,
                                                      0.25, 1.0)


def test_explicit_steady_shock_odd_grid(case):
    # center cell straddles the jump, its average is the sonic value
    grid = ss.build_spatial_grid(21, 0)
    u0 = case.initial_cell_averages(grid.edges)
    s = Stepper(u0, ss.BURGERS)
    s.explicit(0.8 * grid.h, grid.h, 1.0)
    assert float(np.max(np.abs(s.u - u0))) == 0.0


def test_explicit_edge_aligned_jump_relaxes_to_two_cell_layer():
    # an edge-aligned jump is not steady; mass fixes the internal layer
    J = 20
    h = 1.0 / J
    s = Stepper(np.where(np.arange(J) < 10, 1.0, -1.0), ss.BURGERS)
    for _ in range(400):
        s.explicit(0.8 * h, h, 1.0)
    u = s.u
    r = np.sqrt(0.5)
    assert abs(u[9] - r) <= 1e-13
    assert abs(u[10] + r) <= 1e-13
    np.testing.assert_allclose(u[:9], 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(u[11:], -1.0, rtol=0, atol=1e-13)


def _unit_cfl_step(u, g, cfl):
    """Step at CFL = cfl <= 1 against the fastest of the state and inflow."""
    u = np.asarray(u)
    h = 1.0 / u.size
    speed = max(float(np.max(np.abs(u))), abs(g), 1e-3)
    k = cfl * h / speed
    assume(k * speed / h <= 1.0)
    s = Stepper(u, ss.BURGERS)
    s.explicit(k, h, g)
    return s.u, s.F, k, h


@settings(max_examples=300, deadline=None)
@given(st.lists(_STATE, min_size=1, max_size=40), _STATE,
       st.floats(min_value=0.0, max_value=1.0))
def test_explicit_step_conserves_mass_with_boundary_fluxes(u, g, cfl):
    un, F, k, h = _unit_cfl_step(u, g, cfl)
    # every cell update rounds once per operation; J of them add up
    tol = 8 * np.finfo(float).eps * len(u) * (h * 2.0 + k * 2.0)
    assert abs(h * np.sum(un) - h * np.sum(u) + k * (F[-1] - F[0])) <= tol


@settings(max_examples=300, deadline=None)
@given(st.lists(_STATE, min_size=1, max_size=40), _STATE,
       st.floats(min_value=0.0, max_value=1.0))
def test_explicit_step_max_principle(u, g, cfl):
    # monotone scheme, ghost cells g (left) and u_J (right)
    un, _, _, _ = _unit_cfl_step(u, g, cfl)
    lo, hi = min(min(u), g), max(max(u), g)
    tol = 4 * np.finfo(float).eps * 2.0
    assert np.all(un >= lo - tol) and np.all(un <= hi + tol)


def _tv(g, u):
    """Total variation of the state behind its inflow ghost value g."""
    return float(np.sum(np.abs(np.diff(np.concatenate(([g], u))))))


@settings(max_examples=300, deadline=None)
@given(st.lists(_STATE, min_size=1, max_size=40), _STATE,
       st.floats(min_value=0.0, max_value=1.0))
def test_explicit_step_tvd_with_inflow_ghost(u, g, cfl):
    # incremental form with coefficients in [0, 1] at CFL <= 1 (Harten);
    # the outflow ghost copies u_J and adds no variation
    un, _, _, _ = _unit_cfl_step(u, g, cfl)
    tol = 8 * np.finfo(float).eps * (len(u) + 1) * 2.0
    assert _tv(g, un) <= _tv(g, u) + tol


# ---------------------------------------------------------------- implicit step

_IMPLICIT_STATE = st.floats(min_value=-1.5, max_value=1.5,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_IMPLICIT_STATE, min_size=1, max_size=40),
       st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=4.0))
def test_implicit_step_max_principle_and_tvd_up_to_cfl_cap(u, g, log_cfl):
    # backward Euler with a monotone flux is unconditionally monotone and
    # TVD, up to the planner's CFL_CAP = 1e4; undamped Newton may instead
    # refuse the step, which is a SolverFailure, never a bad state
    h = 1.0 / len(u)
    speed = max(max(abs(v) for v in u), g, 1e-3)
    s = Stepper(u, ss.BURGERS)
    try:
        s.implicit(10.0 ** log_cfl * h / speed, h, g)
    except ss.SolverFailure:
        return
    lo, hi = min(min(u), g), max(max(u), g)
    assert np.all(s.u >= lo - 1e-12) and np.all(s.u <= hi + 1e-12)
    assert _tv(g, s.u) <= _tv(g, u) + 1e-12

def test_implicit_step_steady_shock_is_newton_fixed_point(case):
    grid = ss.build_spatial_grid(21, 0)
    u0 = case.initial_cell_averages(grid.edges)
    s = Stepper(u0, ss.BURGERS)
    stats = s.implicit(1.0, grid.h, 1.0)
    assert float(np.max(np.abs(s.u - u0))) == 0.0
    assert stats.iterations == 1
    assert stats.residual == 0.0
    np.testing.assert_array_equal(s.F, np.full(grid.cell_count + 1, 0.5))


def test_implicit_edge_aligned_jump_reaches_layer():
    J = 20
    h = 1.0 / J
    s = Stepper(np.where(np.arange(J) < 10, 1.0, -1.0), ss.BURGERS)
    u = s.u
    r = np.sqrt(0.5)
    hit = None
    for it in range(1, 20):
        s.implicit(1.0, h, 1.0)
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
        se, si = Stepper(u0, ss.BURGERS), Stepper(u0, ss.BURGERS)
        se.explicit(k, h, 1.0)
        si.implicit(k, h, 1.0)
        gaps.append(float(np.max(np.abs(si.u - se.u))))
    np.testing.assert_allclose(
        gaps, [1.713369e-2, 4.760483e-3, 1.287508e-3], rtol=1e-6)
    assert 3.0 <= gaps[0] / gaps[1] <= 5.0
    assert 3.0 <= gaps[1] / gaps[2] <= 5.0


@pytest.mark.parametrize("u_last", [-0.5, -0.9])
@pytest.mark.parametrize("k", [0.01, 0.05])
def test_newton_quadratic_with_shock_in_last_cell(u_last, k):
    # the last Jacobian row carries f'(u_J) of the outflow flux; with the
    # interior row there instead, Newton falls back to 11-37 iterations
    h = 1.0 / 20
    u = np.full(20, 0.8)
    u[-1] = u_last
    stats = Stepper(u, ss.BURGERS).implicit(k, h, 0.8)
    assert stats.iterations <= 5


def test_implicit_nonconvergence_carries_diagnostics():
    # on this random state full Newton steps never settle at k = 1500 h
    rng = np.random.default_rng(4)
    s = Stepper(rng.uniform(-1.0, 1.0, size=30), ss.BURGERS)
    with pytest.raises(ss.NonConvergence, match="Newton stalled") as exc:
        s.implicit(50.0, 1.0 / 30, 1.0)
    assert exc.value.iterations == ss.forward.NEWTON_MAX_ITER
    assert exc.value.residual > 0.0
    assert isinstance(exc.value, ss.SolverFailure)
    assert isinstance(exc.value, RuntimeError)


def test_implicit_overflow_is_a_solver_failure():
    # 0.5 * 1e200**2 overflows; the Newton residual turns NaN before any
    # linear solve, which must not surface as a bare ValueError
    s = Stepper(np.full(20, 1e200), ss.BURGERS)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ss.SolverFailure, match="non-finite"):
            s.implicit(1.0, 0.05, 1.0)


@st.composite
def _tridiagonal_systems(draw):
    """A diagonally dominant tridiagonal system (sub, diag, sup, rhs) of
    size J, off-diagonals padded to length 1 at J = 1 as LAPACK's wrapper
    wants them."""
    J = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sub = rng.uniform(-1.0, 1.0, J - 1) if J > 1 else np.zeros(1)
    sup = rng.uniform(-1.0, 1.0, J - 1) if J > 1 else np.zeros(1)
    diag = 1.0 + rng.uniform(0.0, 1e3, J)
    diag[1:] += np.abs(sub[:J - 1])
    diag[:-1] += np.abs(sup[:J - 1])
    return sub, diag, sup, rng.uniform(-1.0, 1.0, J)


@settings(max_examples=100, deadline=None)
@given(_tridiagonal_systems())
def test_dgtsv_binding_matches_scipy_lapack_bitwise(system):
    # the compiled core's transcription of dgtsv against LAPACK's own
    from scipy.linalg.lapack import dgtsv as reference
    from shockstep._core import lib, ptr
    dl, d, du, x = (a.copy() for a in system)
    info = lib().dgtsv(d.size, ptr(dl), ptr(d), ptr(du), ptr(x))
    x_ref, info_ref = reference(*(a.copy() for a in system), 1, 1, 1, 1)[3:]
    assert info == info_ref == 0
    assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))


def test_undamped_newton_stalls_at_large_k(case):
    # level-0 data, k = 5h, constant inflow 1.03: the shock drifts right
    # and plain Newton stops converging near the outflow boundary
    grid = ss.build_spatial_grid(20, 0)
    s = Stepper(case.initial_cell_averages(grid.edges), ss.BURGERS)
    h = grid.h
    u = s.u.copy()      # the last converged state; Newton works in s.u
    steps = 0
    with pytest.raises(ss.NonConvergence) as exc:
        for _ in range(200):
            s.implicit(5 * h, h, 1.03)
            u = s.u.copy()
            steps += 1
    assert steps == 115
    assert exc.value.iterations == ss.forward.NEWTON_MAX_ITER
    assert exc.value.residual == pytest.approx(2.945e-2, rel=1e-3)
    assert int(np.argmax(u[:-1] - u[1:])) == 17   # jump between cells 18, 19


# ---------------------------------------------------------------- full march

def test_run_forward_layout_and_mode_bookkeeping(case):
    grid = ss.build_spatial_grid(20, 0)
    times = np.array([0.0, 0.02, 0.06, 0.1])
    modes = np.array([ss.EXPLICIT, ss.IMPLICIT, ss.EXPLICIT], dtype=np.int8)
    traj = ss.run_forward(grid, ss.TimePartition(times=times, modes=modes), case)
    assert states(traj).shape == (4, 20)
    np.testing.assert_array_equal(states(traj)[0],
                                  case.initial_cell_averages(grid.edges))
    assert traj.newton_stats[0] is None
    assert traj.newton_stats[1] is not None
    assert traj.newton_stats[1].iterations >= 1
    assert traj.newton_stats[2] is None


def test_run_forward_zero_interval_partition(case):
    grid = ss.build_spatial_grid(20, 0)
    traj = ss.run_forward(grid, ss.TimePartition(times=np.array([0.0])), case)
    assert states(traj).shape == (1, 20)
    assert update_fluxes(traj, case).shape == (0, 21)
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
    F = update_fluxes(traj, case)
    assert F.shape == (6, 21)
    u = states(traj)
    for n in range(6):
        lam = float(times[n + 1] - times[n]) / grid.h
        if modes[n] == ss.EXPLICIT:
            assert np.array_equal(u[n + 1], u[n] - lam * (F[n, 1:] - F[n, :-1]))
        else:
            r = u[n + 1] - u[n] + lam * (F[n, 1:] - F[n, :-1])
            assert float(np.max(np.abs(r))) <= ss.forward.NEWTON_TOL


# sha256 of the state and dual-sample arrays on the level-0 grid, recorded
# before the marching kernels were last rewritten; the CSVs print six
# digits, these catch a change in the last bit
_GOLDEN_ARRAYS = {
    "explicit": ("fd2b1333d3d56e4d7ec17f9796c367024153884cf80828fe718d3501c29dc346",
                 "4e716ebb5ca236cd85cdb804314e1658b0dbe81ebc021ccc35af73ca0c1e6ded"),
    "implicit": ("918b12527a568784775bc473ac0cc7200dfa1cbb8432391879971d9b4ecca211",
                 "a5ff6d67f00b807dbfb830662ffd02abd8efbabc72d9feb7dc6bc1b152079dfd"),
}


@pytest.mark.parametrize("mode", sorted(_GOLDEN_ARRAYS))
def test_march_and_dual_bit_exact(mode, case):
    grid = ss.build_spatial_grid(20, 0)
    if mode == "explicit":
        k = 0.8 * grid.h / ss.speed_for_basis(case, grid, "global")
        part = ss.uniform_partition(case.T, k)
    else:
        part = ss.uniform_partition(case.T, 1.0, ss.IMPLICIT)
    traj = ss.run_forward(grid, part, case)
    dual = ss.solve_dual_gradient(traj, case)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (states(traj), w_samples(dual)))
    assert got == _GOLDEN_ARRAYS[mode]


def test_run_forward_stays_within_data_range(base_trajectory):
    u = states(base_trajectory)
    assert float(np.min(u)) >= -1.05
    assert float(np.max(u)) <= 1.05
    # the inflow pulse really does push the state above the initial amplitude
    assert float(np.max(u)) > 1.0


def test_run_forward_conserves_mass_explicit(base_trajectory, case):
    traj = base_trajectory
    h = traj.grid.h
    k = traj.partition.steps
    F = update_fluxes(traj, case)
    lhs = h * float(np.sum(states(traj)[-1] - states(traj)[0]))
    rhs = -float(np.sum(k * (F[:, -1] - F[:, 0])))
    scale = h * float(np.sum(np.abs(states(traj)[-1])))
    N, J = F.shape
    assert abs(lhs - rhs) <= 10 * N * J * np.finfo(float).eps * scale


def test_run_forward_conserves_mass_implicit(case):
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(case.T, 1.0, mode=ss.IMPLICIT)
    traj = ss.run_forward(grid, part, case)
    h = grid.h
    k = part.steps
    F = update_fluxes(traj, case)
    lhs = h * float(np.sum(states(traj)[-1] - states(traj)[0]))
    rhs = -float(np.sum(k * (F[:, -1] - F[:, 0])))
    # Newton tolerance, not roundoff, bounds the defect here
    assert abs(lhs - rhs) <= part.interval_count * grid.cell_count * 1e-12
    assert all(st is not None for st in traj.newton_stats)


# (mode, x): an explicit step at CFL x against the global speed bound, or
# an implicit step of length x
_MIXED_STEP = st.one_of(
    st.tuples(st.just(ss.EXPLICIT), st.floats(min_value=1e-3, max_value=0.8)),
    st.tuples(st.just(ss.IMPLICIT), st.floats(min_value=1e-3, max_value=1.0)))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=40.0),
       st.lists(_MIXED_STEP, min_size=1, max_size=40))
def test_run_forward_conserves_mass_mixed_partition(case, t0, steps):
    # an optional implicit first interval lands the march anywhere in
    # [0, 40], so the inflow windows are crossed by either mode
    grid = ss.build_spatial_grid(20, 0)
    speed = ss.speed_for_basis(case, grid, "global")
    ks = [t0] if t0 > 0.0 else []
    modes = [ss.IMPLICIT] if t0 > 0.0 else []
    for mode, x in steps:
        ks.append(x * grid.h / speed if mode == ss.EXPLICIT else x)
        modes.append(mode)
    part = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(ks))),
                            modes=np.array(modes, dtype=np.int8))
    traj = ss.run_forward(grid, part, case)
    F = update_fluxes(traj, case)
    h = grid.h
    lhs = h * float(np.sum(states(traj)[-1] - states(traj)[0]))
    rhs = -float(np.sum(part.steps * (F[:, -1] - F[:, 0])))
    scale = h * float(np.sum(np.abs(states(traj)[-1])))
    N, J = F.shape
    n_imp = int(np.sum(part.modes == ss.IMPLICIT))
    # the bounds of the all-explicit and all-implicit tests, per interval
    tol = 10 * N * J * np.finfo(float).eps * scale + n_imp * J * 1e-12
    assert abs(lhs - rhs) <= tol


def test_run_forward_failure_names_interval(case):
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(case.T, 2.5)
    with pytest.raises(ss.SolverFailure, match=r"interval 0 \(t=0\): .*CFL"):
        ss.run_forward(grid, part, case)


# ---------------------------------------------------------------- checkpoints

def _runs_partition(grid, case, runs):
    """Steps at CFL 0.5 (explicit) and 1.5 (implicit) against the case's
    global speed bound, in the runs [(mode, count), ...]."""
    speed = ss.speed_for_basis(case, grid, "global")
    k = {ss.EXPLICIT: 0.5 * grid.h / speed, ss.IMPLICIT: 1.5 * grid.h / speed}
    modes = np.concatenate([np.full(n, mode, np.int8) for mode, n in runs])
    steps = np.array([k[int(m)] for m in modes])
    return ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(steps))),
                            modes=modes)


def _full_march(grid, part, case):
    """All N + 1 states in one array, one `march` call per run of equal
    modes over the whole run, and the Newton arrays: the march before only
    checkpoints were kept.  Returns (states, g, newton, (done, error))
    with the first failure, if any."""
    N = part.interval_count
    g = np.atleast_1d(np.asarray(case.inflow_value(part.times), dtype=float))
    u = np.empty((N + 1, grid.cell_count))
    u[0] = case.initial_cell_averages(grid.edges)
    newton = (np.zeros(N, np.intc), np.zeros(N), np.zeros(N, np.int8))
    k, modes = part.steps, part.modes
    cuts = [0, *(np.flatnonzero(np.diff(modes)) + 1).tolist(), N]
    for s, e in zip(cuts[:-1], cuts[1:]):
        done, err = ss.forward.march(u[s:e + 1], k[s:e], g[s:e + 1], grid.h,
                                     case.flux, int(modes[s]),
                                     tuple(x[s:e] for x in newton))
        if err is not None:
            return u, g, newton, (s + done, err)
    return u, g, newton, None


E, I = ss.EXPLICIT, ss.IMPLICIT
_LAYOUTS = {
    # N below one block, with a short implicit run inside it
    "short": [(E, 20), (I, 5), (E, 30)],
    # N a multiple of BLOCK
    "explicit": [(E, 2 * ss.forward.BLOCK)],
    "implicit": [(I, ss.forward.BLOCK)],
    # runs that end on a block boundary (256), cross one (512, 768), and
    # one-interval runs; 848 intervals end inside a block
    "mixed": [(E, 200), (I, 56), (E, 250), (I, 10), (E, 30), (I, 1), (E, 1),
              (I, 300)],
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("flux", ["burgers", "linear"])
def test_checkpoints_rebuild_the_full_march_bit_for_bit(layout, flux, case,
                                                        linear_case):
    # run_forward keeps row 0, every BLOCK-th row and each implicit end;
    # every block rebuilt from them, and every per-row reduction, has the
    # bits of one march over the whole array
    c = case if flux == "burgers" else linear_case
    grid = ss.build_spatial_grid(20, 0, c.domain)
    part = _runs_partition(grid, c, _LAYOUTS[layout])
    want, g, newton, failed = _full_march(grid, part, c)
    assert failed is None
    traj = ss.run_forward(grid, part, c)
    B, N = ss.forward.BLOCK, part.interval_count
    kept = {0, *range(B, N + 1, B), *(np.flatnonzero(part.modes) + 1).tolist()}
    assert traj.kept_at.tolist() == sorted(kept)
    assert kept_states(traj).tobytes() == want[traj.kept_at].tobytes()
    for got, x in zip((traj.newton_iters, traj.newton_resid, traj.newton_stop),
                      newton):
        assert got.tobytes() == x.tobytes()
    buf = np.empty((B + 1, grid.cell_count))
    for lo in range(0, N, B):
        hi = min(lo + B, N)
        assert traj.rows(lo, hi, buf).tobytes() == want[lo:hi + 1].tobytes(), lo
    red = traj.reduced
    W = ss.weight_cell_integrals(grid, c)
    assert red.speeds.tobytes() == ss.forward.wave_speeds(want, g, c.flux).tobytes()
    assert red.coeff_speeds.tobytes() == ss.forward.wave_speeds(
        want[1:], np.zeros(N), c.flux).tobytes()
    assert red.dots.tobytes() == (want[1:] @ W).tobytes()
    # the sweep over rebuilt blocks against the same sweep over stored
    # states: every field of the breakdown, bit for bit
    stored = hand_run(grid, part, want, c.flux, g, newton, W)
    got, wanted = (ss.assemble_breakdown(ss.solve_dual_gradient(t, c), c)
                   for t in (traj, stored))
    for f in ("eta_k_bar_n", "eta_h_bar_n", "eta_k", "eta_h", "J_h"):
        assert np.asarray(getattr(got, f)).tobytes() == \
            np.asarray(getattr(wanted, f)).tobytes(), f
    assert states(traj).tobytes() == want.tobytes()


@pytest.mark.parametrize("extra", [-1, 1])
def test_hand_built_run_needs_every_state(extra):
    # built by hand, a run keeps every one of its N + 1 states
    grid = ss.build_spatial_grid(4, 0)
    part = ss.uniform_partition(1.0, 0.25)
    N = part.interval_count
    with pytest.raises(ValueError, match=f"need {N + 1}"):
        hand_run(grid, part, np.zeros((N + 1 + extra, 4)), ss.BURGERS,
                 np.zeros(N + 1))


def test_hand_built_rows_are_read_not_rebuilt(monkeypatch):
    # every state of a hand-built run is kept, so no block re-marches
    rng = np.random.default_rng(5)
    B = ss.forward.BLOCK
    N, J = 2 * B + 3, 6
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.linspace(0.0, 1.0, N + 1),
                            modes=(np.arange(N) % 3 == 0).astype(np.int8))
    u = rng.uniform(-1.0, 1.0, (N + 1, J))
    traj = hand_run(grid, part, u, ss.BURGERS, np.zeros(N + 1))

    def no_march(*args, **kwargs):
        raise AssertionError("a hand-built run re-marched a block")

    monkeypatch.setattr(ss.forward, "march_block", no_march)
    buf = np.empty((B + 1, J))
    for lo in range(0, N, B):
        hi = min(lo + B, N)
        assert traj.rows(lo, hi, buf).tobytes() == u[lo:hi + 1].tobytes(), lo
    assert states(traj).tobytes() == u.tobytes()


def test_reads_leave_the_run_and_its_dual_as_built(case, monkeypatch):
    # reading `states` or `w_samples` rebuilds them into new arrays: the
    # run keeps its checkpoints, the dual its plan, and each read and the
    # breakdown after them re-march the explicit blocks
    grid = ss.build_spatial_grid(20, 0, case.domain)
    part = _runs_partition(grid, case, _LAYOUTS["mixed"])
    B, N = ss.forward.BLOCK, part.interval_count
    traj = ss.run_forward(grid, part, case)
    dual = ss.solve_dual_gradient(traj, case)
    kept, kept_at = traj.kept, traj.kept_at
    kept_bytes, kept_at_bytes = kept.tobytes(), kept_at.tobytes()
    plan = dual.substeps.tobytes(), dual.source.tobytes()
    # blocks that hold an explicit interval are not kept whole
    rebuilt = sum(bool(np.any(part.modes[lo:lo + B] == ss.EXPLICIT))
                  for lo in range(0, N, B))
    assert 0 < rebuilt < len(range(0, N, B))
    calls = []
    march_block = ss.forward.march_block

    def counted(*args, **kwargs):
        calls.append(args[1])
        return march_block(*args, **kwargs)

    monkeypatch.setattr(ss.forward, "march_block", counted)
    for read in (lambda: states(traj), lambda: w_samples(dual)) * 2:
        calls.clear()
        first = read()
        assert len(calls) == rebuilt
        assert first is not read()
    calls.clear()
    br = ss.assemble_breakdown(dual, case)
    assert len(calls) == rebuilt
    assert traj.kept is kept and traj.kept_at is kept_at
    assert kept.tobytes() == kept_bytes and kept_at.tobytes() == kept_at_bytes
    assert dual.traj is traj
    assert (dual.substeps.tobytes(), dual.source.tobytes()) == plan
    monkeypatch.undo()
    fresh = ss.run_forward(grid, part, case)
    want = ss.assemble_breakdown(ss.solve_dual_gradient(fresh, case), case)
    for f in dataclasses.fields(ss.ErrorBreakdown):
        assert np.asarray(getattr(br, f.name)).tobytes() == \
            np.asarray(getattr(want, f.name)).tobytes(), f.name


def test_kept_states_are_read_only(case, base_trajectory, mixed_trajectory):
    # what a run keeps cannot be written through, so a shared run stays
    # as it was built; a hand-built one tiles copies of the caller's
    # array, which stays writable and unchanged
    for traj in (base_trajectory, mixed_trajectory):
        with pytest.raises(ValueError, match="read-only"):
            traj.kept[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            traj.tiles[0, 1] = 1
        with pytest.raises(ValueError, match="read-only"):
            traj.kept_at[0] = 1
    grid = ss.build_spatial_grid(4, 0)
    part = ss.uniform_partition(1.0, 0.25)
    N = part.interval_count
    u = np.linspace(-1.0, 1.0, 4 * (N + 1)).reshape(N + 1, 4)
    before = u.tobytes()
    traj = hand_run(grid, part, u, ss.BURGERS, np.zeros(N + 1))
    assert not traj.kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        traj.kept[...] = 0.0
    assert u.flags.writeable
    assert u.tobytes() == before
    assert states(traj).tobytes() == before


def _tile_widths(u, kept_at):
    """The width each block's tile needs, found by trying every width:
    the fewest leading cells after which each kept row of the block holds
    its last cell's bits."""
    bits = np.ascontiguousarray(u, dtype=float).view(np.int64)
    widths = []
    for b in range(kept_at[-1] // ss.forward.BLOCK + 1):
        rows = bits[kept_at[kept_at // ss.forward.BLOCK == b]]
        widths.append(next(W for W in range(1, rows.shape[1] + 1)
                           if (rows[:, W - 1:] == rows[:, -1:]).all()))
    return widths


def _nan(payload):
    """A quiet NaN with the given payload bits."""
    return np.frombuffer(np.uint64(0x7FF8_0000_0000_0000 | payload).tobytes())[0]


def _staggered(N, J, rng):
    # each row's tail starts at its own cell, as right of a shock
    u = np.full((N + 1, J), -1.0)
    for n, start in enumerate(rng.integers(0, J + 1, N + 1)):
        u[n, :start] = rng.uniform(0.0, 1.0, start)
    return u


def _no_tail(N, J, rng):
    u = rng.uniform(-1.0, 1.0, (N + 1, J))
    if J > 1:
        u[:, -2] = u[:, -1] + 1.0
    return u


def _all_tail(N, J, rng):
    return np.repeat(rng.uniform(-1.0, 1.0, (N + 1, 1)), J, axis=1)


def _special_tails(N, J, rng):
    # tails that a comparison of values would lose: a NaN of a payload
    # other than numpy's (after a NaN of other bits in row 0), +inf, -inf,
    # -0.0 after +0.0 cells and +0.0 after -0.0 cells
    u = _staggered(N, J, rng)
    tails = [_nan(0xDEAD_BEEF), np.inf, -np.inf, -0.0, 0.0]
    for n in range(N + 1):
        u[n, J // 2:] = tails[n % 5]
        if n % 5 >= 3:
            u[n, :J // 2] = -tails[n % 5]
    u[0, max(J // 2 - 1, 0)] = _nan(0xBEEF)
    return u


_TILE_ROWS = {"staggered": _staggered, "no_tail": _no_tail,
              "all_tail": _all_tail, "special_tails": _special_tails}


@pytest.mark.parametrize("N", [3, ss.forward.BLOCK + 7, 2 * ss.forward.BLOCK])
@pytest.mark.parametrize("kind", sorted(_TILE_ROWS))
@pytest.mark.parametrize("J", [1, 2, 9])
def test_tiles_round_trip_every_bit(kind, J, N):
    # each block keeps its rows up to where every one's tail has begun;
    # unpacked, by the oracle and by `rows`, they are the dense rows byte
    # for byte.  With N a multiple of BLOCK row N is alone in its block.
    # The grid is not read: every state is kept, so no block re-marches
    u = _TILE_ROWS[kind](N, J, np.random.default_rng(J * N))
    part = ss.TimePartition(times=np.linspace(0.0, 1.0, N + 1))
    traj = hand_run(None, part, u, ss.BURGERS, np.zeros(N + 1))
    kept_at = np.arange(N + 1)
    widths = _tile_widths(u, kept_at)
    if kind == "no_tail":
        assert widths == [J] * len(widths)
    if kind == "all_tail" or J == 1:
        assert widths == [1] * len(widths)
    assert traj.tiles[:, 1].tolist() == widths
    m = np.bincount(kept_at // ss.forward.BLOCK)
    assert traj.tiles[:, 0].tolist() == np.concatenate(
        ([0], np.cumsum(m * widths)[:-1])).tolist()
    assert traj.kept.nbytes == 8 * int(np.sum(m * widths))
    assert kept_states(traj).tobytes() == u.tobytes()
    assert states(traj).tobytes() == u.tobytes()


@pytest.mark.parametrize("layout", ["implicit", "mixed"])
def test_run_forward_cuts_each_tile_at_its_tail(layout, case):
    # the mixed layout's implicit ends cross block boundaries, so a block's
    # tile holds rows of two runs; every tile is as narrow as its rows
    # allow, narrower than the row where the shock has not reached the
    # outflow, and the re-marched blocks read the kept rows unpacked
    grid = ss.build_spatial_grid(20, 0, case.domain)
    part = _runs_partition(grid, case, _LAYOUTS[layout])
    want, _, _, failed = _full_march(grid, part, case)
    assert failed is None
    traj = ss.run_forward(grid, part, case)
    widths = _tile_widths(want, traj.kept_at)
    assert traj.tiles[:, 1].tolist() == widths
    assert max(widths) < grid.cell_count
    assert kept_states(traj).tobytes() == want[traj.kept_at].tobytes()
    assert states(traj).tobytes() == want.tobytes()


def test_blocked_gemv_dots_equal_one_gemv_at_levels_0_to_4(case):
    # This pins an assumption on the BLAS behind numpy (OpenBLAS 0.3.31,
    # Haswell kernel, where it was measured): its gemv forms each row's dot
    # by the same kernel path whichever rows come before it, as long as a
    # block starts a multiple of 4 rows after row 1, since the kernel takes
    # rows four at a time.  The march's dots, one gemv per block of
    # BLOCK rows from row 1 + BLOCK b, then equal one gemv over all rows,
    # and J_h has the bits it had when the states were stored.  Blocks of
    # 1 or 255 rows break it.  The row maxima are exact whatever the blocks.
    assert ss.forward.BLOCK % 4 == 0
    for level in range(5):
        grid = ss.build_spatial_grid(20, level, case.domain)
        part = ss.uniform_cfl_partition(case, grid, 0.8)
        traj = ss.run_forward(grid, part, case)
        red = traj.reduced
        u, W = states(traj), ss.weight_cell_integrals(grid, case)
        assert red.dots.tobytes() == (u[1:] @ W).tobytes(), level
        assert ss.evaluate_functional(traj, case) == \
            float(np.sum(part.steps * (u[1:] @ W))), level
        assert red.speeds.tobytes() == \
            ss.forward.wave_speeds(u, traj.g, case.flux).tobytes(), level
        assert red.coeff_speeds.tobytes() == ss.forward.wave_speeds(
            u[1:], np.zeros(part.interval_count), case.flux).tobytes(), level


class _NaNInflow:
    """The benchmark case with its inflow NaN from t_nan on."""

    def __init__(self, case, t_nan):
        self.case, self.t_nan = case, t_nan
        self.flux, self.domain = case.flux, case.domain

    def initial_cell_averages(self, edges):
        return self.case.initial_cell_averages(edges)

    def weight(self, x):
        return self.case.weight(x)

    def inflow_value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.t_nan, np.nan, self.case.inflow_value(t))


class _ConstantInflow(_NaNInflow):
    """The benchmark case with a constant inflow value."""

    def inflow_value(self, t):
        return np.full(np.shape(t), self.t_nan)


def _failing_run(case, kind):
    grid = ss.build_spatial_grid(20, 0, case.domain)
    if kind == "cfl":
        # one step at CFL 2 at interval 300, in the second block
        part = _runs_partition(grid, case, [(E, 300), (E, 40)])
        times = part.times.copy()
        times[301:] += 3 * (times[301] - times[300])
        return grid, ss.TimePartition(times=times, modes=part.modes), case
    if kind == "nan":
        part = _runs_partition(grid, case, [(E, 340)])
        return grid, part, _NaNInflow(case, part.times[300])
    # 260 short explicit steps, then k = 5h at inflow 1.03: undamped
    # Newton stalls near the outflow boundary, past the first block
    part = _runs_partition(grid, case, [(E, 260)])
    times = np.concatenate((part.times, part.times[-1] + 5 * grid.h
                            * np.arange(1, 200)))
    modes = np.concatenate((part.modes, np.full(199, I, np.int8)))
    return grid, ss.TimePartition(times=times, modes=modes), \
        _ConstantInflow(case, 1.03)


@pytest.mark.parametrize("kind", ["cfl", "nan", "stall"])
def test_refusals_in_a_later_block_keep_their_words(case, kind):
    # a failure past the first block names the interval and says what the
    # march over the whole array says
    grid, part, c = _failing_run(case, kind)
    *_, (n, err) = _full_march(grid, part, c)
    assert n >= ss.forward.BLOCK
    assert type(err) is (ss.NonConvergence if kind == "stall" else ss.SolverFailure)
    with pytest.raises(ss.SolverFailure) as exc:
        ss.run_forward(grid, part, c)
    assert str(exc.value) == f"interval {n} (t={part.times[n]:.6g}): {err}"
    assert type(exc.value.__cause__) is type(err)
