"""Backward transport solve for the adjoint gradient.

Checks the frozen-coefficient substepping against closed forms and an
independently coded re-march, discrete mass balance, and stability of the
sampled profiles across grid levels.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shockstep as ss
from shockstep.dual import build_coefficient_field
from oracles import end_state_run, w_samples


class _GradientOnlyCase:
    """Minimal stand-in exposing just the weight gradient."""

    def __init__(self, fn):
        self._fn = fn

    def weight_gradient(self, x):
        return self._fn(np.asarray(x, dtype=float))


# ------------------------------------------------------- coefficient field

def test_coefficient_field_is_the_run_itself(case):
    # the dual reads the end states and the flux of the run it linearizes
    traj = ss.run_forward(ss.build_spatial_grid(20, 0),
                          ss.uniform_partition(1.0, 0.04), case)
    assert build_coefficient_field(traj) is traj


# ------------------------------------------------------------ closed forms

def test_zero_weight_gradient_keeps_w_zero():
    grid = ss.build_spatial_grid(10, 0)
    part = ss.uniform_partition(2.0, 0.25)
    rng = np.random.default_rng(8)
    coeff = end_state_run(grid, part,
                          rng.uniform(-1.0, 1.0, (part.interval_count, 10)),
                          ss.BURGERS)
    stub = _GradientOnlyCase(np.zeros_like)
    dual = ss.solve_dual_gradient(coeff, stub)
    np.testing.assert_array_equal(w_samples(dual), 0.0)


def test_zero_coefficient_gives_linear_source_growth(case):
    # with a = 0 the update is pure accumulation: w(tau) = tau * source
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(3.0, 0.4)
    coeff = end_state_run(grid, part, np.zeros((part.interval_count, 20)),
                          ss.BURGERS)
    dual = ss.solve_dual_gradient(coeff, case)
    src = -case.weight_gradient(grid.centers)
    T = part.times[-1]
    W = w_samples(dual)  # each call marches the dual again
    for n in range(part.interval_count):
        expected = (T - part.times[n]) * src
        np.testing.assert_allclose(W[n], expected, rtol=0, atol=1e-12)


def test_unit_coefficient_first_order_convergence(case):
    # a = 1 transports the bump left; exact profile psi(x) - psi(x + tau)
    Td = 0.25
    errs = []
    for J in (20, 40, 80, 160):
        grid = ss.build_spatial_grid(J, 0)
        h = grid.h
        part = ss.uniform_partition(Td, h)
        coeff = end_state_run(
            grid, part, np.ones((part.interval_count, grid.cell_count)),
            ss.BURGERS)
        dual = ss.solve_dual_gradient(coeff, case, record_substeps=True)
        assert dual.max_mass_residual <= 1e-12
        xc = grid.centers
        tau = Td - 0.5 * part.times[1]
        wex = case.weight(xc) - case.weight(xc + tau)
        errs.append(h * float(np.sum(np.abs(w_samples(dual)[0] - wex))))
    np.testing.assert_allclose(
        errs, [4.147343e-2, 2.507848e-2, 1.346062e-2, 7.190383e-3], rtol=1e-6)
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 1.6 <= coarse / fine <= 2.4


# ----------------------------------------------------- substepping details

def test_substep_march_matches_scalar_reimplementation():
    rng = np.random.default_rng(23)
    J = 5
    grid = ss.build_spatial_grid(J, 0)
    h = grid.h
    times = np.array([0.0, 0.9, 1.5])
    part = ss.TimePartition(times=times)
    a_vals = rng.uniform(-1.5, 1.5, (2, J))
    stub = _GradientOnlyCase(lambda x: np.cos(3.0 * x))
    coeff = end_state_run(grid, part, a_vals, ss.BURGERS)
    dual = ss.solve_dual_gradient(coeff, stub, record_substeps=True)

    src = -np.cos(3.0 * grid.centers)
    w = np.zeros(J)
    samples = np.zeros((2, J))
    counts = {}
    for n in (1, 0):
        a = a_vals[n]
        k_n = times[n + 1] - times[n]
        m = max(1, int(np.ceil(k_n * np.max(np.abs(a)) / (0.8 * h) - 1e-12)))
        counts[n] = m
        dt = k_n / m
        a_ext = np.concatenate((a[:1], a, a[-1:]))
        for i in range(1, m + 1):
            w_ext = np.concatenate(([0.0], w, [0.0]))
            G = np.empty(J + 1)
            for q in range(J + 1):
                ah = 0.5 * (a_ext[q] + a_ext[q + 1])
                G[q] = -(max(ah, 0.0) * w_ext[q + 1] + min(ah, 0.0) * w_ext[q])
            w = w - (dt / h) * (G[1:] - G[:-1]) + dt * src
            if i == (m + 1) // 2:
                samples[n] = w

    assert float(np.max(np.abs(w_samples(dual) - samples))) <= 1e-15
    # the log must hold one entry per substep with the dt actually used
    for n in (0, 1):
        entries = [e for e in dual.substep_log if e[0] == n]
        assert len(entries) == counts[n]
        for _, dt, rel in entries:
            assert dt == pytest.approx((times[n + 1] - times[n]) / counts[n])
            assert rel <= 1e-12


def test_mass_balance_on_benchmark_march(case, base_trajectory):
    coeff = base_trajectory
    dual = ss.solve_dual_gradient(coeff, case, record_substeps=True)
    assert dual.max_mass_residual is not None
    assert dual.max_mass_residual <= 1e-12
    assert all(rel <= 1e-12 for _, _, rel in dual.substep_log)
    assert len(dual.substep_log) >= coeff.partition.interval_count


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=0.2), min_size=1,
                max_size=30),
       st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.booleans(),
       st.floats(min_value=0.05, max_value=1.0),
       st.sampled_from([None, 0.7]))
def test_mass_balance_on_random_fields(case, steps, J, seed, zero, dual_cfl,
                                       scalar):
    # scalar: a constant weight gradient given as one number, which
    # broadcasts over the cells and must balance as the same array does
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(steps))))
    a = np.zeros((len(steps), J)) if zero else \
        np.random.default_rng(seed).uniform(-2.0, 2.0, (len(steps), J))
    coeff = end_state_run(grid, part, a, ss.BURGERS)
    source = case if scalar is None else _GradientOnlyCase(lambda x: scalar)
    dual = ss.solve_dual_gradient(coeff, source, dual_cfl, record_substeps=True)
    assert dual.max_mass_residual <= 1e-12
    if scalar is not None:
        full = _GradientOnlyCase(lambda x: np.full(x.shape, scalar))
        want = ss.solve_dual_gradient(coeff, full, dual_cfl, record_substeps=True)
        assert w_samples(dual).tobytes() == w_samples(want).tobytes()
        assert dual.max_mass_residual == want.max_mass_residual


def test_substep_log_absent_by_default(case):
    grid = ss.build_spatial_grid(10, 0)
    part = ss.uniform_partition(1.0, 0.5)
    coeff = end_state_run(grid, part, np.ones((2, 10)), ss.BURGERS)
    dual = ss.solve_dual_gradient(coeff, case)
    assert dual.substep_log is None
    assert dual.max_mass_residual is None


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_dual_cfl_validation(case, bad):
    grid = ss.build_spatial_grid(10, 0)
    part = ss.uniform_partition(1.0, 0.5)
    coeff = end_state_run(grid, part, np.ones((2, 10)), ss.BURGERS)
    with pytest.raises(ValueError, match="dual_cfl"):
        ss.solve_dual_gradient(coeff, case, dual_cfl=bad)


# ----------------------------------------------------------------- sampling

def test_sampled_profiles_stable_across_grid_levels(case):
    # same time partition on 20 and 40 cells; away from the layer the
    # sampled gradient profiles should agree to leading order
    g20 = ss.build_spatial_grid(20, 0)
    speed = ss.speed_for_basis(case, g20, "global")
    k1 = 0.8 * (1.0 / 40) / speed
    W = {}
    part = None
    for J in (20, 40):
        grid = ss.build_spatial_grid(J, 0)
        part = ss.uniform_partition(case.T, k1)
        traj = ss.run_forward(grid, part, case)
        W[J] = w_samples(ss.solve_dual_gradient(traj, case))
    nstar = int(np.argmin(np.abs(part.times - 40.0)))
    w0 = W[20][nstar - 1]
    w1 = W[40][nstar - 1]
    w1c = 0.5 * (w1[0::2] + w1[1::2])
    xc = (np.arange(20) + 0.5) / 20
    mask = np.abs(xc - 0.5) > 3.0 / 20
    scale = float(np.max(np.abs(w0[mask])))
    dev = float(np.max(np.abs(w0[mask] - w1c[mask])))
    assert scale > 0.0
    assert dev / scale <= 0.2
