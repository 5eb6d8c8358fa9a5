import hashlib

import numpy as np
import pytest

import shockstep as ss
from shockstep.testcase import (shock_position, shock_speed,
                                weight_and_derivative)


def test_shock_position_stationary_outside_windows(case):
    for t in (0.0, 6.0, 20.0, 28.0, 40.0, 48.0):
        assert case.shock_position(t) == 0.5


def test_shock_position_frozen_values(case):
    assert case.shock_position(15.0) == pytest.approx(0.5, abs=1e-15)
    assert case.shock_position(12.75) == pytest.approx(0.500274772644043, abs=1e-12)


def test_shock_position_range_errors(case):
    with pytest.raises(ValueError):
        case.shock_position(-0.1)
    with pytest.raises(ValueError):
        case.shock_position(48.001)


def test_shock_speed_zeros_and_peak(case):
    for t in (6.0, 12.0, 18.0, 30.0, 36.0):
        assert case.shock_speed(t) == pytest.approx(0.0, abs=1e-15)
    assert case.shock_speed(15.0) == pytest.approx(np.pi / 200, abs=1e-12)


def test_shock_speed_smooth_window_entry(case):
    # quartic contact: the derivative switches on without a kink
    for t0 in (12.0, 18.0, 30.0, 36.0):
        assert abs(case.shock_speed(t0 + 1e-6)) < 1e-12
        assert abs(case.shock_speed(t0 - 1e-6)) < 1e-12


def test_shock_speed_matches_position_derivative(case):
    # central differences of s against the closed-form sdot
    rng = np.random.default_rng(5)
    ts = np.concatenate([12.0 + 6.0 * rng.random(40), 30.0 + 6.0 * rng.random(40)])
    d = 1e-5
    for t in ts:
        fd = (case.shock_position(t + d) - case.shock_position(t - d)) / (2 * d)
        assert fd == pytest.approx(case.shock_speed(t), abs=1e-8)


def test_module_level_functions_respect_scale():
    assert shock_position(12.75, scale=0.0) == 0.5
    assert shock_speed(15.0, scale=0.0) == 0.0
    assert shock_position(12.75, scale=2.0) - 0.5 == pytest.approx(
        2.0 * (shock_position(12.75) - 0.5), rel=1e-12)


def test_weight_values(case):
    assert case.weight(0.45) == pytest.approx(np.exp(-1.0), abs=1e-16)
    assert case.weight(0.55) == pytest.approx(np.exp(-4.0 / 3.0), abs=1e-15)
    for x in (0.25, 0.65, 0.2, 0.7, -1.0, 2.0):
        assert case.weight(x) == 0.0


def test_weight_gradient_consistency(case):
    v, d = weight_and_derivative(0.45)
    assert v == case.weight(0.45)
    assert d == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(9)
    xs = 0.27 + 0.36 * rng.random(60)
    eps = 1e-7
    fd = (case.weight(xs + eps) - case.weight(xs - eps)) / (2 * eps)
    assert np.allclose(fd, case.weight_gradient(xs), rtol=2e-5, atol=1e-10)


def test_weight_overflow_safe_near_support_edge(case):
    # underflow to zero is the intended behavior, so only trap the bad kinds
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        v, d = weight_and_derivative(np.array([0.6499999999, 0.2500000001]))
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(d))
    assert np.all(v >= 0.0)


def test_inflow_is_one_outside_perturbation_windows(case):
    for t in (0.0, 5.0, 20.0, 28.0, 40.0, 48.0):
        assert float(case.inflow_value(t)) == 1.0


def test_inflow_peak(case):
    peak = case.inflow_peak()
    assert peak == pytest.approx(1.0 + np.pi / 100, abs=1e-6)
    ts = np.linspace(0.0, 48.0, 4801)
    assert float(np.max(case.inflow_value(ts))) <= peak + 1e-12


def test_inflow_dips_below_one(case):
    ts = np.linspace(11.0, 18.0, 2000)
    g = case.inflow_value(ts)
    assert float(np.min(g)) < 0.99
    assert float(np.max(g)) > 1.02


def test_second_window_is_weaker(case):
    t1 = np.linspace(11.0, 18.0, 2000)
    t2 = np.linspace(29.0, 36.0, 2000)
    a1 = float(np.max(np.abs(case.inflow_value(t1) - 1.0)))
    a2 = float(np.max(np.abs(case.inflow_value(t2) - 1.0)))
    assert a1 / a2 == pytest.approx(15.0, rel=0.1)


def test_inflow_table_matches_direct_rootfind(case):
    """The memoized inflow table against a per-point bisection oracle."""

    def g_direct(t0):
        a, b = 11.5, 17.5
        for _ in range(200):
            mid = 0.5 * (a + b)
            u_left = 1.0 + 2.0 * case.shock_speed(mid)
            depart = mid - case.shock_position(mid) / u_left
            if depart < t0:
                a = mid
            else:
                b = mid
        tau = 0.5 * (a + b)
        return 1.0 + 2.0 * case.shock_speed(tau)

    rng = np.random.default_rng(3)
    ts = 11.2 + rng.random(50) * 5.6
    got = case.inflow_value(ts)
    want = np.array([g_direct(t) for t in ts])
    assert float(np.max(np.abs(got - want))) < 1e-7


def test_inflow_table_bit_exact(case):
    # sha256 of the scale-1 table (both windows' t pieces, then both g
    # pieces), frozen before the window-local rewrite of the shock path
    pieces_t, pieces_g = case._ensure_table()
    digest = hashlib.sha256(np.concatenate(pieces_t + pieces_g).tobytes())
    assert digest.hexdigest() == (
        "b5a5e9581a4f1d52dfa8ab84591e0b3e18dbaf0b20a98451de51a746944e9433")


def test_validate_characteristics_bit_exact(case):
    rep = ss.validate_characteristics(case)
    assert rep.monotone_departure is True
    assert rep.min_inflow_value == 0.9811285472102608
    assert rep.min_departure_spacing == 0.0009587703865534536
    assert rep.ok is True


def test_initial_cell_averages_even_grid(case):
    g = ss.build_spatial_grid(20, 0)
    u0 = case.initial_cell_averages(g.edges)
    assert np.array_equal(u0[:10], np.ones(10))
    assert np.array_equal(u0[10:], -np.ones(10))


def test_initial_cell_averages_straddling_cell(case):
    g = ss.build_spatial_grid(21, 0)
    u0 = case.initial_cell_averages(g.edges)
    assert np.all(u0[:10] == 1.0)
    assert np.all(u0[11:] == -1.0)
    assert abs(u0[10]) < 1e-13


def test_validate_characteristics_healthy(case):
    rep = case_report = ss.validate_characteristics(case)
    assert rep.ok
    assert rep.monotone_departure
    assert rep.min_inflow_value == pytest.approx(0.9811285472102608, abs=1e-6)
    assert rep.min_departure_spacing > 0.0
    assert case_report.min_departure_spacing == pytest.approx(9.587704e-4, rel=1e-3)


def test_validate_characteristics_flags_crossing():
    blown = ss.PerturbedShockCase(perturbation_scale=100.0)
    rep = ss.validate_characteristics(blown)
    assert not rep.ok
    assert not rep.monotone_departure
    assert rep.min_inflow_value < 0.0


def test_zero_scale_case_is_steady():
    quiet = ss.PerturbedShockCase(perturbation_scale=0.0)
    ts = np.linspace(0.0, 48.0, 977)
    assert np.all(quiet.inflow_value(ts) == 1.0)
    assert quiet.shock_position(33.3) == 0.5
