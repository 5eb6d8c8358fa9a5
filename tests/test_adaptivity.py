"""Density-driven step proposal, mode assignment, and the level loop.

The proposal walk and the implicit/explicit tagging are exercised on
hand-built partitions with known answers; the full loop is pinned by
frozen step counts and density values for the three chain variants.
"""
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import shockstep as ss


# ---------------------------------------------------------------- config

def test_config_accepts_defaults():
    cfg = ss.AdaptationConfig()
    assert [f.name for f in fields(cfg)] == ["tol_k", "tol_total",
                                             "cfl_explicit"]
    assert cfg.cfl_explicit == 0.8
    assert (ss.adaptivity.CFL_SWITCH, ss.adaptivity.CFL_CAP) == (5.0, 1e4)


@pytest.mark.parametrize("kw", [
    dict(cfl_explicit=6.0),
    # the switch itself: explicit retiling needs cfl_explicit below it
    dict(cfl_explicit=5.0),
    dict(cfl_explicit=0.0),
    dict(tol_k=-1.0),
    dict(tol_total=0.0),
    dict(cfl_explicit=-0.5),
    # v <= 0 is false for NaN, and a NaN tol_k would plan one step over [0, T]
    dict(tol_k=np.nan),
    dict(tol_total=np.nan),
    dict(cfl_explicit=np.nan),
    dict(tol_k=np.inf),
    dict(tol_total=np.inf),
    dict(tol_k=0.0),
])
def test_config_rejects_inconsistent_values(kw):
    with pytest.raises(ValueError):
        ss.AdaptationConfig(**kw)


def test_effective_floor_paths():
    # a zero density takes the floor FLOOR_SCALE * tol_k / T = 1e-17: the
    # 1e-15 interval then proposes k_m = 0.1, which cuts a step from t = 0
    # back to that interval's start, 0.5, only when the step reaches past 0.6
    old = ss.TimePartition(times=np.array([0.0, 0.5, 0.5 + 1e-15, 1.0]))
    cfg = ss.AdaptationConfig(tol_k=1e-3)
    cut = ss.propose_timesteps(old, np.array([0.5e-3 / 0.61, 0.0, 0.0]), cfg)
    assert cut.tolist() == [0.5, 0.5]
    kept = ss.propose_timesteps(old, np.array([0.5e-3 / 0.59, 0.0, 0.0]), cfg)
    assert kept.size == 2 and kept[0] == pytest.approx(0.59, rel=1e-12)
    with pytest.raises(ValueError, match="tol_k"):
        ss.propose_timesteps(old, np.zeros(3), ss.AdaptationConfig())


# --------------------------------------------------------------- proposal

def test_propose_constant_density_is_fixed_point():
    old = ss.uniform_partition(2.0, 0.25)
    d = 3.7e-4
    # tol/T equals the density, k_m = k_old
    cfg = ss.AdaptationConfig(tol_k=d * 2.0)
    raw = ss.propose_timesteps(old, np.full(8, d), cfg)
    assert raw.size == 8
    np.testing.assert_allclose(raw, 0.25, rtol=1e-12)
    assert np.sum(raw) == pytest.approx(2.0, abs=1e-12)


def test_propose_zero_density_collapses_to_single_step():
    old = ss.uniform_partition(2.0, 0.25)
    cfg = ss.AdaptationConfig(tol_k=1e-3)
    raw = ss.propose_timesteps(old, np.zeros(8), cfg)
    np.testing.assert_allclose(raw, [2.0], rtol=0, atol=1e-15)


def test_propose_clips_bridging_step_at_fine_region():
    # quiet spans propose huge steps; the walk must stop at the boundary
    # of the active region instead of jumping across it
    old = ss.TimePartition(times=np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    dens = np.array([0.0, 0.0, 0.01, 0.0])
    # k_m in the active span: 0.5*1e-3/0.01 = 0.05
    cfg = ss.AdaptationConfig(tol_k=2e-3)
    raw = ss.propose_timesteps(old, dens, cfg)
    assert raw[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(raw[1:-1], 0.05, rtol=1e-9)
    assert raw[-1] == pytest.approx(0.5, abs=1e-12)
    assert raw.size == 12


@pytest.mark.parametrize("dens,msg", [
    (np.array([]), "empty"),
    (np.ones(3), "misaligned"),
    (np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), "nonnegative"),
    (np.array([1e-3, np.nan, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3]), "finite"),
])
def test_propose_rejects_bad_densities(dens, msg):
    old = ss.uniform_partition(2.0, 0.25)
    with pytest.raises(ValueError, match=msg):
        ss.propose_timesteps(old, dens, ss.AdaptationConfig(tol_k=1e-3))


# an infinite density (k_m = 0) would keep an unchecked walk appending
# zero steps until memory runs out, so this check runs in a child with a
# capped address space and a timeout
_INFINITE_PLANNER_INPUT = """
import numpy as np
import shockstep as ss
dens = np.array([1e-3, np.inf, 1e-3, 1e-3])
try:
    ss.propose_timesteps(ss.uniform_partition(2.0, 0.5), dens,
                         ss.AdaptationConfig(tol_k=1e-3))
except ValueError:
    pass
else:
    raise SystemExit(f"accepted densities {dens}")
"""


def test_propose_refuses_infinite_input_without_hanging(capped_child):
    proc = capped_child(_INFINITE_PLANNER_INPUT, 1 << 30)
    assert proc.returncode == 0, proc.stderr


# a huge finite density gives k_m = 2.5e-304: at t = 0.5, t + k_m == t, and
# an unchecked walk appends t forever, so this too runs in a capped child
_HUGE_DENSITY_INPUT = """
import numpy as np
import shockstep as ss
try:
    ss.propose_timesteps(ss.uniform_partition(2.0, 0.5),
                         np.array([1e-3, 1e300, 1e-3, 1e-3]),
                         ss.AdaptationConfig(tol_k=1e-3))
except ValueError as err:
    assert "does not advance" in str(err), err
else:
    raise SystemExit("accepted a density of 1e300")
"""


def test_propose_refuses_a_step_that_does_not_advance(capped_child):
    proc = capped_child(_HUGE_DENSITY_INPUT, 1 << 30)
    assert proc.returncode == 0, proc.stderr


# the same density on the first interval gives steps of 2.5e-304 that do
# advance t from 0, about 1.8e16 of them before one no longer does; the
# count pass must refuse from its lower bound on the count, at once
_HUGE_FIRST_DENSITY_INPUT = """
import numpy as np
import shockstep as ss
try:
    ss.propose_timesteps(ss.uniform_partition(2.0, 0.5),
                         np.array([1e300, 1e-3, 1e-3, 1e-3]),
                         ss.AdaptationConfig(tol_k=1e-3))
except MemoryError as err:
    assert "address space" in str(err), err
else:
    raise SystemExit("accepted a density of 1e300 on the first interval")
"""


def test_propose_refuses_a_plan_no_address_space_holds(capped_child):
    proc = capped_child(_HUGE_FIRST_DENSITY_INPUT, 1 << 30, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_propose_always_tiles_exactly():
    rng = np.random.default_rng(31)
    for _ in range(30):
        T = float(rng.uniform(0.5, 50.0))
        k = T / int(rng.integers(4, 40))
        old = ss.uniform_partition(T, k)
        dens = rng.uniform(0.0, 1e-2, old.interval_count)
        dens[rng.random(dens.size) < 0.3] = 0.0
        cfg = ss.AdaptationConfig(tol_k=float(rng.uniform(1e-5, 1e-2)))
        raw = ss.propose_timesteps(old, dens, cfg)
        assert np.all(raw > 0.0)
        assert abs(np.sum(raw) - T) <= 1e-12 * T


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1,
                max_size=30),
       st.data())
def test_propose_tiles_horizon_for_random_densities(old_steps, data):
    # irregular old partition, densities with zeros; tol_k keeps the
    # proposal near or below 2000 steps, sum(density) * T / tol_k
    old = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(old_steps))))
    T = old.T
    dens = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3)),
        min_size=old.interval_count, max_size=old.interval_count)))
    need = max(float(np.sum(dens)) * T / 2000.0, 1e-12)
    tol_k = need * data.draw(st.floats(min_value=1.0, max_value=1e6))
    raw = ss.propose_timesteps(old, dens, ss.AdaptationConfig(tol_k=tol_k))
    assert np.all(raw > 0.0)
    assert abs(np.sum(raw) - T) <= 1e-12 * T


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1,
                max_size=30),
       st.data())
def test_planner_on_python_floats_matches_numpy_scalars(old_steps, data):
    # the proposal walk and the mode assignment give the bits of their
    # numpy-scalar versions in tests/oracles.py, on random partitions,
    # densities (zeros included), speed profiles and explicit CFLs; the
    # speeds put planning CFLs on both sides of CFL_SWITCH and past CFL_CAP
    old = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(old_steps))))
    T = old.T
    dens = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3)),
        min_size=old.interval_count, max_size=old.interval_count)))
    need = max(float(np.sum(dens)) * T / 2000.0, 1e-12)
    tol_k = need * data.draw(st.floats(min_value=1.0, max_value=1e6))
    cfg = ss.AdaptationConfig(
        tol_k=tol_k,
        cfl_explicit=data.draw(st.floats(min_value=0.5, max_value=0.9)))
    raw = ss.propose_timesteps(old, dens, cfg)
    assert raw.tobytes() == oracles.propose_timesteps(old, dens, cfg).tobytes()
    cuts = np.sort(data.draw(st.lists(st.floats(min_value=0.0, max_value=T),
                                      max_size=8)))
    times = np.concatenate(([0.0], cuts, [T]))
    speeds = data.draw(st.lists(st.one_of(st.just(0.0),
                                          st.floats(min_value=0.0, max_value=2.0),
                                          st.floats(min_value=2.0, max_value=1e5)),
                                min_size=times.size - 1, max_size=times.size - 1))
    profile = ss.SpeedProfile(times=times, values=np.array(speeds))
    h = data.draw(st.floats(min_value=0.05, max_value=1.0))
    for strategy in ("imex", "fully_implicit"):
        plan = ss.assign_modes(raw, profile, cfg, h, strategy)
        want = oracles.assign_modes(raw, profile, cfg, h, strategy)
        assert plan.partition.times.tobytes() == want.partition.times.tobytes()
        assert plan.partition.modes.tobytes() == want.partition.modes.tobytes()
        assert plan.stats == want.stats


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1,
                max_size=30),
       st.data())
def test_planner_keeps_its_invariants(old_steps, data):
    # the inputs of test_planner_on_python_floats_matches_numpy_scalars;
    # each plan tiles [0, T] with the step counts its stats report, and
    # no step exceeds its mode's planning CFL
    old = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(old_steps))))
    T = old.T
    dens = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e3)),
        min_size=old.interval_count, max_size=old.interval_count)))
    need = max(float(np.sum(dens)) * T / 2000.0, 1e-12)
    tol_k = need * data.draw(st.floats(min_value=1.0, max_value=1e6))
    cfg = ss.AdaptationConfig(
        tol_k=tol_k,
        cfl_explicit=data.draw(st.floats(min_value=0.5, max_value=0.9)))
    raw = ss.propose_timesteps(old, dens, cfg)
    cuts = np.sort(data.draw(st.lists(st.floats(min_value=0.0, max_value=T),
                                      max_size=8)))
    times = np.concatenate(([0.0], cuts, [T]))
    speeds = data.draw(st.lists(st.one_of(st.just(0.0),
                                          st.floats(min_value=0.0, max_value=2.0),
                                          st.floats(min_value=2.0, max_value=1e5)),
                                min_size=times.size - 1, max_size=times.size - 1))
    profile = ss.SpeedProfile(times=times, values=np.array(speeds))
    h = data.draw(st.floats(min_value=0.05, max_value=1.0))
    for strategy in ("imex", "fully_implicit"):
        plan = ss.assign_modes(raw, profile, cfg, h, strategy)
        part, stats = plan.partition, plan.stats
        t, modes = part.times, part.modes
        assert t[0] == 0.0 and t[-1] == T
        assert np.all(np.diff(t) > 0.0)
        assert stats.N == len(modes) == stats.N_explicit + stats.N_implicit
        if strategy == "fully_implicit":
            assert stats.N_explicit == 0
        cfl = part.steps * profile.max_over(t[:-1], t[1:]) / h
        explicit = modes == ss.EXPLICIT
        assert np.all(cfl[explicit] <= cfg.cfl_explicit * (1 + 1e-9))
        assert np.all(cfl[~explicit] <= ss.adaptivity.CFL_CAP * (1 + 1e-9))
        assert (stats.cfl_min, stats.cfl_max) == (cfl.min(), cfl.max())


def test_propose_step_count_monotone_in_tolerance():
    rng = np.random.default_rng(32)
    for _ in range(20):
        old = ss.uniform_partition(10.0, 0.5)
        dens = rng.uniform(0.0, 1e-3, 20)
        tol = float(rng.uniform(1e-5, 1e-3))
        n_fine = ss.propose_timesteps(old, dens,
                                      ss.AdaptationConfig(tol_k=tol)).size
        n_coarse = ss.propose_timesteps(old, dens,
                                        ss.AdaptationConfig(tol_k=2 * tol)).size
        assert n_coarse <= n_fine


# ----------------------------------------------------------- mode tagging

def _flat_profile(T, speed):
    return ss.SpeedProfile(times=np.array([0.0, T]),
                           values=np.array([speed]))


def test_assign_modes_fully_implicit():
    cfg = ss.AdaptationConfig(tol_k=1.0)
    plan = ss.assign_modes(np.array([0.5, 0.5]), _flat_profile(1.0, 1.0),
                           cfg, h=0.05, strategy="fully_implicit")
    part = plan.partition
    assert part.interval_count == 2
    assert np.all(part.modes == ss.IMPLICIT)
    assert plan.stats.N_implicit == 2
    assert plan.stats.N_explicit == 0
    assert plan.stats.cfl_max == pytest.approx(10.0, rel=1e-12)


def test_assign_modes_splits_steps_beyond_cfl_cap():
    cfg = ss.AdaptationConfig(tol_k=1.0)  # default cap 1e4
    plan = ss.assign_modes(np.array([0.5]), _flat_profile(0.5, 2500.0),
                           cfg, h=0.05, strategy="fully_implicit")
    part = plan.partition
    # planning CFL 2.5e4 needs three pieces under the 1e4 cap
    assert part.interval_count == 3
    np.testing.assert_allclose(part.steps, 0.5 / 3, rtol=1e-12)
    assert part.times[-1] == 0.5
    assert np.all(part.modes == ss.IMPLICIT)
    assert plan.stats.cfl_max <= ss.adaptivity.CFL_CAP * (1 + 1e-9)


def test_assign_modes_imex_retiles_quiet_runs():
    raw = np.array([0.3, 0.1, 0.1, 0.3, 0.2])
    cfg = ss.AdaptationConfig(tol_k=1.0)
    plan = ss.assign_modes(raw, _flat_profile(1.0, 1.0), cfg, h=0.05,
                           strategy="imex")
    part = plan.partition
    # CFL per segment: 6, 2, 2, 6, 4 with the 5.0 switch
    assert part.interval_count == 12
    modes = part.modes
    assert modes[0] == ss.IMPLICIT
    assert np.all(modes[1:6] == ss.EXPLICIT)
    assert modes[6] == ss.IMPLICIT
    assert np.all(modes[7:] == ss.EXPLICIT)
    # merged spans are re-tiled at the explicit CFL target exactly
    np.testing.assert_allclose(part.steps[1:6], 0.04, rtol=1e-12)
    np.testing.assert_allclose(part.steps[7:], 0.04, rtol=1e-12)
    for t in (0.3, 0.8):
        assert np.any(np.abs(part.times - t) < 1e-12)
    assert plan.stats.N_explicit == 10
    assert plan.stats.N_implicit == 2
    assert plan.stats.cfl_max == pytest.approx(6.0, rel=1e-12)
    assert plan.stats.cfl_min == pytest.approx(0.8, rel=1e-9)


def test_assign_modes_zero_speed_run_is_single_explicit_step():
    cfg = ss.AdaptationConfig(tol_k=1.0)
    plan = ss.assign_modes(np.array([0.5, 0.5]), _flat_profile(1.0, 0.0),
                           cfg, h=0.05, strategy="imex")
    assert plan.partition.interval_count == 1
    assert plan.partition.modes[0] == ss.EXPLICIT


def test_assign_modes_rejects_bad_input():
    cfg = ss.AdaptationConfig(tol_k=1.0)
    prof = _flat_profile(2.0, 1.0)
    with pytest.raises(ValueError, match="do not tile"):
        ss.assign_modes(np.array([0.5, 0.5]), prof, cfg, h=0.05)
    with pytest.raises(ValueError, match="unknown strategy"):
        ss.assign_modes(np.array([1.0, 1.0]), prof, cfg, h=0.05,
                        strategy="semi")


# planning CFL 1e301 asks for 1e297 implicit pieces: a layout one piece
# at a time runs out of memory (or time) long before it could end, so the
# count is refused before anything is allocated, in a capped child
_HUGE_CFL_INPUT = """
import numpy as np
import shockstep as ss
for strategy in ("fully_implicit", "imex"):
    try:
        ss.assign_modes(np.array([1.0, 1.0]),
                        ss.SpeedProfile(times=[0, 2], values=[1e300]),
                        ss.AdaptationConfig(tol_k=1e-3), 0.1, strategy)
    except MemoryError as err:
        assert "planning CFL 1e+301" in str(err), err
    else:
        raise SystemExit(f"{strategy}: laid a plan at planning CFL 1e301")
"""


def test_assign_modes_refuses_a_plan_too_large_to_count(capped_child):
    proc = capped_child(_HUGE_CFL_INPUT, 1 << 30, timeout=10)
    assert proc.returncode == 0, proc.stderr


# a NaN speed makes a NaN planning CFL, which is neither at nor below the
# switch: an imex run of such segments would never advance
_NAN_SPEED_INPUT = """
import numpy as np
import shockstep as ss
for strategy in ("fully_implicit", "imex"):
    try:
        ss.assign_modes(np.array([1.0, 1.0]),
                        ss.SpeedProfile(times=[0, 1, 2], values=[1.0, np.nan]),
                        ss.AdaptationConfig(tol_k=1e-3), 0.1, strategy)
    except ValueError as err:
        assert "NaN" in str(err), err
    else:
        raise SystemExit(f"{strategy}: laid a plan at a NaN planning CFL")
"""


def test_assign_modes_refuses_a_nan_planning_cfl(capped_child):
    proc = capped_child(_NAN_SPEED_INPUT, 1 << 30, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_planned_modes_are_sound_on_benchmark_plan(base_trajectory, ex2_report):
    profile = ss.SpeedProfile.from_trajectory(base_trajectory)
    part = ex2_report.partition
    k = part.steps
    cfl = np.array([k[i] * profile.max_over(part.times[i], part.times[i + 1])
                    / ex2_report.grid.h for i in range(part.interval_count)])
    implicit = part.modes == ss.IMPLICIT
    assert float(np.min(cfl[implicit])) >= 5.0
    assert float(np.max(cfl[~implicit])) <= 0.8 * (1 + 1e-9)


def test_solve_level_memory_is_a_fifth_of_the_states(case):
    # no (N+1, J) array at all: the forward march keeps a checkpoint every
    # BLOCK states and reduces each block to its row vectors while it is
    # in cache, and the backward sweep rebuilds one block at a time into a
    # (BLOCK + 1, J) buffer.  Measured 0.141x the states at this level
    # (1.79 MB of 12.7 MB; 1.09x when the states were stored): vectors of
    # length N (steps, inflow, Newton record, row reductions, substep
    # plan, the four sums) and the block buffers; 0.2 leaves room for them
    grid = ss.build_spatial_grid(20, 3)
    part = ss.uniform_cfl_partition(case, grid, 0.8)
    case.inflow_value(0.0)     # the inflow table is built outside the trace
    tracemalloc.start()
    try:
        ss.solve_level(3, grid, part, case, 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states_nbytes = (part.interval_count + 1) * grid.cell_count * 8
    assert peak <= 0.2 * states_nbytes


@pytest.mark.parametrize("runs", [[(ss.EXPLICIT, 300)], [(ss.IMPLICIT, 300)],
                                  [(ss.EXPLICIT, 200), (ss.IMPLICIT, 100),
                                   (ss.EXPLICIT, 150)]])
def test_solve_level_reads_each_block_once(case, monkeypatch, runs):
    # the dual's plan, the speed profile and J_h read the row reductions
    # the march took; only the breakdown's backward sweep reads states,
    # each block once from its checkpoint, the last block first, so
    # `ForwardTrajectory.rows` is called ceil(N / BLOCK) times.  Reading
    # all N + 1 states would call it once more per block
    grid = ss.build_spatial_grid(20, 0)
    k = {ss.EXPLICIT: 0.02, ss.IMPLICIT: 0.1}
    modes = np.concatenate([np.full(n, m, np.int8) for m, n in runs])
    part = ss.TimePartition(times=np.concatenate(
        ([0.0], np.cumsum([k[int(m)] for m in modes]))), modes=modes)
    want = ss.solve_level(0, grid, part, case, 0.8)
    calls = []
    rows = ss.ForwardTrajectory.rows

    def counted(traj, lo, hi, buf):
        calls.append((lo, hi))
        return rows(traj, lo, hi, buf)

    monkeypatch.setattr(ss.ForwardTrajectory, "rows", counted)
    rep = ss.solve_level(0, grid, part, case, 0.8)
    B, N = ss.forward.BLOCK, part.interval_count
    assert len(calls) == math.ceil(N / B)
    assert calls == [(lo, min(lo + B, N)) for lo in reversed(range(0, N, B))]
    assert rep.breakdown.J_h == want.breakdown.J_h


_RSS_CHILD = """\
import resource, sys
import shockstep as ss
case = ss.PerturbedShockCase()
grid = ss.build_spatial_grid(20, 4, case.domain)
part = ss.uniform_cfl_partition(case, grid, 0.8)
case.inflow_value(0.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ss.solve_level(4, grid, part, case, 0.8)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before, (part.interval_count + 1) * grid.cell_count * 8)
"""


def test_solve_level_rss_is_o_states(capped_child):
    # what tracemalloc cannot see, the C side's buffers included: the peak
    # resident set of a fresh process running uniform level 4 (states
    # 48.4 MiB, none of them stored now) grows over its import and inflow
    # table by 48-204 KiB, 0.001-0.004x the states, measured in three
    # runs; with all states stored it was 0.98x, and 1.97x with the dual
    # samples stored as well
    proc = capped_child(_RSS_CHILD, 1 << 32, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown_kib, states_nbytes = map(int, proc.stdout.split())
    assert grown_kib * 1024 <= 0.25 * states_nbytes


_IMPLICIT_RSS_CHILD = """\
import resource
import shockstep as ss
case = ss.PerturbedShockCase()
grid = ss.build_spatial_grid(20, 4, case.domain)
part = ss.uniform_cfl_partition(case, grid, 0.8, mode=ss.IMPLICIT)
case.inflow_value(0.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ss.solve_level(4, grid, part, case, 0.8)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
traj = ss.run_forward(grid, part, case)
J = grid.cell_count
print(part.interval_count, after - before, (part.interval_count + 1) * J * 8,
      traj.kept.nbytes, traj.kept_at.size * J * 8)
"""


def test_fully_implicit_solve_level_stores_half_its_states(capped_child):
    # a fully implicit run keeps every state, since rebuilding one would
    # take Newton again, but only up to where its stationary tail begins:
    # at uniform level 4 the tiles hold 0.511x the dense kept bytes, and
    # the peak resident set grows by 0.52-0.55x the dense states (0.999x
    # when they were stored whole)
    proc = capped_child(_IMPLICIT_RSS_CHILD, 1 << 32, timeout=300)
    assert proc.returncode == 0, proc.stderr
    N, grown_kib, states_nbytes, kept_nbytes, dense_kept = \
        map(int, proc.stdout.split())
    assert N == 19_804
    assert grown_kib * 1024 <= 0.6 * states_nbytes
    assert kept_nbytes <= 0.55 * dense_kept


# ------------------------------------------------------------ speed profile

def test_speed_profile_includes_inflow(case):
    grid = ss.build_spatial_grid(4, 0)
    part = ss.TimePartition(times=np.array([0.0, 1.0, 2.0]))

    def run(value):
        return oracles.hand_run(grid, part, np.full((3, 4), value),
                                ss.BURGERS, case.inflow_value(part.times))

    prof = ss.SpeedProfile.from_trajectory(run(0.5))
    # the boundary value 1.0 beats every interior speed here
    np.testing.assert_array_equal(prof.values, [1.0, 1.0])
    prof = ss.SpeedProfile.from_trajectory(run(-2.0))
    np.testing.assert_array_equal(prof.values, [2.0, 2.0])


def _abs_table_profile(traj, case):
    """The profile values as built from a full |f'| table."""
    u = oracles.states(traj)
    state_speed = np.max(np.abs(oracles.fprime(traj.flux, u)), axis=1)
    g = np.asarray(case.inflow_value(traj.partition.times), dtype=float)
    node = np.maximum(state_speed, np.abs(oracles.fprime(traj.flux, g)))
    return np.maximum(node[:-1], node[1:])


def test_speed_profile_matches_abs_table(case, linear_case, base_trajectory):
    traj = base_trajectory
    prof = ss.SpeedProfile.from_trajectory(traj)
    assert prof.values.tobytes() == _abs_table_profile(traj, case).tobytes()
    grid = ss.build_spatial_grid(20, 1)
    part = ss.uniform_partition(linear_case.T, 0.8 * grid.h / 1.3)
    traj = ss.run_forward(grid, part, linear_case)
    prof = ss.SpeedProfile.from_trajectory(traj)
    assert prof.values.tobytes() == \
        _abs_table_profile(traj, linear_case).tobytes()


def test_speed_profile_interval_maxima():
    prof = ss.SpeedProfile(times=np.array([0.0, 1.0, 2.0, 3.0]),
                           values=np.array([1.0, 5.0, 2.0]))
    assert prof.max_over(0.0, 1.0) == 1.0
    assert prof.max_over(0.5, 1.5) == 5.0
    assert prof.max_over(1.2, 1.8) == 5.0
    assert prof.max_over(2.5, 3.0) == 2.0
    assert prof.max_over(0.1, 2.9) == 5.0


def _brute_max_over(times, values, ta, tb):
    """Slice maximum over the intervals that overlap [ta, tb]; a window
    outside the profile takes the nearest end value."""
    hit = [values[i] for i in range(len(values))
           if times[i] < tb and times[i + 1] > ta]
    if hit:
        return max(hit)
    return values[0] if tb <= times[0] else values[-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(-1e3, 1e3)),
                min_size=1, max_size=12),
       st.data())
def test_speed_profile_window_maxima_match_brute_force(intervals, data):
    times = np.concatenate(([0.0], np.cumsum([k for k, _ in intervals])))
    values = np.array([v for _, v in intervals])
    prof = ss.SpeedProfile(times=times, values=values)
    T = float(times[-1])
    # window ends on the profile's times (touching), inside, or beyond it
    end = st.one_of(st.sampled_from(times.tolist()),
                    st.floats(-1.0, T + 1.0))
    ends = data.draw(st.lists(st.tuples(end, end).filter(lambda w: w[0] != w[1]),
                              min_size=1, max_size=20))
    ta = np.array([min(w) for w in ends])
    tb = np.array([max(w) for w in ends])
    want = np.array([_brute_max_over(times, values, a, b)
                     for a, b in zip(ta, tb)])
    got = prof.max_over(ta, tb)
    assert got.tobytes() == want.tobytes()
    scalar = prof.max_over(float(ta[0]), float(tb[0]))
    assert isinstance(scalar, float) and scalar == want[0]


def test_realized_cfl_on_uniform_run(base_report):
    assert float(np.max(base_report.cfl_series)) <= 0.8 * (1 + 1e-9)
    assert base_report.stats.cfl_max == float(np.max(base_report.cfl_series))
    assert base_report.cfl_series.size == base_report.partition.interval_count


# -------------------------------------------------------------- tolerances

def test_tolerance_schedule_rules():
    assert ss.tolerance_schedule("halve", [], current_tol=0.5) == 0.25
    assert ss.tolerance_schedule("match_previous", [1.0, 2.0, 3.0]) == 3.0
    assert ss.tolerance_schedule("scaled_ref", [2.0, 9.0], factor=0.25) == 0.5


@pytest.mark.parametrize("rule,kw", [
    ("halve", {}),
    ("match_previous", {}),
    ("scaled_ref", {}),
    ("scaled_ref", {"prior": [1.0]}),
    ("ramp", {"prior": [1.0], "factor": 1.0, "current_tol": 1.0}),
])
def test_tolerance_schedule_rejects_incomplete_input(rule, kw):
    prior = kw.pop("prior", [])
    with pytest.raises(ValueError):
        ss.tolerance_schedule(rule, prior, **kw)


def test_speed_basis_values(case):
    grid = ss.build_spatial_grid(20, 0)
    s_init = ss.speed_for_basis(case, grid, "initial")
    s_glob = ss.speed_for_basis(case, grid, "global")
    assert s_init == pytest.approx(1.0, abs=1e-12)
    assert s_glob == pytest.approx(1.0314159264363831, rel=1e-12)
    assert s_glob >= s_init
    with pytest.raises(ValueError, match="basis"):
        ss.speed_for_basis(case, grid, "peak")


def test_nan_inflow_peak_refuses_the_uniform_partition(case, monkeypatch):
    # a NaN inflow peak makes the speed bound NaN, as np.maximum.reduce
    # does, so no step size comes of it; Python's max() used to drop the
    # NaN and plan 1,200 plausible steps at speed 1
    monkeypatch.setattr(case, "inflow_peak", lambda: math.nan)
    grid = ss.build_spatial_grid(20, 0)
    assert math.isnan(ss.speed_for_basis(case, grid, "global"))
    assert ss.speed_for_basis(case, grid, "initial") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match=r"need 0 < k <= T"):
        ss.uniform_cfl_partition(case, grid, 0.8)


# ---------------------------------------------------------------- the loop

def test_loop_rejects_bad_schedules(case):
    cfg = ss.AdaptationConfig()
    with pytest.raises(ValueError, match="empty level schedule"):
        ss.adaptive_loop(case, cfg, [], "match_previous")
    with pytest.raises(ValueError, match="one factor per adaptive level"):
        ss.adaptive_loop(case, cfg, [0, 1], "scaled_ref", factor=[0.5, 0.25])


@pytest.mark.parametrize("levels, rule, factor, match", [
    ([0, 1], "scaled_ref", None, "scaled_ref rule needs a factor"),
    ([0, 1, 2], "scaled_ref", [0.5, None], "scaled_ref rule needs a factor"),
    ([0, 1], "halve", None, "halve rule needs the current tolerance"),
    ([0, 1], "ramp", 0.5, "unknown tolerance rule 'ramp'"),
])
def test_loop_refuses_a_bad_rule_before_any_solve(case, monkeypatch, levels,
                                                 rule, factor, match):
    # the schedule's refusals come before the base level's solve, in its
    # own words
    def no_solve(*args, **kwargs):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(ss.adaptivity, "solve_level", no_solve)
    with pytest.raises(ValueError, match=match):
        ss.adaptive_loop(case, ss.AdaptationConfig(), levels, rule,
                         factor=factor)


def test_loop_stops_once_total_tolerance_is_met(case, base_report):
    cfg = ss.AdaptationConfig(tol_total=1e6)
    reports = ss.adaptive_loop(case, cfg, [0, 1], "match_previous")
    assert len(reports) == 1
    # the loop's base run is the uniform level-0 run, bit for bit
    rep = reports[0]
    assert rep.partition.times.tobytes() == base_report.partition.times.tobytes()
    assert rep.breakdown.eta_k_bar_n.tobytes() == \
        base_report.breakdown.eta_k_bar_n.tobytes()
    assert rep.breakdown.J_h == base_report.breakdown.J_h
    assert rep.stats == base_report.stats


def test_loop_runs_all_levels_when_tolerance_unmet(case):
    cfg = ss.AdaptationConfig(tol_total=1e-30)
    reports = ss.adaptive_loop(case, cfg, [0, 1], "match_previous",
                               strategy="imex")
    assert len(reports) == 2
    assert reports[1].tol_k is not None


@pytest.fixture(scope="module")
def chain_012(case):
    """The reports of a default loop over levels 0, 1 and 2, and the
    partition of every run `SpeedProfile.from_trajectory` was called on."""
    build = ss.SpeedProfile.from_trajectory
    calls = []

    def counted(cls, traj):
        calls.append(traj.partition)
        return build(traj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ss.SpeedProfile, "from_trajectory", classmethod(counted))
        reports = ss.adaptive_loop(case, ss.AdaptationConfig(),
                                   [0, 1, 2], "match_previous")
    return calls, reports


def test_loop_builds_one_speed_profile_per_level(case, chain_012):
    # each level's report carries its profile, which plans the next level
    calls, reports = chain_012
    assert len(calls) == len(reports) == 3
    assert all(p is r.partition for p, r in zip(calls, reports))
    for rep in reports:
        traj = ss.run_forward(rep.grid, rep.partition, case)
        fresh = ss.SpeedProfile.from_trajectory(traj)
        assert np.array_equal(rep.profile.times, fresh.times)
        assert np.array_equal(rep.profile.values, fresh.values)


def _arrays(obj, depth):
    """(path, array) for every ndarray among obj's fields and, `depth`
    levels down, among their fields."""
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            yield name, value
        elif depth and hasattr(value, "__dict__"):
            for path, arr in _arrays(value, depth - 1):
                yield f"{name}.{path}", arr


def test_loop_reports_hold_no_2d_array(chain_012):
    # a report keeps results, not the run: no (N, J) array outlives a level
    _, reports = chain_012
    for rep in reports:
        found = dict(_arrays(rep, 1))
        assert {"partition.times", "breakdown.eta_k_bar_n",
                "profile.values"} <= found.keys()
        for path, arr in found.items():
            assert arr.ndim <= 1, (rep.level, path, arr.shape)


def test_loop_records_tolerance_and_plan(case, adapt_cfg, base_report,
                                         ex1_report):
    # the base level has no plan: its stats are the realized CFL series'
    assert base_report.tol_k is None
    assert base_report.stats.cfl_max == float(np.max(base_report.cfl_series))
    assert ex1_report.tol_k == base_report.breakdown.eta_k_bar
    # a planned level keeps the planner's partition and stats
    local = replace(adapt_cfg, tol_k=ex1_report.tol_k)
    raw = ss.propose_timesteps(base_report.partition,
                               base_report.breakdown.eta_k_bar_n, local)
    plan = ss.assign_modes(raw, base_report.profile, local, ex1_report.grid.h,
                           "fully_implicit")
    assert ex1_report.partition.times.tobytes() == plan.partition.times.tobytes()
    assert ex1_report.partition.modes.tobytes() == plan.partition.modes.tobytes()
    assert ex1_report.stats == plan.stats


# ------------------------------------------------------------- regressions

def test_fully_implicit_chain_regression(ex1_report):
    br = ex1_report.breakdown
    assert ex1_report.stats.N == 1284
    assert ex1_report.stats.N_explicit == 0
    assert br.eta_k_bar == pytest.approx(5.694751e-4, rel=1e-6)
    assert br.eta_k_bar / br.J_h == pytest.approx(3.310286e-4, rel=1e-6)
    assert ex1_report.stats.cfl_max == pytest.approx(472.4, rel=1e-3)


def test_fully_implicit_chain_newton_cost(case, ex1_report):
    traj = ss.run_forward(ex1_report.grid, ex1_report.partition, case)
    iters = [st.iterations for st in traj.newton_stats if st is not None]
    assert len(iters) == ex1_report.stats.N
    assert max(iters) <= 6
    assert float(np.mean(iters)) < 4.0


def test_imex_chain_regression(ex1_report, ex2_report):
    br = ex2_report.breakdown
    assert ex2_report.stats.N == 529
    assert ex2_report.stats.N_explicit == 516
    assert br.eta_k_bar / br.J_h == pytest.approx(4.767094e-4, rel=1e-6)
    assert ex2_report.stats.N < ex1_report.stats.N


def test_refined_chain_regressions(base_report, ex3_rows):
    row1, row2, row3 = ex3_rows
    b1, b2, b3 = row1.breakdown, row2.breakdown, row3.breakdown

    assert row1.partition.interval_count == 19200
    assert b1.eta_k_bar / b1.J_h == pytest.approx(3.508741e-5, rel=1e-6)
    assert b1.eta_h_bar / b1.J_h == pytest.approx(1.645298e-4, rel=1e-6)
    assert b1.J_h == pytest.approx(1.72811902, abs=1e-7)

    base_density = base_report.breakdown.eta_k_bar
    assert row2.stats.N == 4062
    assert row2.tol_k == 2.0 ** -4 * base_density
    assert b2.eta_k_bar / b2.J_h == pytest.approx(4.783750e-5, rel=1e-6)

    assert row3.stats.N == 1770
    assert row3.tol_k == base_density
    assert b3.eta_k_bar / b3.J_h == pytest.approx(2.948915e-4, rel=1e-6)
