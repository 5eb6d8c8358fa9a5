import numpy as np
import pytest

from shockstep import (EXPLICIT, IMPLICIT, TimePartition, build_spatial_grid,
                       uniform_partition)


def test_base_grid():
    g = build_spatial_grid(20, 0)
    assert g.cell_count == 20
    assert g.h == pytest.approx(0.05, abs=0)
    assert g.edges[0] == 0.0 and g.edges[-1] == 1.0
    assert g.centers.shape == (20,)
    assert np.allclose(g.centers, (np.arange(20) + 0.5) * 0.05)


def test_refinement_halves_h():
    g4 = build_spatial_grid(20, 4)
    assert g4.cell_count == 320
    assert g4.h == pytest.approx(0.003125, abs=0)
    for L in range(5):
        g = build_spatial_grid(20, L)
        assert g.cell_count == 20 * 2 ** L
        assert g.h * g.cell_count == pytest.approx(1.0, rel=1e-14)


def test_custom_domain():
    g = build_spatial_grid(10, 1, domain=(-1.0, 3.0))
    assert g.edges[0] == -1.0 and g.edges[-1] == 3.0
    assert g.h == pytest.approx(0.2)


@pytest.mark.parametrize("base,level", [(1, 0), (0, 0), (20, -1)])
def test_grid_rejects_bad_counts(base, level):
    with pytest.raises(ValueError):
        build_spatial_grid(base, level)


def test_grid_rejects_degenerate_domain():
    with pytest.raises(ValueError):
        build_spatial_grid(20, 0, domain=(1.0, 1.0))


def test_grid_rejects_underflowing_h():
    # 0.05 * 2^-36 sits below the 2^-40 width cutoff; the check must fire
    # before any edge array of that size is materialized
    with pytest.raises(ValueError, match="underflow"):
        build_spatial_grid(20, 36)
    g = build_spatial_grid(20, 16)
    assert g.cell_count == 20 * 2 ** 16
    assert g.h == pytest.approx(1.0 / (20 * 2 ** 16), rel=1e-15)


def test_partition_short_final_step():
    p = uniform_partition(1.0, 0.4)
    assert np.allclose(p.times, [0.0, 0.4, 0.8, 1.0])
    assert p.interval_count == 3
    assert p.T == 1.0
    assert np.all(p.modes == EXPLICIT)


def test_partition_benchmark_step_count():
    p = uniform_partition(48.0, 0.038795)
    assert p.interval_count == 1238
    assert p.times[-1] == 48.0


def test_partition_single_step():
    p = uniform_partition(1.0, 1.0)
    assert p.interval_count == 1
    assert p.times[-1] == 1.0


def test_partition_mode_argument():
    p = uniform_partition(1.0, 0.3, IMPLICIT)
    assert np.all(p.modes == IMPLICIT)
    assert p.modes.shape == (p.interval_count,)


def test_partition_tiling_property():
    # steps tile [0,T] exactly; no step exceeds k by more than the end-snap
    rng = np.random.default_rng(11)
    for _ in range(200):
        T = float(10.0 ** rng.uniform(-2, 2))
        k = float(T * 10.0 ** rng.uniform(-3, 0.0))
        p = uniform_partition(T, k)
        steps = p.steps
        assert p.times[-1] == T
        assert np.all(steps > 0.0)
        assert abs(steps.sum() - T) <= 1e-12 * T
        assert steps.max() <= k + 1e-9 * T
        assert np.all(np.diff(p.times) > 0.0)


@pytest.mark.parametrize("T,k", [(0.0, 0.1), (1.0, 0.0), (1.0, -0.5),
                                 (-1.0, 0.1), (1.0, 2.5)])
def test_partition_rejects_bad_inputs(T, k):
    with pytest.raises(ValueError):
        uniform_partition(T, k)


def test_time_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(times=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimePartition(times=np.array([0.0, 1.0]), modes=np.array([0, 0]))
    p = TimePartition(times=np.array([0.0, 0.25, 1.0]))
    assert p.interval_count == 2
    assert np.all(p.modes == EXPLICIT)
    assert np.allclose(p.steps, [0.25, 0.75])


@pytest.mark.parametrize("modes", [[0, 5], [0, -1], [0, 256], [0.5, 1],
                                   [0, np.nan]])
def test_time_partition_refuses_unknown_modes(modes):
    # only EXPLICIT and IMPLICIT exist: another tag would run as one of
    # them, and 256 would wrap to EXPLICIT in int8
    with pytest.raises(ValueError, match="EXPLICIT .0. or IMPLICIT .1."):
        TimePartition(times=np.array([0.0, 0.5, 1.0]), modes=np.array(modes))
    p = TimePartition(times=np.array([0.0, 0.5, 1.0]),
                      modes=np.array([EXPLICIT, IMPLICIT]))
    assert p.modes.dtype == np.int8 and p.modes.tolist() == [0, 1]


@pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 0.0, 1.0],
                                   [0.0, 0.5, np.nan]])
def test_time_partition_refuses_non_finite_times(times):
    with pytest.raises(ValueError, match="times must be finite"):
        TimePartition(times=np.array(times))


def test_time_partition_empty_interval_list():
    p = TimePartition(times=np.array([0.0]))
    assert p.interval_count == 0
    assert p.steps.size == 0
