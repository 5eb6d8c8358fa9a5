"""Functional evaluation and the space/time error split.

The vectorized assembly is checked against per-cell scalar loops written
out independently here, the weight integrals against the analytic bump
mass, and the reference functional against its frozen fine-grid value.
The efficiency index theta is pinned on three shock-free twins of the
benchmark: the smooth linear one, a linear step and Burgers with the
smooth hump.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shockstep as ss
from shockstep.dual import DUAL_CFL
from shockstep.estimator import ErrorBreakdown
from oracles import cell_terms, hand_run, states, update_fluxes, w_samples

# integral of the weight over its support, quadrature-independent value
BUMP_MASS = 0.0887987632336159
# exact functional of the linear twin (acceptance criterion 8)
LINEAR_J_EX = 0.0466810732
# exact functional of the linear step (tests/conftest.py), by quadrature
STEP_J_EX = 0.0501683158


class _ConstWeight:
    """A constant weight `value`, and the dual's source -`gradient`."""

    def __init__(self, value, gradient):
        self.value, self.gradient = value, gradient

    def weight(self, x):
        return self.value * np.ones_like(np.asarray(x, dtype=float))

    def weight_gradient(self, x):
        return self.gradient

    def inflow_value(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


# ---------------------------------------------------------------- weights

def test_weight_integrals_converge_to_bump_mass(case):
    diffs = []
    for level in (0, 3, 5):
        grid = ss.build_spatial_grid(20, level)
        W = ss.weight_cell_integrals(grid, case)
        diffs.append(abs(float(np.sum(W)) - BUMP_MASS))
    assert diffs[0] <= 5e-6
    assert diffs[1] <= 1e-12
    assert diffs[2] <= 1e-14


def test_gauss_rule_is_leggauss_bit_for_bit():
    # the literals stand in for np.polynomial.legendre.leggauss(5)
    x, w = np.polynomial.legendre.leggauss(5)
    assert ss.grid._GAUSS_X.tobytes() == x.tobytes()
    assert ss.grid._GAUSS_W.tobytes() == w.tobytes()


def test_weight_integrals_support(case):
    grid = ss.build_spatial_grid(20, 0)
    W = ss.weight_cell_integrals(grid, case)
    # support is [0.25, 0.65]: five cells before, seven after, on this grid
    np.testing.assert_array_equal(W[:5], 0.0)
    np.testing.assert_array_equal(W[13:], 0.0)
    assert np.all(W[5:13] > 0.0)


# ------------------------------------------------------------- functional

def _synthetic_trajectory(u, case, T=2.0):
    """A hand-built run of the states u on 20 cells, its J_h dots taken
    with the cell weights of `case`."""
    grid = ss.build_spatial_grid(20, 0)
    part = ss.uniform_partition(T, T / (u.shape[0] - 1))
    return hand_run(grid, part, u, ss.BURGERS, np.ones(u.shape[0]),
                    weights=ss.weight_cell_integrals(grid, case))


def test_evaluate_functional_zero_state(case):
    traj = _synthetic_trajectory(np.zeros((5, 20)), case)
    assert ss.evaluate_functional(traj, case) == 0.0


def test_evaluate_functional_unit_state(case):
    traj = _synthetic_trajectory(np.ones((5, 20)), case)
    W = ss.weight_cell_integrals(traj.grid, case)
    assert ss.evaluate_functional(traj, case) == pytest.approx(
        2.0 * float(np.sum(W)), rel=1e-14)


def test_evaluate_functional_refuses_other_cell_weights(case, monkeypatch):
    # J_h sums the dots the march took with its case's cell weights; a
    # case with other weights is refused, not answered by a second march,
    # and so is a hand-built run that took no weights
    grid = ss.build_spatial_grid(20, 0, case.domain)
    part = ss.uniform_cfl_partition(case, grid, 0.8)
    traj = ss.run_forward(grid, part, case)
    J_h = ss.evaluate_functional(traj, case)
    assert J_h == float(np.sum(part.steps * traj.reduced.dots))

    def no_march(*args, **kwargs):
        raise AssertionError("evaluate_functional re-marched the run")

    monkeypatch.setattr(ss.forward, "march_block", no_march)
    with pytest.raises(ValueError, match="cell weights differ"):
        ss.evaluate_functional(traj, _ConstWeight(1.0, 0.0))
    bare = hand_run(grid, ss.uniform_partition(2.0, 0.5), np.ones((5, 20)),
                    ss.BURGERS, np.ones(5))
    with pytest.raises(ValueError, match="cell weights differ"):
        ss.evaluate_functional(bare, case)
    assert ss.evaluate_functional(traj, case) == J_h


# ------------------------------------------------------- per-cell formulas

def _one_step_breakdown(u, weight, gradient):
    """The breakdown, the cell terms and the marched dual sample w of cell
    0 over one explicit step of length 0.1 on two cells of width 0.05
    with inflow 1; Burgers, so the time term's a = f'(u^{n+1}) is the end
    state."""
    grid = ss.build_spatial_grid(2, 0, domain=(0.0, 0.1))
    part = ss.TimePartition(times=np.array([0.0, 0.1]))
    case = _ConstWeight(weight, gradient)
    traj = hand_run(grid, part, np.array(u), ss.BURGERS, np.ones(2),
                    weights=ss.weight_cell_integrals(grid, case))
    dual = ss.solve_dual_gradient(traj, case)
    br = ss.assemble_breakdown(dual, case)
    return br, cell_terms(traj, dual, case, 0, 1), w_samples(dual)[0, 0]


def test_breakdown_time_term_reference_value():
    # the end state 1.0 is a = f'(1.0) = 1.0; the dual takes three
    # substeps of 0.1 / 3 from w = 0 with source 6, and its sample, after
    # the second, is w = 2 * (0.1 / 3) * 6 = 0.4 in cell 0, where the
    # upwind difference w_1 - w_0 is still 0
    br, (etk, _), w = _one_step_breakdown([[0.9, 0.9], [1.0, 1.0]],
                                          weight=0.2, gradient=-6.0)
    assert w == pytest.approx(0.4, rel=1e-14)
    # -(1/2) * 0.1 * 0.05 * 0.1 * (0.2 - 1.0 * 0.4)
    assert etk[0, 0] == pytest.approx(5.0e-5, rel=1e-12)
    assert br.eta_k_bar_n[0] == np.sum(np.abs(etk[0])) / 0.1
    assert br.eta_k == np.sum(etk)


def test_breakdown_space_term_reference_value():
    # state 1 against inflow 1 puts every interface flux at 0.5; the end
    # state 0 freezes a = 0, so the dual takes one substep of 0.1 with
    # source 20 from w = 0, and its sample is w = 2.0
    br, (_, eth), w = _one_step_breakdown([[1.0, 1.0], [0.0, 0.0]],
                                          weight=0.2, gradient=-20.0)
    assert w == 2.0
    # 0.1 * (1/2) * 0.05 * 2.0 * (0.5 + 0.5 - 0)
    assert eth[0, 0] == pytest.approx(5.0e-3, rel=1e-12)
    assert br.eta_h_bar_n[0] == np.sum(np.abs(eth[0])) / 0.1
    assert br.eta_h == np.sum(eth)


def test_breakdown_matches_scalar_loops(case):
    # independent per-cell evaluation of both error formulas
    grid = ss.build_spatial_grid(10, 0)
    part = ss.uniform_partition(2.0, 0.07)
    br = ss.solve_level(0, grid, part, case, DUAL_CFL).breakdown
    traj = ss.run_forward(grid, part, case)
    # the loops' inputs, rebuilt from the trajectory
    dual = ss.solve_dual_gradient(traj, case, DUAL_CFL)
    F = update_fluxes(traj, case)

    N, J = part.interval_count, grid.cell_count
    h = grid.h
    k = part.steps
    psi = case.weight(grid.centers)
    # each read re-marches the run or the dual: read them once
    u, W = states(traj), w_samples(dual)
    etk = np.empty((N, J))
    eth = np.empty((N, J))
    for n in range(N):
        for j in range(J):
            du = u[n + 1, j] - u[n, j]
            # Burgers: a = f'(u^{n+1}) = u^{n+1}
            adj = psi[j] - u[n + 1, j] * W[n, j]
            etk[n, j] = -0.5 * k[n] * h * du * adj
            F0 = F[n, j]
            F1 = F[n, j + 1]
            fm = 0.5 * u[n + 1, j] ** 2
            eth[n, j] = k[n] * 0.5 * h * W[n, j] * (F1 + F0 - 2.0 * fm)

    cells_k, cells_h = cell_terms(traj, dual, case, 0, N)
    np.testing.assert_allclose(cells_k, etk, rtol=1e-14, atol=1e-24)
    np.testing.assert_allclose(cells_h, eth, rtol=1e-14, atol=1e-24)
    np.testing.assert_allclose(br.eta_k_bar_n, np.sum(np.abs(etk), axis=1) / k,
                               rtol=1e-13)
    np.testing.assert_allclose(br.eta_h_bar_n, np.sum(np.abs(eth), axis=1) / k,
                               rtol=1e-13)


def test_breakdown_aggregates_are_consistent(base_report, base_trajectory,
                                             case):
    rep = base_report
    br = rep.breakdown
    part = rep.partition
    k = part.steps
    traj = base_trajectory
    dual = ss.solve_dual_gradient(traj, case, DUAL_CFL)
    N = part.interval_count
    cells_k, cells_h = cell_terms(traj, dual, case, 0, N)
    assert cells_k.shape == (N, rep.grid.cell_count)
    assert cells_h.shape == cells_k.shape
    np.testing.assert_allclose(br.eta_k, np.sum(cells_k), rtol=1e-12)
    np.testing.assert_allclose(br.eta_h, np.sum(cells_h), rtol=1e-12)
    # the densities are the per-row reductions, bit for bit
    np.testing.assert_array_equal(br.eta_k_bar_n,
                                  np.sum(np.abs(cells_k), axis=1) / k)
    np.testing.assert_array_equal(br.eta_h_bar_n,
                                  np.sum(np.abs(cells_h), axis=1) / k)
    np.testing.assert_allclose(br.eta_k_bar, np.sum(k * br.eta_k_bar_n),
                               rtol=1e-13)
    np.testing.assert_allclose(br.eta_h_bar, np.sum(k * br.eta_h_bar_n),
                               rtol=1e-13)
    assert br.eta_bar == br.eta_k_bar + br.eta_h_bar
    # the signed sums cannot exceed their absolute counterparts
    assert abs(br.eta_k) <= br.eta_k_bar * (1 + 1e-12)
    assert abs(br.eta_h) <= br.eta_h_bar * (1 + 1e-12)


def test_breakdown_independent_of_block_size(case, mixed_trajectory):
    # the sweep marches and reduces interval by interval: over any blocks
    # of intervals, the last block first and w carried between them in
    # wext, its four sums are those of one call over all of them, so the
    # blocks of the sweep move no bit
    from shockstep import _core
    from shockstep._core import ptr
    traj = mixed_trajectory
    dual = ss.solve_dual_gradient(traj, case, DUAL_CFL)
    part, grid = traj.partition, traj.grid
    N, J = part.interval_count, grid.cell_count
    k, modes, g = part.steps, part.modes, traj.g
    m, src = dual.substeps, dual.source
    src_total = grid.h * float(np.sum(src))
    kind, a = ss.forward._flux_code(traj.flux)
    psi = np.asarray(case.weight(grid.centers), dtype=float)
    u = states(traj)

    def sums(rows):
        out = np.empty((N, 4))
        wext = np.zeros(J + 2)
        for lo in reversed(range(0, N, rows)):
            hi = min(lo + rows, N)
            assert _core.lib().march_dual(
                hi - lo, J, grid.h, ptr(u[lo:hi + 1]), kind, a,
                ptr(m[lo:hi], _core.LONG), ptr(k[lo:hi]), ptr(src), src_total,
                ptr(wext), None, None, ptr(modes[lo:hi], np.int8),
                ptr(g[lo:hi + 1]), ptr(psi), ptr(out[lo:hi])) == hi - lo
        return out

    want = sums(N)
    br = ss.assemble_breakdown(dual, case)
    assert (want[:, 1] / k).tobytes() == br.eta_k_bar_n.tobytes()
    assert (want[:, 3] / k).tobytes() == br.eta_h_bar_n.tobytes()
    for rows in (1, 7, 256, N + 5):
        assert sums(rows).tobytes() == want.tobytes(), rows


def test_breakdown_reads_the_inflow_of_the_march(case, mixed_trajectory,
                                                monkeypatch):
    # the stencil inflow comes from the trajectory's g, not from a second
    # query, and the cell terms keep the bits of the re-queried oracle
    traj = mixed_trajectory
    dual = ss.solve_dual_gradient(traj, case, DUAL_CFL)
    N = traj.partition.interval_count
    cells_k, cells_h = cell_terms(traj, dual, case, 0, N)

    def no_query(t):
        raise AssertionError("the breakdown queried the inflow")

    monkeypatch.setattr(case, "inflow_value", no_query)
    br = ss.assemble_breakdown(dual, case)
    k = traj.partition.steps
    assert br.eta_k_bar_n.tobytes() == (np.sum(np.abs(cells_k), axis=1) / k).tobytes()
    assert br.eta_h_bar_n.tobytes() == (np.sum(np.abs(cells_h), axis=1) / k).tobytes()
    assert br.eta_k == float(np.sum(np.sum(cells_k, axis=1)))
    assert br.eta_h == float(np.sum(np.sum(cells_h, axis=1)))


def test_breakdown_rejects_mismatched_shapes(case):
    # the sweep refuses a run whose states do not fit its grid
    traj = _synthetic_trajectory(np.ones((5, 20)), case)
    narrow = hand_run(ss.build_spatial_grid(19, 0), traj.partition,
                      np.ones((5, 20)), ss.BURGERS, np.ones(5))
    with pytest.raises(ValueError, match="disagree in shape"):
        ss.assemble_breakdown(ss.solve_dual_gradient(narrow, case), case)
    # an inflow record that does not cover every time
    dual = ss.solve_dual_gradient(traj, case)
    traj.g = np.ones(4)
    with pytest.raises(ValueError, match="disagree in shape"):
        ss.assemble_breakdown(dual, case)


# ------------------------------------------------------- efficiency index

def _stub_breakdown(eta_k, eta_h, J_h):
    z = np.zeros(1)
    return ErrorBreakdown(eta_k_bar_n=z, eta_h_bar_n=z, eta_k_bar=abs(eta_k),
                          eta_h_bar=abs(eta_h), eta_bar=abs(eta_k) + abs(eta_h),
                          eta_k=eta_k, eta_h=eta_h, J_h=J_h)


def test_efficiency_index_arithmetic():
    br = _stub_breakdown(eta_k=0.1, eta_h=0.3, J_h=1.0)
    assert ss.efficiency_index(br, 1.2) == pytest.approx(2.0, rel=1e-12)
    assert ss.efficiency_index(br, 0.8) == pytest.approx(-2.0, rel=1e-12)


def test_efficiency_index_degenerate_gap_is_nan():
    br = _stub_breakdown(eta_k=0.1, eta_h=0.3, J_h=1.0)
    assert np.isnan(ss.efficiency_index(br, 1.0))
    assert np.isnan(ss.efficiency_index(br, 1.0 + 5e-15))


@settings(max_examples=20, deadline=None)
@given(level=st.sampled_from([0, 1, 2]),
       dual_cfl=st.floats(min_value=0.8, max_value=1.0))
def test_linear_twin_estimate_is_exact_within_band(linear_case, level,
                                                   dual_cfl):
    """Acceptance criterion 8's band [0.8, 1.25] for theta = (eta_k +
    eta_h) / (J_ex - J_h) on the smooth linear twin, over the levels and
    the dual CFL numbers the criterion runs near.

    dual_cfl below 0.8 is not drawn: with smaller dual steps theta rises
    past 1.25 on the coarse levels (1.2872 at level 0 and 1.2605 at
    level 1 with dual_cfl 0.05, 1.2732 at level 0 with 0.2), so the band
    is the criterion's, not a bound that holds over all of (0, 1].  The
    forward CFL here is 0.8/1.3, so every drawn dual_cfl takes one dual
    substep per interval.
    """
    grid = ss.build_spatial_grid(20, level)
    part = ss.uniform_partition(linear_case.T, 0.8 * grid.h / 1.3)
    br = ss.solve_level(level, grid, part, linear_case, dual_cfl).breakdown
    theta = (br.eta_k + br.eta_h) / (LINEAR_J_EX - br.J_h)
    assert 0.8 <= theta <= 1.25


def _twin_theta(case, level, J):
    """theta of a twin case at `level`, with the twins' uniform step
    0.8 h / 1.3 and dual_cfl 0.8, against the functional J."""
    grid = ss.build_spatial_grid(20, level, case.domain)
    part = ss.uniform_partition(case.T, 0.8 * grid.h / 1.3)
    br = ss.solve_level(level, grid, part, case, DUAL_CFL).breakdown
    return ss.efficiency_index(br, J)


@pytest.mark.parametrize("level, theta",
                         enumerate([1.283, 1.202, 1.078, 1.019, 1.004]))
def test_theta_of_a_linear_step_tends_to_one(step_case, level, theta):
    # a discontinuity without a shock: theta falls to 1 under refinement
    assert _twin_theta(step_case, level, STEP_J_EX) == pytest.approx(
        theta, abs=0.02)


@pytest.mark.parametrize("level, theta", enumerate([1.110, 1.122, 1.082, 1.055]))
def test_theta_of_shock_free_burgers_tends_to_one(hump_case, burgers_hump_j,
                                                  level, theta):
    # the nonlinearity without a shock: theta stays near 1, so the excess
    # of the shock benchmark's theta (about 2) comes from the shock
    assert _twin_theta(hump_case, level, burgers_hump_j) == pytest.approx(
        theta, abs=0.02)


# ---------------------------------------------------- reference functional

def test_reference_functional_frozen_value(j_ref):
    assert j_ref == pytest.approx(1.728244437200482, abs=5e-12)


def test_reference_functional_level6_bits(j_ref):
    # the value bench/golden.json was frozen with, to the last bit: each
    # row's `@ W` must round as one ddot does (a block gemv would not)
    assert j_ref == 1.7282444372004822


def _count_reference_steps(monkeypatch):
    """A list that grows by one per compiled-march call."""
    import shockstep.forward as fw
    calls = []
    orig = fw.march

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(fw, "march", counting)
    return calls


def test_reference_functional_changed_scale_is_fresh(monkeypatch):
    calls = _count_reference_steps(monkeypatch)
    mutable = ss.PerturbedShockCase()
    first = ss.reference_functional(mutable, 1)
    calls.clear()
    mutable.perturbation_scale = 2.0
    again = ss.reference_functional(mutable, 1)
    assert len(calls) > 0
    assert again != first
    # the inflow table followed the new scale (value of a fresh scale-2 case)
    assert mutable.inflow_value(15.0) == 1.017010615748162
    assert ss.reference_functional(ss.PerturbedShockCase(2.0), 1) == again


def test_reference_functional_unscaled_case_is_not_memoized(monkeypatch,
                                                            linear_case):
    # no case is memoized: a second call runs the march again
    calls = _count_reference_steps(monkeypatch)
    first = ss.reference_functional(linear_case, 1)
    n = len(calls)
    assert n > 0
    assert ss.reference_functional(linear_case, 1) == first
    assert len(calls) == 2 * n


def test_reference_functional_steady_limit():
    # scale 0 freezes the shock; the functional has a closed-form limit
    steady = ss.PerturbedShockCase(perturbation_scale=0.0)
    J_steady = 1.7283334858398276
    jr3 = ss.reference_functional(steady, 3)
    jr4 = ss.reference_functional(steady, 4)
    assert abs(jr4 - J_steady) <= 2e-4
    assert abs(jr4 - J_steady) < abs(jr3 - J_steady)


# ------------------------------------------------------------- regression

def test_coarse_uniform_breakdown_regression(uniform_reports, j_ref):
    br = uniform_reports[0].breakdown
    assert br.eta_k_bar == pytest.approx(1.244743e-3, rel=1e-6)
    assert br.eta_h_bar == pytest.approx(7.241086e-2, rel=1e-6)
    assert br.J_h == pytest.approx(1.69273188, abs=1e-7)
    assert br.eta_k == pytest.approx(-8.550002e-6, rel=1e-5)
    assert br.eta_h == pytest.approx(7.214599e-2, rel=1e-6)
    assert ss.efficiency_index(br, j_ref) == pytest.approx(2.0313, abs=2e-4)
