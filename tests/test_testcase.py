import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shockstep as ss
from shockstep import testcase
from shockstep.testcase import _shock_path, weight_and_derivative
from oracles import bisect_departure


def test_shock_position_stationary_outside_windows(case):
    s, _ = _shock_path([0.0, 6.0, 20.0, 28.0, 40.0, 48.0],
                       case.perturbation_scale)
    assert np.all(s == 0.5)


def test_shock_position_frozen_values(case):
    s, _ = _shock_path([15.0, 12.75], case.perturbation_scale)
    assert s[0] == pytest.approx(0.5, abs=1e-15)
    assert s[1] == pytest.approx(0.500274772644043, abs=1e-12)


def test_shock_speed_zeros_and_peak(case):
    _, sdot = _shock_path([6.0, 12.0, 18.0, 30.0, 36.0, 15.0],
                          case.perturbation_scale)
    np.testing.assert_allclose(sdot[:-1], 0.0, rtol=0, atol=1e-15)
    assert sdot[-1] == pytest.approx(np.pi / 200, abs=1e-12)


def test_shock_speed_smooth_window_entry(case):
    # quartic contact: the derivative switches on without a kink
    t0 = np.array([12.0, 18.0, 30.0, 36.0])
    for t in (t0 + 1e-6, t0 - 1e-6):
        _, sdot = _shock_path(t, case.perturbation_scale)
        assert np.all(np.abs(sdot) < 1e-12)


def test_shock_speed_matches_position_derivative(case):
    # central differences of s against the closed-form sdot
    rng = np.random.default_rng(5)
    ts = np.concatenate([12.0 + 6.0 * rng.random(40), 30.0 + 6.0 * rng.random(40)])
    d = 1e-5
    scale = case.perturbation_scale
    fd = (_shock_path(ts + d, scale)[0] - _shock_path(ts - d, scale)[0]) / (2 * d)
    np.testing.assert_allclose(fd, _shock_path(ts, scale)[1], rtol=0, atol=1e-8)


def test_module_level_functions_respect_scale():
    assert _shock_path(12.75, 0.0)[0] == 0.5
    assert _shock_path(15.0, 0.0)[1] == 0.0
    assert _shock_path(12.75, 2.0)[0] - 0.5 == pytest.approx(
        2.0 * (_shock_path(12.75, 1.0)[0] - 0.5), rel=1e-12)


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
            s, sdot = _shock_path(mid, case.perturbation_scale)
            depart = mid - s / (1.0 + 2.0 * sdot)
            if depart < t0:
                a = mid
            else:
                b = mid
        tau = 0.5 * (a + b)
        return 1.0 + 2.0 * _shock_path(tau, case.perturbation_scale)[1]

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


def _table_digest(case):
    pieces_t, pieces_g = case._ensure_table()
    return hashlib.sha256(np.concatenate(pieces_t + pieces_g).tobytes()).hexdigest()


@pytest.mark.parametrize("scale, digest", [
    (2.0, "d3ce95248a81b967bb80bd4266ef1601ef04bdb88ecb1066853ba35a6fc98301"),
])
def test_inflow_table_bit_exact_other_scales(scale, digest):
    # frozen from the plain 48-level bisection over every table point
    assert _table_digest(ss.PerturbedShockCase(perturbation_scale=scale)) == digest


def _bisected_table(tg, p, scale):
    """One window's table as plain bisection on numpy's map gives it."""
    lo_t, hi_t = p[3:]
    m = (tg > lo_t) & (tg < hi_t)
    g = np.ones_like(tg)
    g[m] = 1.0 + 2.0 * testcase._window_path(bisect_departure(tg[m], p, scale),
                                             p, scale)[1]
    return g


def test_inflow_table_bit_exact_through_full_bisection():
    # at scale 15 the case is valid, but the first window's node values
    # fail the slope gate, so every node of its table runs the filtered
    # 48-level bisection from [a, b]; the second window takes the fast
    # path.  Each node has the bits of plain bisection on numpy's map
    scale = 15.0
    first = testcase._PERTURBATIONS[0]
    assert ss.validate_characteristics(ss.PerturbedShockCase(scale)).ok
    assert not testcase._passes_gate(testcase._node_pass(first, scale)[0], first)
    pieces_t, pieces_g = ss.PerturbedShockCase(perturbation_scale=scale)._ensure_table()
    for p, tg, gg in zip(testcase._PERTURBATIONS, pieces_t, pieces_g):
        assert np.array_equal(_bits(gg), _bits(_bisected_table(tg, p, scale))), p


@pytest.mark.parametrize("scale", [53.0, 60.0, 80.0, 100.0])
def test_inflow_refused_where_the_carried_value_reaches_zero(scale):
    # the departure map divides by u_L = 1 + 2 sdot, which reaches 0 in
    # the first window from about scale 52.96: no table, peak or query is
    # formed there.  validate-case refuses these cases too
    assert not ss.validate_characteristics(ss.PerturbedShockCase(scale)).ok
    refusal = rf"^window \[12, 18\) at perturbation_scale {scale!r}: the carried"
    for use in (lambda c: c._ensure_table(), lambda c: c.inflow_peak(),
                lambda c: c.inflow_value(np.linspace(11.6, 17.4, 5))):
        with pytest.raises(ValueError, match=refusal):
            use(ss.PerturbedShockCase(perturbation_scale=scale))


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_inflow_refused_at_a_non_finite_scale(scale):
    # a NaN sdot fails the node pass's test like a u_L that reaches 0:
    # np.nanmax would skip NaN nodes and give a peak of 1.0
    refusal = r"^window \[12, 18\) at perturbation_scale -?(nan|inf): the carried"
    for use in (lambda c: c.inflow_peak(),
                lambda c: c.inflow_value(np.array([5.0, 15.0, 33.0]))):
        with pytest.raises(ValueError, match=refusal):
            use(ss.PerturbedShockCase(perturbation_scale=scale))


@pytest.mark.parametrize("t", [float("nan"), float("inf"), [1.0, float("-inf")],
                               [15.0, float("nan")]])
def test_inflow_refuses_non_finite_times(case, t):
    # outside every window the inflow is 1.0, but a NaN time is not outside
    with pytest.raises(ValueError, match="^inflow times must be finite$"):
        case.inflow_value(t)


def test_inflow_table_bit_exact_through_fallback(monkeypatch):
    # with no shifts about 1 % of the snapped cells fail their check and
    # run all 48 bisection levels from [a, b]; the table must not change
    monkeypatch.setattr(testcase, "_MAX_SHIFTS", 0)
    assert _table_digest(ss.PerturbedShockCase()) == (
        "b5a5e9581a4f1d52dfa8ab84591e0b3e18dbaf0b20a98451de51a746944e9433")


def _carried_value_reaches_zero(p, scale):
    """Whether the node pass's sdot, less L D between nodes, lets
    u_L = 1 + 2 sdot reach 0 in window p."""
    D = testcase._node_spacing(p)
    nodes = p[1] + D * np.arange(2 ** testcase._NODE_LEVEL + 1)
    sdot = testcase._filter(nodes, p, scale)[1]
    return 1.0 + 2.0 * (sdot.min() - testcase._speed_lipschitz(p, scale) * D) <= 0.0


@settings(max_examples=40, deadline=None)
@given(window=st.sampled_from(testcase._PERTURBATIONS),
       scale=st.one_of(st.floats(min_value=0.0, max_value=100.0),
                       st.sampled_from([15.0, 80.0, 100.0])),
       start=st.floats(min_value=0.0, max_value=1.0),
       spacing=st.floats(min_value=1e-12, max_value=1e-2),
       half_n=st.integers(min_value=0, max_value=300),
       edge=st.lists(st.floats(min_value=0.0, max_value=1e-6), max_size=6))
# window 1 at this scale has u_L = 1 + 2 sdot = 0 near tau = 13.5135, where
# the map divided by zero before the node pass refused it
@example(window=testcase._PERTURBATIONS[0], scale=95.99668093791342, start=0.3,
         spacing=1e-3, half_n=100, edge=[])
def test_invert_departure_matches_plain_bisection(window, scale, start,
                                                  spacing, half_n, edge):
    """The fast node values, snap-and-verify and tail reproduce plain
    bisection on numpy's map bit for bit on any sub-grid of either
    departure window, also at scales whose windows fail the slope gate
    (15 and up in the first window) and run the filtered bisection over
    all levels.  Where the node pass shows u_L = 1 + 2 sdot reaching 0
    (the first window from about scale 53), the window is refused."""
    lo_t, hi_t = window[3:]
    grid = lo_t + start * (hi_t - lo_t) + spacing * np.arange(2 * half_n + 1)
    edge = np.asarray(edge, dtype=float)
    t0 = np.concatenate([grid, lo_t + edge, hi_t - edge])
    if _carried_value_reaches_zero(window, scale):
        with pytest.raises(ValueError, match="can reach 0"):
            testcase._invert_departure(t0, window, scale)
        return
    got = testcase._invert_departure(t0, window, scale)
    m = (t0 > lo_t) & (t0 < hi_t)
    tau = bisect_departure(t0[m], window, scale)
    want = np.ones_like(t0)
    want[m] = 1.0 + 2.0 * testcase._window_path(tau, window, scale)[1]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    assert _shock_path(33.3, quiet.perturbation_scale)[0] == 0.5


# ---- node-level laziness of the inflow table ----

@pytest.fixture(scope="module")
def full_table_case():
    full = ss.PerturbedShockCase()
    full._ensure_table()
    return full


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# shock and departure window ends
_WINDOW_ENDS = [t for p in testcase._PERTURBATIONS for t in p[1:]]
_TABLE_TIMES = [testcase._table_times(p) for p in testcase._PERTURBATIONS]


@st.composite
def _query_times(draw):
    """Times anywhere, inside a departure window, on a table node or on a
    window end, in the order drawn."""
    window = st.sampled_from(testcase._PERTURBATIONS)
    inside = window.flatmap(lambda p: st.floats(p[3], p[4]))
    on_node = st.sampled_from(_TABLE_TIMES).flatmap(
        lambda tg: st.integers(0, tg.size - 1).map(lambda i: float(tg[i])))
    one = st.one_of(st.floats(0.0, testcase.T_END), inside, on_node,
                    st.sampled_from(_WINDOW_ENDS))
    return draw(st.lists(one, min_size=1, max_size=60))


@settings(max_examples=25, deadline=None)
@given(ts=_query_times(), batches=st.integers(1, 4), scalar=st.booleans())
def test_lazy_inflow_queries_bit_exact(full_table_case, ts, batches, scalar):
    """A fresh case answers every query, in any order and over several
    calls, with the bits of the full table."""
    lazy = ss.PerturbedShockCase()
    ts = np.array(ts)
    if scalar:
        assert _bits(lazy.inflow_value(ts[0])) == _bits(
            full_table_case.inflow_value(ts[0]))
    for part in np.array_split(ts, batches):
        got = lazy.inflow_value(part)
        assert np.array_equal(_bits(got),
                              _bits(full_table_case.inflow_value(part)))


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 2.0, 15.0])
def test_lazy_peak_equals_full_table_max(scale):
    # 15 fails the slope gate in the first window, which then fills whole
    _, pieces_g = ss.PerturbedShockCase(perturbation_scale=scale)._ensure_table()
    want = max(np.max(np.abs(gg)) for gg in pieces_g)
    got = ss.PerturbedShockCase(perturbation_scale=scale).inflow_peak()
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_lazy_peak_exact_from_one_seed(scale, monkeypatch):
    # the node with the largest bound need not hold the peak (it does not
    # at scale 0.5); the pass over every bound reaching it must find it
    _, pieces_g = ss.PerturbedShockCase(perturbation_scale=scale)._ensure_table()
    want = max(np.max(np.abs(gg)) for gg in pieces_g)
    monkeypatch.setattr(testcase, "_PEAK_SEEDS", 1)
    got = ss.PerturbedShockCase(perturbation_scale=scale).inflow_peak()
    assert _bits(got) == _bits(want)


def _filled(case):
    return [~np.isnan(gg) for gg in case._ensure_table(())[1]]


def test_zero_scale_fills_no_node_by_root_finding(monkeypatch):
    # sdot = 0 * (...) is exactly 0 at scale 0, so every g is exactly 1
    # and no table node needs its departure root
    roots, calls = testcase._departure_roots, []

    def spy(*args):
        calls.append(args[0].size)
        return roots(*args)

    monkeypatch.setattr(testcase, "_departure_roots", spy)
    quiet = ss.PerturbedShockCase(perturbation_scale=0.0)
    assert quiet.inflow_peak() == 1.0
    for tg in _TABLE_TIMES:
        ts = np.concatenate([tg, 0.5 * (tg[1:] + tg[:-1])])
        assert np.all(quiet.inflow_value(ts) == 1.0)
    assert all(map(np.all, _filled(quiet)))
    assert calls == []


def test_lazy_peak_fills_under_one_percent():
    lazy = ss.PerturbedShockCase()
    lazy.inflow_peak()
    filled = _filled(lazy)
    assert sum(map(np.count_nonzero, filled)) < 0.01 * sum(f.size for f in filled)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", testcase._PERTURBATIONS)
def test_speed_lipschitz_bounds_shock_acceleration(p, scale):
    # difference quotients of sdot are values of s'' by the mean value theorem
    _, a, b = p[:3]
    tau = np.linspace(a, b, 10 ** 6)
    sdot = testcase._window_path(tau, p, scale)[1]
    worst = np.max(np.abs(np.diff(sdot) / np.diff(tau)))
    bound = testcase._speed_lipschitz(p, scale)
    assert worst <= bound < 3.0 * worst


def test_queries_fill_only_their_bracketing_nodes():
    seeded = ss.PerturbedShockCase()
    seeded.inflow_peak()
    candidates = _filled(seeded)
    lazy = ss.PerturbedShockCase()
    ts = np.array([12.34567, 14.0, 17.49995])
    for t in ts:
        lazy.inflow_value(t)
    tg = _TABLE_TIMES[0]
    j = np.searchsorted(tg, ts, side="right") - 1
    want = candidates[0].copy()
    want[j] = want[j + 1] = True
    first, second = _filled(lazy)
    assert np.array_equal(first, want)
    assert np.count_nonzero(first & ~candidates[0]) == 6
    assert np.array_equal(second, candidates[1])


def test_scale_change_resets_fills():
    ts = np.linspace(11.0, 37.0, 501)
    lazy = ss.PerturbedShockCase()
    lazy.inflow_value(ts)
    lazy.perturbation_scale = 2.0
    fresh = ss.PerturbedShockCase(perturbation_scale=2.0)
    assert np.array_equal(_bits(lazy.inflow_value(ts)),
                          _bits(fresh.inflow_value(ts)))
    assert _bits(lazy.inflow_peak()) == _bits(fresh.inflow_peak())
    for got, want in zip(_filled(lazy), _filled(fresh)):
        assert np.array_equal(got, want)
