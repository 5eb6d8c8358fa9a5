"""The compiled stepping core against the numpy formulas it transcribes.

Every kernel is compared bit for bit with a numpy transcription of the
same update, the one the package ran before the marches were compiled:
the explicit step for Burgers and both signs of `LinearFlux` (also at the
CFL boundary, ulp by ulp, and in the vector loop's tails), one Newton
solve with LAPACK's `dgtsv` from scipy as the linear solver, the dual
substep plan and substeps with and without the mass-balance record (and
the interval a non-finite dual stops on; Burgers coefficients and both
signs of `LinearFlux`), the wave-speed reduction `row_speeds` against
`np.maximum.reduce` with every edge value at every position, the tails
of the dual and Newton vector loops at every length 1 to 17, the error
breakdown against the cell terms of `tests/oracles.py`, the one backward
sweep (each interval reduced as the dual march samples it) against the
march that stores the samples and the same loop reading them, and the
planner's two walks against the numpy-scalar loops there, and every
verdict the inflow table's departure filter decides against numpy's own
comparison.  The forward marches' active window is checked against the
numpy steps at full width: with every kind of tail, ending at every
position of the vector loops, widening where Newton's window edge turns
positive or a zero state would flip its sign, failing with full width's
code, value and row, and across block boundaries.  Those kernel tests
run at every vector width the CPU supports (`cores`).  The CSV text of
`format_rows` is compared byte for byte with Python's `'%.5e' % x` on
every kind of double and with the old Python writer.  Every ctypes declaration is checked against its C
definition.  The loader is checked for its missing-compiler error, its
rebuild on a changed source or compile command, its fallback from an
unwritable cache, and a compile command that keeps every rounding and
builds silently at every width.
"""
import contextlib
import copy
import ctypes
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shockstep as ss
from shockstep import _core, testcase
import oracles
from oracles import (Stepper, cell_terms, end_state_run, interface_fluxes,
                     no_newton, percent_rows, split)

EPS = np.finfo(float).eps
# values that hit the splitting's branches: sonic point, both zeros
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300])
_VALUE = st.one_of(_SPECIAL, st.floats(min_value=-1.5, max_value=1.5,
                                       allow_nan=False, allow_infinity=False))
_FLUX = st.one_of(
    st.just(ss.BURGERS),
    st.builds(ss.LinearFlux, st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))))


def _same(a, b) -> bool:
    """Equal bits, so -0.0 differs from 0.0 and equal NaNs match."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------- vector widths

_WIDTHS = (2, 4, 8)


@pytest.fixture(scope="session")
def cores(tmp_path_factory):
    """The compiled core at every vector width this CPU runs, narrowest
    first: the default build at the CPU's width, and below it the builds
    the loader makes for a CPU of that width, in a private cache."""
    top = _core.lanes()
    libs = []
    for lanes in (w for w in _WIDTHS if w <= top):
        if lanes == top:
            lib = _core.lib()
        else:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_core, "_host_lanes", lambda: lanes)
                lib = _core.load(_core.SOURCE,
                                 str(tmp_path_factory.mktemp(f"lanes{lanes}")))
        assert lib.lanes() == lanes
        libs.append(lib)
    return libs


@contextlib.contextmanager
def _running(lib):
    """Every march and breakdown runs in `lib` here; a failed assertion
    names its width."""
    saved, _core._lib = _core._lib, lib
    try:
        yield
    except AssertionError as err:
        raise AssertionError(f"at {lib.lanes()} lanes: {err}") from err
    finally:
        _core._lib = saved


def test_a_call_with_the_wrong_argument_count_names_the_kernel(cores):
    # ctypes refuses too few arguments but passes extra ones on, as to a
    # C varargs function; the loader refuses both, naming the function,
    # before any kernel runs
    for lib in cores:
        for name, (_, args) in _core._SIGNATURES.items():
            for given in (len(args) - 1, len(args) + 1):
                if given < 0:
                    continue
                with pytest.raises(TypeError, match=rf"^{name}\(\) takes "
                                   rf"{len(args)} arguments \({given} given\)$"):
                    getattr(lib, name)(*[None] * given)
        with pytest.raises(TypeError, match=r"^lanes\(\) takes 0 arguments"):
            lib.lanes(1, 2, 3)


def test_lanes_reports_the_active_width(cores):
    assert [lib.lanes() for lib in cores] == list(_WIDTHS[:len(cores)])
    assert _core.lanes() == cores[-1].lanes()
    for lib in cores:
        with _running(lib):
            assert _core.lanes() == lib.lanes()


# ------------------------------------------------------- numpy oracles

def _np_update(u, g, lam, flux):
    """Splits, wave speeds, fluxes and lam (F[1:] - F[:-1]) of u with
    inflow g, between the ghost cells g and a copy of the last cell."""
    v = np.concatenate(([g], u, [u[-1]]))
    d, f = np.empty((2, v.size)), np.empty((2, v.size))
    split(flux, v, d, f)
    speed = d[0] - d[1]
    F = f[0, :-1] + f[1, 1:]
    du = F[1:] - F[:-1]
    du *= lam
    return speed, d, F, du


def _np_explicit(u, k, h, g, flux):
    """(new state or None when refused, fluxes, CFL)."""
    speed, _, F, du = _np_update(u, g, k / h, flux)
    cfl = k * np.maximum.reduce(speed) / h
    return (None if cfl > 1.0 else u - du), F, cfl


def _np_implicit(u, k, h, g, flux, max_iter=ss.forward.NEWTON_MAX_ITER,
                 iterates=None):
    """Newton on backward Euler with scipy's dgtsv: (final iterate,
    fluxes, iterations, residual, stop rule).  The stop rule is "tol" or
    "floor", None when stalled, or for a failure the march's reason code
    and value: (SINGULAR, dgtsv's INFO), (NONFINITE_RESIDUAL, None) or
    (NONFINITE_STATE, None), with the iterate the march leaves.  Each
    iterate is appended to `iterates` when given."""
    from scipy.linalg.lapack import dgtsv
    lam = k / h
    u_old, u = u.copy(), u.copy()
    prev = res = math.inf
    for it in range(1, max_iter + 1):
        if iterates is not None:
            iterates.append(u.copy())
        speed, d, F, du = _np_update(u, g, lam, flux)
        r = u - u_old
        r += du
        res = float(np.maximum.reduce(np.abs(r)))
        if res <= ss.forward.NEWTON_TOL:
            return u, F, it, res, "tol"
        if not math.isfinite(res):
            return u, F, it, res, (_core.NONFINITE_RESIDUAL, None)
        if (it > 3 and res >= 0.5 * prev and res <= 8 * EPS * (
                np.max(np.abs(u)) + lam * np.max(np.abs(F)))):
            return u, F, it, res, "floor"
        prev = res
        diag = speed[1:-1] * lam
        diag += 1.0
        diag[-1] = 1.0 + lam * ((d[0, -1] + d[1, -1]) - d[1, -2])
        pad = np.zeros(1)   # the wrapper wants length >= 1, also at J = 1
        sup = d[1, 2:-1] * lam if u.size > 1 else pad
        sub = d[0, 1:-2] * -lam if u.size > 1 else pad
        x, info = dgtsv(sub, diag, sup, -r)[3:]
        if info:
            return u, F, it, res, (_core.SINGULAR, float(info))
        u += x
        if not np.isfinite(u).all():
            return u, F, it, res, (_core.NONFINITE_STATE, None)
    return u, F, max_iter, res, None


def _np_substeps(A, k, h, dual_cfl=0.8):
    """The substep counts and sizes as numpy formed them (floats)."""
    a_max = np.maximum(A.max(axis=1), -A.min(axis=1))
    m = np.maximum(np.ceil(k * a_max / (dual_cfl * h) - 1e-12), 1.0)
    return m, k / m


def _np_dual(A, k, h, source, m, record):
    """The substep loop over intervals N-1 .. 0: samples and the
    per-substep mass residuals."""
    N, J = A.shape
    dt_all = k / m
    source_total = h * float(np.sum(source))
    w_ext = np.zeros(J + 2)
    w, w_right, w_left = w_ext[1:-1], w_ext[1:], w_ext[:-1]
    samples, log = np.empty((N, J)), []
    for n in range(N - 1, -1, -1):
        a_ext = np.concatenate(([A[n, 0]], A[n], [A[n, -1]]))
        s = (a_ext[:-1] + a_ext[1:]) * 0.5
        am, ap = np.minimum(s, 0.0), np.maximum(s, 0.0)
        dt, lam, src = dt_all[n], dt_all[n] / h, dt_all[n] * source
        for step in range(1, int(m[n]) + 1):
            S = ap * w_right
            S += am * w_left
            w_prev = w.copy()
            w += (S[1:] - S[:-1]) * lam
            w += src
            if record:
                G0, GJ = -float(S[0]), -float(S[-1])
                resid = abs(h * float(np.sum(w - w_prev)) + dt * (GJ - G0)
                            - dt * source_total)
                scale = (h * float(np.sum(np.abs(w))) + abs(dt * source_total)
                         + dt * (abs(G0) + abs(GJ)) + 1e-300)
                log.append(resid / scale)
            if step == (int(m[n]) + 1) // 2:
                samples[n] = w
    return samples, log


# ----------------------------------------------------------- explicit step

@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=40), _VALUE, _FLUX,
       st.floats(min_value=0.0, max_value=2.0))
def test_explicit_step_matches_numpy_bitwise(cores, u, g, flux, x):
    u = np.array(u)
    h = 1.0 / u.size
    k = x * h
    want, F_want, cfl = _np_explicit(u, k, h, g, flux)
    for lib in cores:
        with _running(lib):
            s = Stepper(u, flux)
            if want is None:
                with pytest.raises(ss.SolverFailure, match=f"CFL {cfl:.2f} > 1"):
                    s.explicit(k, h, g)
            else:
                s.explicit(k, h, g)
            assert _same(s.u, u if want is None else want)
            assert _same(s.F, F_want)


@pytest.mark.parametrize("where", ["inflow", "cell"])
def test_explicit_step_with_nan_input_matches_numpy(where):
    # NaN propagates through the splitting as through np.maximum, so the
    # CFL test is false, the step runs, and it fails as non-finite
    u = np.array([0.5, -0.25, 0.75, 1.0])
    g = 0.5
    if where == "inflow":
        g = math.nan
    else:
        u[2] = math.nan
    want, F_want, _ = _np_explicit(u, 0.1, 0.25, g, ss.BURGERS)
    s = Stepper(u, ss.BURGERS)
    with pytest.raises(ss.SolverFailure, match="non-finite state"):
        s.explicit(0.1, 0.25, g)
    assert _same(s.u, want)
    assert _same(s.F, F_want)


def _explicit_refusal(u, k, h, g, flux=ss.BURGERS):
    """The CFL the compiled step was refused at, or None when it ran."""
    s = Stepper(u, flux)
    try:
        s.explicit(k, h, g)
    except ss.SolverFailure as err:
        assert str(err).startswith("explicit step at CFL"), err
        assert _same(s.u, u)
        return str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=12), _VALUE,
       st.floats(min_value=1e-3, max_value=1e3), st.integers(-3, 3))
def test_explicit_refusal_at_the_cfl_boundary_ulp_by_ulp(cores, u, g, h, ulps):
    # k steps ulp by ulp across h / smax: each step is refused exactly
    # when (k * smax) / h > 1, as the numpy formula decides; a tiny smax
    # gives a k at which the update itself overflows, in numpy too
    u = np.array(u)
    smax = float(np.max(np.abs(np.append(u, g))))
    k = h / smax if smax > 0.0 else h
    for _ in range(abs(ulps)):
        k = np.nextafter(k, math.inf if ulps > 0 else 0.0)
    with np.errstate(all="ignore"):
        want, F_want, cfl = _np_explicit(u, k, h, g, ss.BURGERS)
    assert (want is None) == ((k * smax) / h > 1.0)
    for lib in cores:
        with _running(lib):
            s = Stepper(u, ss.BURGERS)
            if want is None:
                with pytest.raises(ss.SolverFailure,
                                   match=f"^explicit step at CFL {cfl:.2f} > 1$"):
                    s.explicit(k, h, g)
            elif not np.isfinite(want).all():
                with pytest.raises(ss.SolverFailure, match="non-finite state"):
                    s.explicit(k, h, g)
            else:
                s.explicit(k, h, g)
            assert _same(s.u, u if want is None else want)
            assert _same(s.F, F_want)


@pytest.mark.parametrize("flux", [ss.BURGERS, ss.LinearFlux(-0.9)],
                         ids=["burgers", "linear"])
def test_explicit_refusal_one_ulp_either_side(cores, flux):
    # the largest k that runs and the next double, which is refused
    u, g, h = np.array([0.7, -0.3, 0.9, 0.1, -0.2]), 0.5, 0.1
    smax = 0.9
    k = h / smax
    while (k * smax) / h > 1.0:
        k = np.nextafter(k, 0.0)
    while (np.nextafter(k, math.inf) * smax) / h <= 1.0:
        k = np.nextafter(k, math.inf)
    above = np.nextafter(k, math.inf)
    # the speed one ulp above the boundary refuses the boundary's k
    fast = u.copy()
    fast[2] = np.nextafter(smax, math.inf)
    assert (k * fast[2]) / h > 1.0
    for lib in cores:
        with _running(lib):
            assert _explicit_refusal(u, k, h, g, flux) is None
            assert (_explicit_refusal(u, above, h, g, flux)
                    == "explicit step at CFL 1.00 > 1")
            if flux is ss.BURGERS:
                assert _explicit_refusal(fast, k, h, g, flux) is not None


@pytest.mark.parametrize("J", range(1, 18))
def test_explicit_vector_tails_flag_every_position(cores, J):
    # a speed over the CFL bound or a NaN in any one cell, or in the
    # inflow, is seen: the vector loop, its tail and the ends each flag,
    # at every width (J = 1 .. 17 covers two 8-lane passes and each tail)
    rng = np.random.default_rng(J)
    h, g = 1.0 / J, 0.3
    for where in range(J + 1):
        u = rng.uniform(-0.5, 0.5, J)
        for bad, want in ((5.0, "explicit step at CFL"),
                          (math.nan, "non-finite state")):
            v, gv = u.copy(), g
            if where == J:
                gv = bad
            else:
                v[where] = bad
            new, F_want, cfl = _np_explicit(v, 0.5 * h, h, gv, ss.BURGERS)
            for lib in cores:
                with _running(lib):
                    s = Stepper(v, ss.BURGERS)
                    with pytest.raises(ss.SolverFailure, match=want):
                        s.explicit(0.5 * h, h, gv)
                    assert _same(s.u, v if new is None else new)
                    assert _same(s.F, F_want)
        # and the state within the bound steps as numpy steps it
        k = np.array([0.5 * h, 0.25 * h, 0.9 * h])
        # the inflow at the four times; the explicit steps read the first three
        gs = np.array([g, -0.4, 0.45, math.nan])
        want = [u]
        for n in range(3):
            want.append(_np_explicit(want[-1], k[n], h, gs[n], ss.BURGERS)[0])
        for lib in cores:
            with _running(lib):
                rows = np.empty((4, J))
                rows[0] = u
                done, err = ss.forward.march(rows, k, gs, h, ss.BURGERS,
                                             ss.EXPLICIT)
                assert (done, err) == (3, None)
                assert _same(rows, want)


def test_nan_takes_precedence_over_a_cfl_refusal(cores):
    # one cell over the CFL bound and another NaN: np.maximum.reduce of
    # the speeds is NaN, so the step runs and fails as a non-finite state
    u = np.array([0.2, 50.0, -0.1, math.nan, 0.3, 0.1])
    want, F_want, cfl = _np_explicit(u, 0.05, 0.1, 0.2, ss.BURGERS)
    assert math.isnan(cfl)
    for lib in cores:
        with _running(lib):
            s = Stepper(u, ss.BURGERS)
            with pytest.raises(ss.SolverFailure, match="non-finite state"):
                s.explicit(0.05, 0.1, 0.2)
            assert _same(s.u, want)
            assert _same(s.F, F_want)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_cell_is_refused_at_cfl_inf(value):
    u = np.array([0.2, value, -0.1, 0.3])
    assert _explicit_refusal(u, 0.05, 0.1, 0.2) == "explicit step at CFL inf > 1"


# -------------------------------------------------------------- Newton step

@settings(max_examples=150, deadline=None)
@given(st.lists(_VALUE, min_size=1, max_size=40), _VALUE, _FLUX,
       st.floats(min_value=0.0, max_value=60.0))
def test_newton_step_matches_numpy_and_lapack_bitwise(cores, u, g, flux, x):
    u = np.array(u)
    h = 1.0 / u.size
    want, F_want, it, res, stop = _np_implicit(u, x * h, h, g, flux)
    for lib in cores:
        with _running(lib):
            s = Stepper(u, flux)
            if stop is None:
                with pytest.raises(ss.NonConvergence) as exc:
                    s.implicit(x * h, h, g)
                assert (exc.value.iterations, exc.value.residual) == (it, res)
            else:
                stats = s.implicit(x * h, h, g)
                assert ((stats.iterations, stats.residual, stats.stop)
                        == (it, res, stop))
            assert _same(s.u, want)
            assert _same(s.F, F_want)


def test_newton_stops_at_the_roundoff_floor():
    # lam = 32000: rounding in lam (F[1:] - F[:-1]) alone exceeds the
    # absolute tolerance, so only the floor rule ends this solve
    J = 160
    h = 1.0 / J
    x = (np.arange(J) + 0.5) * h
    u0 = 0.8 + 0.1 * np.sin(2 * np.pi * x)
    s = Stepper(u0, ss.BURGERS)
    stats = s.implicit(200.0, h, 0.8)
    assert stats.stop == "floor"
    want, _, it, res, stop = _np_implicit(u0, 200.0, h, 0.8, ss.BURGERS)
    assert (stats.iterations, stats.residual, stats.stop) == (it, res, stop)
    assert _same(s.u, want)
    assert stats.iterations > 3
    assert ss.forward.NEWTON_TOL < stats.residual
    F = interface_fluxes(s.u, 0.8)
    assert stats.residual <= 8 * EPS * (np.max(np.abs(s.u))
                                        + 200.0 / h * np.max(np.abs(F)))
    # the same state at a modest step converges by the tolerance
    assert Stepper(s.u, ss.BURGERS).implicit(1.0, h, 0.8).stop == "tol"


# --------------------------------------------------------- tridiagonal solve

def c_dgtsv(sub, diag, sup, rhs):
    """The core's dgtsv on copies: (solution, INFO)."""
    dl, d, du, b = (np.array(a, dtype=float) for a in (sub, diag, sup, rhs))
    ptr = _core.ptr
    return b, _core.lib().dgtsv(d.size, ptr(dl), ptr(d), ptr(du), ptr(b))


@st.composite
def _general_tridiagonal_systems(draw):
    """Tridiagonal systems with no dominance: row interchanges, exact
    zeros of either sign and singular ones (INFO > 0) all occur.
    "newton" systems have the zeros of the Burgers Newton Jacobian: the
    super-diagonal is +0.0 left of a random cut, the sub-diagonal -0.0
    right of it.  Half of the right-hand sides hold signed zeros,
    infinities and NaNs."""
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries = draw(st.sampled_from(["uniform", "sparse", "newton"]))

    def vec(size, lo=-2.0, hi=2.0):
        v = rng.uniform(lo, hi, max(size, 1))
        if entries == "sparse":
            zero = rng.random(v.size) < 0.3
            v[zero] = rng.choice([0.0, -0.0], zero.sum())
        return v
    if entries == "newton":
        cut = rng.integers(0, n)
        dl, d, du = vec(n - 1, -60.0, 0.0), 1.0 + vec(n, 0.0, 60.0), vec(n - 1, -60.0, 0.0)
        du[:cut] = 0.0
        dl[cut:] = -0.0
    else:
        dl, d, du = vec(n - 1), vec(n), vec(n - 1)
    b = rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):
        odd = rng.random(n) < 0.3
        b[odd] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], odd.sum())
    return dl, d, du, b


def _check_dgtsv(system):
    from scipy.linalg.lapack import dgtsv as reference
    x, info = c_dgtsv(*system)
    x_ref, info_ref = reference(*(a.copy() for a in system))[3:]
    assert info == info_ref
    if info == 0:
        assert _same(x, x_ref)


@settings(max_examples=600, deadline=None)
@given(_general_tridiagonal_systems())
def test_dgtsv_matches_lapack_with_pivoting(system):
    _check_dgtsv(system)


def test_dgtsv_keeps_the_sign_of_a_zero_it_subtracts_from():
    # b[1] = -0.0 - (-0.0 * 1.0) is +0.0: skipping the update of a -0.0
    # by a zero would leave x[1] = -0.0
    system = ([-0.0, 0.5], [1.0, 2.0, 1.0], [0.0, 0.0], [1.0, -0.0, 0.0])
    _check_dgtsv(system)
    x, _ = c_dgtsv(*system)
    assert math.copysign(1.0, x[1]) == 1.0


# ------------------------------------------------------------ planner walks

class _Recorder:
    """A library whose planner kernels record what they return."""

    def __init__(self, lib):
        self.lib, self.returns = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name not in ("propose_walk", "lay_steps"):
            return fn

        def call(*args):
            self.returns.append((name, fn(*args)))
            return self.returns[-1][1]
        return call


# (old times, densities, tol_k, profile times, profile speeds, h, the
# imex plan's last mode): one old interval, laid as one explicit run; an
# explicit run, then implicit steps cut into pieces under the cap, ending
# on T; implicit steps, then an explicit run ending on T
_PLANS = [
    ([0.0, 2.0], [1e-3], 1e-4, [0.0, 2.0], [0.5], 0.05, ss.EXPLICIT),
    ([0.0, 1.0, 2.5, 3.0], [1e-3, 4e-3, 1e-2], 1e-4, [0.0, 1.5, 3.0],
     [0.5, 5e6], 0.05, ss.IMPLICIT),
    ([0.0, 0.5, 3.0], [1e-2, 1e-4], 1e-3, [0.0, 0.45, 3.0], [40.0, 0.05], 0.05,
     ss.EXPLICIT),
]


@pytest.mark.parametrize("plan", _PLANS)
def test_planner_kernels_count_then_fill_at_every_width(cores, plan):
    # each kernel's count pass and fill pass return the same count, and
    # the plans have the bits of the numpy-scalar loops at every width
    times, dens, tol_k, p_times, speeds, h, last = plan
    old = ss.TimePartition(times=np.array(times))
    cfg = ss.AdaptationConfig(tol_k=tol_k)
    profile = ss.SpeedProfile(times=np.array(p_times), values=np.array(speeds))
    raw_want = oracles.propose_timesteps(old, np.array(dens), cfg)
    for lib in cores:
        rec = _Recorder(lib)
        with _running(rec):
            raw = ss.propose_timesteps(old, np.array(dens), cfg)
            assert _same(raw, raw_want)
            for strategy in ("imex", "fully_implicit"):
                part = ss.assign_modes(raw, profile, cfg, h, strategy).partition
                want = oracles.assign_modes(raw, profile, cfg, h, strategy).partition
                assert _same(part.times, want.times)
                assert part.modes.tobytes() == want.modes.tobytes()
                assert part.times[-1] == old.T
            assert part.interval_count > raw.size or last == ss.EXPLICIT
            counts = [n for _, n in rec.returns]
            assert counts[::2] == counts[1::2]
            assert [name for name, _ in rec.returns] == (
                ["propose_walk"] * 2 + ["lay_steps"] * 4)
        imex = ss.assign_modes(raw, profile, cfg, h).partition
        assert imex.modes[-1] == last and len(set(imex.modes)) == 1 + (len(speeds) > 1)


# ---------------------------------------------------------------- dual march

class _Source:
    def __init__(self, values):
        self.values = values

    def weight_gradient(self, x):
        return -self.values


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_dual_substeps_match_numpy_bitwise(cores, J, N, seed, sparse, record):
    # J > 128 takes numpy's pairwise summation through its halving branch
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.5, 1.5, (N, J))
    if sparse:
        A[rng.random(A.shape) < 0.3] = rng.choice([0.0, -0.0])
    grid = ss.build_spatial_grid(J, 0)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.001, 0.05, N))))
    part = ss.TimePartition(times=times)
    source = rng.uniform(-1.0, 1.0, J)
    k = part.steps
    m, _ = _np_substeps(A, k, grid.h)
    samples, log = _np_dual(A, k, grid.h, source, m, record)
    for lib in cores:
        with _running(lib):
            dual = ss.solve_dual_gradient(
                end_state_run(grid, part, A, ss.BURGERS), _Source(source),
                record_substeps=record)
            assert _same(dual.w_samples, samples)
            if record:
                assert _same([rel for _, _, rel in dual.substep_log], log)
                assert dual.max_mass_residual == max(log)
            else:
                assert dual.substep_log is None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1), st.floats(min_value=0.05, max_value=1.0),
       st.sampled_from(["uniform", "zeros", "tiny", "huge"]))
def test_dual_substep_plan_matches_numpy_bitwise(J, N, seed, dual_cfl, rows):
    rng = np.random.default_rng(seed)
    A = {"uniform": rng.uniform(-3.0, 3.0, (N, J)),
         "zeros": rng.choice([0.0, -0.0, 1e-300], (N, J)),
         "tiny": rng.uniform(-1e-12, 1e-12, (N, J)),
         "huge": rng.uniform(-1e6, 1e6, (N, J))}[rows]
    k = rng.uniform(1e-4, 2.0, N)
    h = 1.0 / J
    m, dt = np.empty(N, _core.LONG), np.empty(N)
    P = _core.ptr
    # the kernel reads each row's max|a|, as the forward march reduces it
    a_max = ss.forward.wave_speeds(A, np.zeros(N), ss.BURGERS)
    assert _core.lib().dual_substeps(N, h, dual_cfl, P(k), P(a_max),
                                     P(m, _core.LONG), P(dt)) == N
    m_np, dt_np = _np_substeps(A, k, h, dual_cfl)
    assert _same(m, m_np)
    assert _same(dt, dt_np)


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_dual_substep_plan_at_integer_ratios(ulps):
    # coefficients a few ulps either side of an integer ratio
    # k a_max / (dual_cfl h): the -1e-12 decides between m and m + 1
    J, h, dual_cfl = 5, 0.2, 0.8
    k = np.array([0.3, 0.07, 1.1, 0.013])
    A = np.empty((4, J))
    for i, ratio in enumerate([1.0, 2.0, 7.0, 40.0]):
        a = ratio * (dual_cfl * h) / k[i]
        for _ in range(abs(ulps)):
            a = np.nextafter(a, math.inf if ulps > 0 else 0.0)
        A[i] = np.linspace(-a, a / 2, J)
    m, dt = np.empty(4, _core.LONG), np.empty(4)
    P = _core.ptr
    a_max = ss.forward.wave_speeds(A, np.zeros(4), ss.BURGERS)
    assert _core.lib().dual_substeps(4, h, dual_cfl, P(k), P(a_max),
                                     P(m, _core.LONG), P(dt)) == 4
    m_np, dt_np = _np_substeps(A, k, h, dual_cfl)
    assert _same(m, m_np)
    assert _same(dt, dt_np)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_non_finite_substep_count_fails_before_any_substep(bad, monkeypatch):
    # the first bad interval is named with its cause, and the march never
    # starts, not even the one that `record_substeps` runs at once: a NaN
    # or infinite coefficient is non-finite; 1e300 is finite, but its
    # substep count does not fit a long
    grid = ss.build_spatial_grid(6, 0)
    part = ss.TimePartition(times=np.array([0.0, 0.02, 0.05, 0.06]))
    A = np.linspace(-1.0, 1.0, 18).reshape(3, 6)
    A[1, 4] = bad
    lib = _core.lib()

    class NoMarch:
        def __getattr__(self, name):
            assert name != "march_dual", "a substep ran"
            return getattr(lib, name)

    monkeypatch.setattr(_core, "lib", NoMarch)
    cause = ("^dual march: non-finite coefficient in interval 1$"
             if not math.isfinite(bad) else
             "^dual march: interval 1 needs more substeps than a long counts")
    with pytest.raises(ss.SolverFailure, match=cause):
        ss.solve_dual_gradient(end_state_run(grid, part, A, ss.BURGERS),
                               _Source(np.ones(6)), record_substeps=True)


_EDGES = [math.nan, math.inf, -math.inf, -0.0, 2.0, -2.0]


@pytest.mark.parametrize("J", range(1, 18))
def test_row_speeds_match_numpy_reduce_at_every_position(cores, J):
    # max|f'| over g and a row, as np.maximum.reduce takes it over the
    # absolute values, and over the row alone (g = 0), both from one pass:
    # each edge value (NaN, both infinities, -0.0 and a new row maximum of
    # either sign) at each cell and in g, on a random row and on a row of
    # signed zeros, so that every running maximum, the tail, the NaN flag
    # and the maximum with |g| see it, at every width
    rng = np.random.default_rng(J)
    rows = []
    for base in (rng.uniform(-1.5, 1.5, J + 1), rng.choice([0.0, -0.0], J + 1)):
        for v in _EDGES:
            for at in range(J + 1):
                x = base.copy()
                x[at] = v
                rows.append(x)
    rows = np.array(rows)
    u, g = np.ascontiguousarray(rows[:, :J]), rows[:, J].copy()
    for flux in (ss.BURGERS, ss.LinearFlux(0.7), ss.LinearFlux(-0.7)):
        want = [np.maximum.reduce(np.abs(oracles.fprime(flux, r))) for r in rows]
        alone = [np.maximum.reduce(np.abs(oracles.fprime(flux, np.append(r[:J], 0.0))))
                 for r in rows]
        for lib in cores:
            with _running(lib):
                assert _same(ss.forward.wave_speeds(u, g, flux), want), flux
                got = np.empty(len(rows))
                assert _same(ss.forward.wave_speeds(u, g, flux, got), want), flux
                assert _same(got, alone), flux
    with pytest.raises(ValueError, match="need 2 inflow values, not 1"):
        ss.forward.wave_speeds(u[:2], g[:1], ss.BURGERS)
    with pytest.raises(ValueError, match="need 2 speeds"):
        ss.forward.wave_speeds(u[:2], g[:2], ss.BURGERS, alone=np.empty(3))


@pytest.mark.parametrize("a", [1.0, -0.7])
def test_linear_flux_dual_matches_numpy_bitwise(cores, linear_case, a):
    # the dual of a LinearFlux(a) run transports with a in every cell: the
    # core fills one row of a for the whole march, with and without the
    # mass-balance record; implicit steps at CFL 1.3 take two substeps
    case = copy.copy(linear_case)
    case.flux = ss.LinearFlux(a)
    grid = ss.build_spatial_grid(20, 0, case.domain)
    part = ss.uniform_partition(case.T, 1.3 * grid.h, ss.IMPLICIT)
    traj = ss.run_forward(grid, part, case)
    A = np.full((part.interval_count, grid.cell_count), a)
    m, _ = _np_substeps(A, part.steps, grid.h)
    source = -case.weight_gradient(grid.centers)
    for record in (False, True):
        samples, log = _np_dual(A, part.steps, grid.h, source, m, record)
        for lib in cores:
            with _running(lib):
                dual = ss.solve_dual_gradient(ss.build_coefficient_field(traj),
                                              case, record_substeps=record)
                assert _same(dual.w_samples, samples)
                if record:
                    assert _same([rel for _, _, rel in dual.substep_log], log)


def test_kernel_arguments_are_checked_at_the_boundary():
    # the kernels trust dtypes and lengths; the wrappers check them
    u = np.zeros((3, 4))
    with pytest.raises(ValueError, match="3 inflow values"):
        ss.forward.march(u, np.full(2, 0.01), np.zeros(2), 0.1, ss.BURGERS,
                         ss.EXPLICIT)
    with pytest.raises(ValueError, match="3 rows"):
        ss.forward.march(u[:2], np.full(2, 0.01), np.zeros(3), 0.1, ss.BURGERS,
                         ss.EXPLICIT)
    with pytest.raises(TypeError, match="float64"):
        _core.ptr(np.zeros(3, np.float32))
    # a scalar weight gradient broadcasts over the cells, as it did in numpy
    grid = ss.build_spatial_grid(6, 0)
    part = ss.TimePartition(times=np.array([0.0, 0.02, 0.05]))
    coeff = end_state_run(grid, part, np.linspace(-1.0, 1.0, 12).reshape(2, 6),
                          ss.BURGERS)
    scalar = ss.solve_dual_gradient(coeff, _Source(np.float64(0.5)))
    cells = ss.solve_dual_gradient(coeff, _Source(np.full(6, 0.5)))
    assert _same(scalar.w_samples, cells.w_samples)
    with pytest.raises(ValueError):
        ss.solve_dual_gradient(coeff, _Source(np.zeros(7)))


def _dual(J, T, N, A, source):
    """The dual samples of the rows A (N of J) over N equal intervals of
    [0, T] with the source -weight_gradient = source: reading them runs
    the march."""
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.linspace(0.0, T, N + 1))
    return ss.solve_dual_gradient(end_state_run(grid, part, A, ss.BURGERS),
                                  _Source(source)).w_samples


@pytest.mark.parametrize("T, N, a, source, interval", [
    # w grows by dt * 1e307 per substep and overflows in the fourth
    (60.0, 6, np.full(10, 0.01), np.full(10, 1e307), 4),
    # finite coefficients whose interface sums overflow: ap = inf, and
    # inf * 0 makes w NaN in the first substep of the last interval
    (1e-310, 3, np.where(np.arange(10) % 4 < 2, 1.2e308, -1.2e308), np.ones(10), 2),
])
def test_dual_march_stops_after_the_interval_that_turns_non_finite(
        cores, T, N, a, source, interval):
    A = np.tile(a, (N, 1))
    for lib in cores:
        with _running(lib):
            with pytest.raises(ss.SolverFailure,
                               match=f"^dual march non-finite in interval {interval}$"):
                _dual(a.size, T, N, A, source)


@pytest.mark.parametrize("J", range(2, 18))
def test_dual_march_flags_a_non_finite_cell_at_every_position(cores, J):
    # no transport, and a source in one cell that overflows its w in
    # interval 4: the finiteness flag of the vector loop and of its tail
    # both see it, at every width
    A = np.zeros((6, J))
    for cell in range(J):
        source = np.zeros(J)
        source[cell] = 1e307
        for lib in cores:
            with _running(lib):
                with pytest.raises(ss.SolverFailure,
                                   match="^dual march non-finite in interval 4$"):
                    _dual(J, 60.0, 6, A, source)


def test_dual_march_stops_on_the_same_interval_across_blocks(cores,
                                                            monkeypatch):
    # no transport and dt = 0.12: w passes the largest double in the 150th
    # substep, interval 450 of 600, inside the middle one of three blocks;
    # the sweep, one call per block, names the interval that one call over
    # all intervals names, at every width
    N, J = 600, 10
    A, source = np.zeros((N, J)), np.full(J, 1e307)
    for lib in cores:
        with _running(lib):
            with pytest.raises(ss.SolverFailure) as blocked:
                _dual(J, 0.12 * N, N, A, source)
            with monkeypatch.context() as m:
                m.setattr(ss.dual, "BLOCK", N)
                with pytest.raises(ss.SolverFailure) as whole:
                    _dual(J, 0.12 * N, N, A, source)
            assert str(blocked.value) == str(whole.value) == \
                "dual march non-finite in interval 450"


# ------------------------------------------------------------- vector tails

@pytest.mark.parametrize("J", range(1, 18))
def test_kernel_tails_match_numpy_at_every_length(cores, J):
    # J = 1 .. 17 ends the vector loops of the dual march and of Newton's
    # Jacobian and update at each tail length of two 8-lane passes; the
    # draws are fixed, so every width sees every J
    rng = np.random.default_rng(J)
    u = rng.uniform(-1.0, 1.0, J)
    h = 1.0 / J
    for flux, x in ((ss.BURGERS, 3.0), (ss.LinearFlux(-0.7), 5.0)):
        want, F_want, it, res, stop = _np_implicit(u, x * h, h, 0.6, flux)
        for lib in cores:
            with _running(lib):
                s = Stepper(u, flux)
                if stop is None:
                    with pytest.raises(ss.NonConvergence) as exc:
                        s.implicit(x * h, h, 0.6)
                    assert (exc.value.iterations, exc.value.residual) == (it, res)
                else:
                    stats = s.implicit(x * h, h, 0.6)
                    assert ((stats.iterations, stats.residual, stats.stop)
                            == (it, res, stop))
                assert _same(s.u, want)
                assert _same(s.F, F_want)
    if J < 2:
        return
    # lam |u| overflows: the Jacobian is infinite, dgtsv gives NaN in every
    # cell, and the update's flag stops the step there
    big = np.full(J, 2.0)
    big[-1] = np.nextafter(2.0, 3.0)
    for lib in cores:
        with _running(lib):
            s = Stepper(big, ss.BURGERS)
            with pytest.raises(ss.SolverFailure, match="^non-finite state$"):
                s.implicit(1e308, 1.0, 2.0)
            assert np.isnan(s.u).all()
    # the dual march, with signed zeros among the coefficients
    A = rng.uniform(-1.5, 1.5, (3, J))
    zero = rng.random(A.shape) < 0.3
    A[zero] = rng.choice([0.0, -0.0], zero.sum())
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.array([0.0, 0.1, 0.25, 0.3]))
    source = rng.uniform(-1.0, 1.0, J)
    m, _ = _np_substeps(A, part.steps, grid.h)
    for record in (False, True):
        samples, log = _np_dual(A, part.steps, grid.h, source, m, record)
        for lib in cores:
            with _running(lib):
                dual = ss.solve_dual_gradient(
                    end_state_run(grid, part, A, ss.BURGERS), _Source(source),
                    record_substeps=record)
                assert _same(dual.w_samples, samples)
                if record:
                    assert _same([rel for _, _, rel in dual.substep_log], log)


# ----------------------------------------------------------- active window

# what a march leaves in a row, flux or value it does not write
_UNWRITTEN = 7.25e77


def _kernel_march(u0, k, g, h, flux, mode, max_iter=ss.forward.NEWTON_MAX_ITER):
    """The compiled march of the state u0 through the steps k (g one
    inflow value per time), called in the active library as
    `forward.march` calls it: (steps done, reason code, value, rows, F,
    Newton record).  Whatever it does not write holds `_UNWRITTEN`."""
    n, J = len(k), len(u0)
    rows = np.full((n + 1, J), _UNWRITTEN)
    rows[0] = u0
    F, value = np.full(J + 1, _UNWRITTEN), np.full(1, _UNWRITTEN)
    code = np.zeros(1, np.intc)
    rec = np.zeros(n, np.intc), np.zeros(n), np.zeros(n, np.int8)
    k, g = np.array(k, dtype=float), np.array(g, dtype=float)
    kind, a = ss.forward._flux_code(flux)
    ptr, lib = _core.ptr, _core.lib()
    args = (n, J, h, ptr(k), ptr(g), kind, a)
    if mode == ss.EXPLICIT:
        done = lib.march_explicit(*args, ptr(rows), ptr(F), ptr(code, np.intc),
                                  ptr(value))
    else:
        done = lib.march_implicit(*args, ss.forward.NEWTON_TOL, max_iter,
                                  ptr(rows), ptr(F), ptr(rec[0], np.intc),
                                  ptr(rec[1]), ptr(rec[2], np.int8),
                                  ptr(code, np.intc), ptr(value))
    return done, int(code[0]), value[0], rows, F, rec


def _np_march(u0, k, g, h, flux, mode, max_iter=ss.forward.NEWTON_MAX_ITER):
    """The full-width march in numpy, one oracle step after another, as
    `_kernel_march` returns it; a refused explicit step writes no row."""
    n, J = len(k), len(u0)
    rows = np.full((n + 1, J), _UNWRITTEN)
    rows[0] = u0
    rec = np.zeros(n, np.intc), np.zeros(n), np.zeros(n, np.int8)
    for i in range(n):
        with np.errstate(all="ignore"):
            if mode == ss.EXPLICIT:
                new, F, cfl = _np_explicit(rows[i], k[i], h, g[i], flux)
                if new is None:
                    return i, _core.CFL, cfl, rows, F, rec
                rows[i + 1] = new
                if not np.isfinite(new).all():
                    return i, _core.NONFINITE_STATE, _UNWRITTEN, rows, F, rec
                continue
            new, F, it, res, stop = _np_implicit(rows[i], k[i], h, g[i + 1], flux,
                                                 max_iter)
        rows[i + 1] = new
        if stop is None:
            return i, _core.STALLED, res, rows, F, rec
        if isinstance(stop, tuple):
            code, value = stop
            return i, code, _UNWRITTEN if value is None else value, rows, F, rec
        rec[0][i], rec[1][i], rec[2][i] = it, res, {"tol": 1, "floor": 2}[stop]
    return n, 0, _UNWRITTEN, rows, F, rec


def _assert_march_matches_numpy(cores, u0, k, g, h, flux, mode,
                                max_iter=ss.forward.NEWTON_MAX_ITER):
    """The compiled march, at every width, has every bit of the numpy one:
    steps done, reason code and value, every row (a refused or unreached
    one unwritten), all J + 1 fluxes and the Newton record.  Returns the
    numpy march's steps done and code."""
    u0 = np.array(u0, dtype=float)
    want = _np_march(u0, k, g, h, flux, mode, max_iter)
    for lib in cores:
        with _running(lib):
            got = _kernel_march(u0, k, g, h, flux, mode, max_iter)
            assert got[:2] == want[:2]
            for x, y in zip(got[2:5] + got[5], want[2:5] + want[5]):
                assert _same(x, y)
    return want[:2]


_TAILS = [-1.0, 0.0, -0.0, 0.6, -1e-300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tail", _TAILS, ids=repr)
@pytest.mark.parametrize("flux", [ss.BURGERS, ss.LinearFlux(0.7),
                                  ss.LinearFlux(-0.7)],
                         ids=["burgers", "linear+", "linear-"])
@pytest.mark.parametrize("mode", [ss.EXPLICIT, ss.IMPLICIT],
                         ids=["explicit", "implicit"])
def test_window_marches_match_numpy_with_every_tail(cores, tail, flux, mode):
    # a shock and a trailing run of the tail value, marched six steps:
    # the window ends at the run's first cell, grows as the run shrinks
    # (a positive tail takes in what the prefix sends it), and widens on
    # a zero or non-finite tail, or fails there as full width fails
    rng = np.random.default_rng(len(repr(tail)))
    J = 14
    u = np.concatenate((rng.uniform(0.4, 1.2, 4), rng.uniform(-1.2, 0.3, 4),
                        np.full(J - 8, tail)))
    h = 1.0 / J
    k = np.full(6, (0.45 if mode == ss.EXPLICIT else 3.0) * h)
    g = np.full(7, 0.9)
    _assert_march_matches_numpy(cores, u, k, g, h, flux, mode)
    if mode == ss.EXPLICIT:
        # a negative step turns c - (F[W] - F[W]) lam into c - (-0.0): the
        # run of -0.0 does not keep its bits and widens, the others do
        _assert_march_matches_numpy(cores, u, -k, g, h, flux, mode)


@pytest.mark.parametrize("J", range(1, 3 * 8 + 2))
def test_window_ends_in_every_vector_remainder(cores, J):
    # J = 1 .. 3 LANES + 1 at every width, with the window [0, hi + 1)
    # ending at each cell, so that it ends in every position of a vector
    # pass and of the scalar loop after it.  A prefix of states below 0
    # next to a tail of -1 keeps the implicit window all through; a mixed
    # prefix, with zeros of both signs, widens wherever the shock or a
    # zero asks for it.  One step through `Stepper` (its F holds all
    # J + 1 fluxes) and a march of three
    rng = np.random.default_rng(J)
    h = 1.0 / J
    for hi in range(J):
        for prefix in (rng.uniform(-1.4, -0.1, hi),
                       rng.choice([1.1, 0.7, 0.2, 0.0, -0.0, -0.4, -0.9], hi)):
            u = np.concatenate((prefix, np.full(J - hi, -1.0)))
            for mode, x in ((ss.EXPLICIT, 0.45), (ss.IMPLICIT, 4.0)):
                k, g = np.full(3, x * h), np.array([-0.5, 0.8, -0.2, 0.6])
                _assert_march_matches_numpy(cores, u, k, g, h, ss.BURGERS, mode)
                stop = "tol"
                if mode == ss.EXPLICIT:
                    want, F_want, _ = _np_explicit(u, x * h, h, 0.8, ss.BURGERS)
                else:
                    want, F_want, _, _, stop = _np_implicit(u, x * h, h, 0.8,
                                                            ss.BURGERS)
                for lib in cores:
                    with _running(lib):
                        s = Stepper(u, ss.BURGERS)
                        step = s.explicit if mode == ss.EXPLICIT else s.implicit
                        if stop in ("tol", "floor"):
                            step(x * h, h, 0.8)
                        else:
                            with pytest.raises(ss.SolverFailure):
                                step(x * h, h, 0.8)
                        assert _same(s.u, want)
                        assert s.F.size == J + 1 and _same(s.F, F_want)


def test_newton_widens_when_the_window_edge_turns_positive(cores):
    # the tail of -1 starts at cell 4, so the window ends there, and its
    # left neighbour, -0.05, couples nothing into it; the first update
    # lifts that neighbour above 0, the window's last row then couples to
    # it, and the step runs again at full width
    u = np.array([1.5, 1.5, 1.5, -0.05, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    h, k, g = 0.1, 0.2, 1.5
    iterates = []
    want, F_want, it, res, stop = _np_implicit(u, k, h, g, ss.BURGERS,
                                               iterates=iterates)
    assert stop == "tol" and iterates[0][3] < 0.0 < iterates[1][3]
    assert (iterates[-1][4:] != -1.0).any()
    for lib in cores:
        with _running(lib):
            s = Stepper(u, ss.BURGERS)
            assert s.implicit(k, h, g) == ss.NewtonStats(it, res, stop)
            assert _same(s.u, want)
            assert _same(s.F, F_want)
    _assert_march_matches_numpy(cores, u, [k, k], [g, g, g], h, ss.BURGERS,
                                ss.IMPLICIT)


@pytest.mark.parametrize("sign", [0.0, -0.0], ids=["+0", "-0"])
def test_newton_widens_on_a_zero_state_in_the_window(cores, sign):
    # next to a tail of tiny negative states, a zero state whose update
    # is a zero: the window solves the last row with the ghost's diagonal,
    # full width with the tail's, and the zero update can come out with
    # the other sign; -0.0 + (+0.0) is +0.0, so the step must widen
    c = 1e-110
    u = np.array([-0.5, -0.3, -0.2, c, sign, -c, -c, -c, -c])
    h = 1.0 / u.size
    for x in (1.0, 10.0):
        want, F_want, it, res, stop = _np_implicit(u, x * h, h, -0.5, ss.BURGERS)
        assert stop == "tol" and it > 1 and want[4] == 0.0
        for lib in cores:
            with _running(lib):
                s = Stepper(u, ss.BURGERS)
                assert s.implicit(x * h, h, -0.5) == ss.NewtonStats(it, res, stop)
                assert _same(s.u, want)
                assert _same(s.F, F_want)


_FAILURES = {
    # (mode, state, k / h, inflow, max_iter, the code full width fails with)
    "cfl": (ss.EXPLICIT, [0.8, 5.0, 0.3, -0.5, -1.0, -1.0, -1.0], 0.45, 0.8,
            None, _core.CFL),
    "cfl in a later step": (ss.EXPLICIT, [0.8, 0.9, 0.3, -0.5, -1.0, -1.0, -1.0],
                            1.0, 1.2, None, _core.CFL),
    "non-finite state": (ss.EXPLICIT,
                         [0.8, math.nan, 0.3, -0.5, -1.0, -1.0, -1.0], 0.45,
                         0.8, None, _core.NONFINITE_STATE),
    "non-finite residual": (ss.IMPLICIT,
                            [0.8, 0.3, math.nan, -0.5, -1.0, -1.0, -1.0], 3.0,
                            0.8, None, _core.NONFINITE_RESIDUAL),
    "overflowing update": (ss.IMPLICIT, [-2.0, -2.0, -2.0, -2.5, -2.5, -2.5],
                           1e308, -2.0, None, _core.NONFINITE_STATE),
    # lam < 0 gives the Newton matrix a zero pivot: in the window's first
    # row, or in the tail's (1 + |c| lam = 0), which the window would not
    # see, so a negative step is not taken in the window
    "singular": (ss.IMPLICIT, [-1.0, -1.0, -1.0, -1.0, -1.0], -1.0, 1.0, None,
                 _core.SINGULAR),
    "singular in the tail": (ss.IMPLICIT, [-0.5, -1.0, -1.0, -1.0, -1.0], -1.0,
                             1.0, None, _core.SINGULAR),
    "stalled": (ss.IMPLICIT, [1.0, 1.0, 0.8, -0.3, -0.9, -1.0, -1.0, -1.0], 3.0,
                1.0, 2, _core.STALLED),
}


@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_window_failures_keep_the_full_width_code_value_and_row(cores, failure):
    # a step that fails in the window runs again at full width: the march
    # stops on the same step with the same code and value (the CFL, dgtsv's
    # INFO, the last residual), the failing row as full width leaves it
    # (unwritten when refused) and all J + 1 fluxes
    mode, u, x, g, max_iter, code = _FAILURES[failure]
    h = 1.0 / len(u)
    k = np.full(3, x * h)
    if failure == "cfl in a later step":
        k[0] = 0.4 * h
    steps = _assert_march_matches_numpy(
        cores, u, k, np.full(4, g), h, ss.BURGERS, mode,
        max_iter or ss.forward.NEWTON_MAX_ITER)
    assert steps == ((1, code) if failure == "cfl in a later step" else (0, code))


def test_window_mode_runs_cross_block_boundaries(cores, case):
    # a run of the benchmark case whose mode runs cross the block
    # boundaries at 256 and 512: every state, rebuilt from the kept ones,
    # and the Newton record against the numpy steps at full width
    grid = ss.build_spatial_grid(20, 0, case.domain)
    h = grid.h
    layout = [(ss.EXPLICIT, 200, 0.5), (ss.IMPLICIT, 100, 3.0),
              (ss.EXPLICIT, 260, 0.5), (ss.IMPLICIT, 40, 6.0)]
    k = np.concatenate([np.full(n, x * h) for _, n, x in layout])
    modes = np.concatenate([np.full(n, m, np.int8) for m, n, _ in layout])
    part = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(k))),
                            modes=modes)
    g = np.asarray(case.inflow_value(part.times), dtype=float)
    want = [case.initial_cell_averages(grid.edges)]
    iters = np.zeros(len(k), np.intc)
    for n, (kn, mode) in enumerate(zip(part.steps.tolist(), modes.tolist())):
        if mode == ss.EXPLICIT:
            want.append(_np_explicit(want[-1], kn, h, g[n], case.flux)[0])
        else:
            u, _, iters[n], _, stop = _np_implicit(want[-1], kn, h, g[n + 1],
                                                   case.flux)
            assert stop in ("tol", "floor")
            want.append(u)
    want = np.array(want)
    # most rows end in a run of -1 that the window leaves out
    assert np.mean(want[:, -2] == -1.0) > 0.9
    for lib in cores:
        with _running(lib):
            traj = ss.run_forward(grid, part, case)
            assert _same(traj.states, want)
            assert _same(traj.newton_iters, iters)


# ---------------------------------------------------------------- breakdown

class _Case:
    """Inflow and weight of the breakdown; `weight` is a scalar or a
    value per cell centre, and its gradient, the dual's source, is a
    nonzero constant or a value per cell centre (the two need not agree:
    the breakdown reads psi, the march -psi')."""

    def __init__(self, scalar_weight, seed):
        self.scalar_weight = scalar_weight
        self.seed = seed

    def inflow_value(self, t):
        return 0.8 * np.sin(3.0 * np.asarray(t, dtype=float) + self.seed)

    def weight(self, x):
        if self.scalar_weight:
            return 0.3
        return np.cos(5.0 * np.asarray(x, dtype=float)) ** 2

    def weight_gradient(self, x):
        if self.scalar_weight:
            return -0.7
        x = np.asarray(x, dtype=float)
        return -10.0 * np.cos(5.0 * x) * np.sin(5.0 * x)


@st.composite
def _breakdown_inputs(draw):
    """A trajectory of random states with mixed modes, its dual planned at
    a drawn dual_cfl (up to 45 substeps an interval), and a case; N = 0
    and J = 1 included."""
    N = draw(st.integers(min_value=0, max_value=6))
    J = draw(st.integers(min_value=1, max_value=45))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flux = draw(_FLUX)
    grid = ss.SpatialGrid(level=0, cell_count=J, edges=np.linspace(0.0, 1.0, J + 1),
                          h=1.0 / J)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 0.1, N))))
    modes = np.array(draw(st.lists(st.sampled_from([ss.EXPLICIT, ss.IMPLICIT]),
                                   min_size=N, max_size=N)), dtype=np.int8)
    part = ss.TimePartition(times=times, modes=modes)
    states = rng.uniform(-1.5, 1.5, (N + 1, J))
    if draw(st.booleans()):
        states[rng.random(states.shape) < 0.3] = rng.choice([0.0, -0.0])
    case = _Case(draw(st.booleans()), rng.uniform(0, 6))
    traj = ss.ForwardTrajectory(grid=grid, partition=part, states=states,
                                flux=flux, g=case.inflow_value(times),
                                **no_newton(N))
    dual = ss.solve_dual_gradient(traj, case, draw(st.sampled_from([0.2, 0.8, 1.0])))
    return traj, dual, case


@settings(max_examples=300, deadline=None)
@given(_breakdown_inputs())
def test_breakdown_kernel_matches_numpy_cell_terms_bitwise(cores, inputs):
    # the one backward sweep reduces each interval's sample right after
    # the substep that takes it; the oracle reduces the samples the same
    # march writes out, at every width
    traj, dual, case = inputs
    for lib in cores:
        with _running(lib):
            _assert_breakdown_matches_cell_terms(traj, dual, case)


def _assert_breakdown_matches_cell_terms(traj, dual, case):
    br = ss.assemble_breakdown(traj, dual, case)
    N = traj.partition.interval_count
    cells_k, cells_h = cell_terms(traj, dual, case, 0, N)
    k = traj.partition.steps
    assert _same(br.eta_k_bar_n, np.sum(np.abs(cells_k), axis=1) / k)
    assert _same(br.eta_h_bar_n, np.sum(np.abs(cells_h), axis=1) / k)
    assert _same(br.eta_k, float(np.sum(np.sum(cells_k, axis=1))))
    assert _same(br.eta_h, float(np.sum(np.sum(cells_h, axis=1))))
    assert _same(br.eta_k_bar, float(np.sum(k * br.eta_k_bar_n)))
    assert _same(br.J_h, ss.evaluate_functional(traj, case))


@pytest.mark.parametrize("J", [8, 15, 16, 17, 127, 128, 129, 255, 256, 300,
                               1024, 1281])
def test_breakdown_pairwise_sums_at_every_width(cores, J):
    # numpy's pairwise sum: its eight accumulators at each width, blocks
    # of 128 and the halving above them
    rng = np.random.default_rng(J)
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.array([0.0, 0.01, 0.03, 0.04]),
                            modes=np.array([0, 1, 0], dtype=np.int8))
    case = _Case(False, 1.0)
    traj = ss.ForwardTrajectory(grid=grid, partition=part,
                                states=rng.uniform(-1.5, 1.5, (4, J)),
                                flux=ss.BURGERS, g=case.inflow_value(part.times),
                                **no_newton(3))
    dual = ss.solve_dual_gradient(traj, case)
    for lib in cores:
        with _running(lib):
            _assert_breakdown_matches_cell_terms(traj, dual, case)


class _Overflow:
    """A weight whose gradient, 1e307, overflows w over a long horizon."""

    def weight(self, x):
        return 1.0

    def weight_gradient(self, x):
        return -1e307


def test_non_finite_dual_stops_the_sweep_with_the_march_text(cores):
    # the march runs inside assemble_breakdown now: a w that overflows in
    # interval 4 stops the sweep there, in the words of the march that
    # `w_samples` runs
    N, J = 6, 10
    grid = ss.build_spatial_grid(J, 0)
    part = ss.TimePartition(times=np.linspace(0.0, 60.0, N + 1))
    traj = ss.ForwardTrajectory(grid=grid, partition=part,
                                states=np.full((N + 1, J), 0.01), flux=ss.BURGERS,
                                g=np.zeros(N + 1), **no_newton(N))
    for lib in cores:
        with _running(lib):
            for read in (lambda dual: dual.w_samples,
                         lambda dual: ss.assemble_breakdown(traj, dual, _Overflow())):
                dual = ss.solve_dual_gradient(ss.build_coefficient_field(traj),
                                              _Overflow())
                with pytest.raises(ss.SolverFailure,
                                   match="^dual march non-finite in interval 4$"):
                    read(dual)


# ------------------------------------------------------- reference march

def test_reference_march_independent_of_block_size(case, monkeypatch, cores):
    # blocks of 256 against one block, odd blocks, and a numpy loop that
    # takes one step and one `@ W` row at a time, at every width
    import shockstep.estimator as est
    grid = ss.build_spatial_grid(20, 2)
    part = ss.uniform_cfl_partition(case, grid, 0.8)
    N = part.interval_count
    W = est.weight_cell_integrals(grid, case)
    g = case.inflow_value(part.times)
    u = case.initial_cell_averages(grid.edges)
    acc = 0.0
    for n, k in enumerate(part.steps.tolist()):
        u, _, _ = _np_explicit(u, k, grid.h, g[n], case.flux)
        acc += k * float(u @ W)
    for lib in cores:
        with _running(lib):
            for rows in (256, 64, N, 1, 7, N + 5):
                monkeypatch.setattr(est, "_BLOCK_BYTES", rows * 8 * grid.cell_count)
                assert ss.reference_functional(case, 2) == acc, rows


@pytest.mark.parametrize("J", [1, 7, 80, 1280, 5000])
def test_batched_reference_dots_equal_row_dots(J):
    # one np.matmul of (B, 1, J) @ (J, 1) takes each row through the
    # same ddot as row @ W, so the reference functional keeps its bits
    rng = np.random.default_rng(J)
    rows = rng.uniform(-1.0, 1.0, (257, J))
    W = rng.uniform(0.0, 1e-3, J)
    dots = np.matmul(rows[1:, None, :], W[:, None]).ravel()
    assert _same(dots, [float(row @ W) for row in rows[1:]])


# --------------------------------------------------------- departure filter

@settings(max_examples=40, deadline=None)
@given(window=st.sampled_from(testcase._PERTURBATIONS),
       scale=st.floats(min_value=0.0, max_value=100.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_departure_filter_decides_only_numpys_verdicts(cores, window, scale,
                                                       seed):
    """Every verdict the filter decides is numpy's `_departure(tau) < x`:
    at targets 0-4 ulps either side of numpy's departure, where the two
    maps' bits part, and far from it.  A NaN tau or scale is undecided."""
    rng = np.random.default_rng(seed)
    _, a, b = window[:3]
    tau = a + (b - a) * rng.random(4000)
    exact = testcase._departure(tau, window, scale)
    targets, up, down = [exact], exact, exact
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        targets += [up, down]
    targets.append(exact + rng.choice([-1.0, 1.0], tau.size)
                   * 10.0 ** rng.uniform(-15.0, 0.0, tau.size))
    x = np.concatenate(targets)
    taus = np.tile(tau, len(targets))
    want = np.tile(exact, len(targets)) < x
    nan = np.full(3, np.nan)
    for lib in cores:
        with _running(lib):
            verdict = testcase._filter(taus, window, scale, x)
            decided = verdict >= 0
            assert np.all(verdict[decided] == want[decided])
            assert np.all(testcase._filter(nan, window, scale, x[:3]) == -1)
            assert np.all(testcase._filter(tau[:3], window, np.nan,
                                           x[:3]) == -1)


def test_departure_filter_refuses_a_target_count_off_its_points():
    with pytest.raises(ValueError, match="1 targets for 2 points"):
        testcase._filter(np.array([13.0, 14.0]), testcase._PERTURBATIONS[0],
                         1.0, np.array([13.0]))


# ------------------------------------------------------------------ CSV text

def _text(values) -> list:
    """Each value as the compiled writer spells it, one per line."""
    return _core.format_rows([np.asarray(values, dtype=float)]).decode().split("\n")[:-1]


def _percent(values) -> list:
    return ["%.5e" % x for x in np.asarray(values, dtype=float).tolist()]


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits)))
def test_format_matches_python_percent_for_every_double(x):
    # NaNs of either sign and any payload, infinities, zeros, subnormals
    assert _text([x]) == _percent([x])


def test_format_matches_python_percent_on_sampled_doubles():
    rng = np.random.default_rng(16)
    bits = _from_bits(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64))
    # the directly rounded range, 1e-39 .. 1e28, and a decade either side
    spread = 10.0 ** rng.uniform(-41.0, 29.0, 500_000) * rng.choice([-1.0, 1.0],
                                                                   500_000)
    # exact ties at six digits: 7-digit integers ending in 5, times exact
    # powers of ten, and m / 2^s with m 5^s a 7-digit odd multiple of 5
    n = rng.integers(100_000, 1_000_000, 100_000) * 10 + 5
    ints = n * 10.0 ** rng.integers(0, 9, n.size)
    s = rng.integers(1, 13, 100_000)
    lo, hi = np.ceil(1e6 / 5.0 ** s), np.floor((1e7 - 1) / 5.0 ** s)
    m = (lo + np.floor(rng.random(s.size) * (hi - lo + 1))).astype(np.int64) | 1
    keep = m * 5.0 ** s < 1e7
    fracs = np.ldexp(m[keep].astype(float), -s[keep])
    for values in (bits, spread, ints, fracs):
        assert _text(values) == _percent(values)


def test_format_pinned_edges():
    around = []
    for k in range(-46, 31):
        # a tie, both decade edges, and a tie or more that rounds up to the
        # next decade
        for v in (float(f"100000.5e{k}"), float(f"1e{5 + k}"), float(f"1e{6 + k}"),
                  float(f"999999.5e{k}"), float(f"999999.7e{k}")):
            around += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    values = [9.765625e-4, 1e22, 1e23, 5e-324, -0.0, 0.0, np.inf, -np.inf,
              _from_bits(0xFFF8000000000000), np.nan, *around]
    assert _text(values) == _percent(values)
    assert _text([9.765625e-4, _from_bits(0xFFF8000000000000), -0.0]) == [
        "9.76562e-04", "nan", "-0.00000e+00"]


def test_steps_rows_match_the_python_writer():
    # t_n, k_n, cfl_n, mode, eta_k_bar_n, eta_h_bar_n: one row per mode
    cols = [np.array([0.25, 2.0]), np.array([0.25, 1.75]),
            np.array([0.8, 472.4]), np.array([1.5e-7, 0.0]),
            np.array([-2.5e-19, 3.0e-5])]
    modes = np.array([ss.EXPLICIT, ss.IMPLICIT], np.int8)
    got = _core.format_rows(cols, modes, mode_at=3).decode()
    assert got == percent_rows(cols, modes, mode_at=3)
    assert got.splitlines()[1] == ("2.00000e+00,1.75000e+00,4.72400e+02,implicit,"
                                   "0.00000e+00,3.00000e-05")
    assert _core.format_rows([np.zeros(0)] * 2) == b""
    with pytest.raises(ValueError, match="mode 2 of row 1"):
        _core.format_rows(cols, np.array([0, 2], np.int8), mode_at=3)


# ------------------------------------------------------------------ loader

_UNSAFE_FLAGS = ("-ffast-math", "-Ofast", "-march", "-funsafe-math-optimizations",
                 "-ffinite-math-only", "-fassociative-math")


def test_compile_command_keeps_every_rounding(tmp_path):
    # contraction off and none of the flags that license reassociation,
    # finite-only math or another instruction set (the source sets it
    # from the width the loader passes); the source builds without a
    # warning or note at every width
    assert "-ffp-contract=off" in _core.COMPILE
    assert not [flag for flag in _core.COMPILE
                if flag.startswith(_UNSAFE_FLAGS) or flag.startswith("-m")]
    if shutil.which(_core.COMPILE[0]) is None:
        pytest.skip(f"no {_core.COMPILE[0]} on PATH")
    for cap in ([], ["-DMAX_LANES=4"], ["-DMAX_LANES=8"]):
        cmd = [*_core.COMPILE, *cap, "-Wall", "-Wextra", "-Werror",
               "-o", str(tmp_path / "_core.so"), _core.SOURCE]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (cap, proc.stderr)
        assert proc.stderr == "", (cap, proc.stderr)


_CTYPE_CLASS = {ctypes.c_long: "long", ctypes.c_int: "int",
                ctypes.c_double: "double", ctypes.c_void_p: "pointer",
                None: "void"}


def _c_class(decl: str) -> str:
    """A C parameter's class: pointer, or the type word before its name."""
    return "pointer" if "*" in decl else decl.split()[-2]


def test_ctypes_signatures_match_the_c_definitions():
    # ctypes checks no argument against the C source: a declaration that
    # drifts from _core.c passes a double where a long is read, or shifts
    # every later argument, without an error
    source = Path(_core.SOURCE).read_text()
    for name, (res, args) in _core._SIGNATURES.items():
        found = re.search(rf"^(\w+) {name}\(([^)]*)\)", source, re.M)
        assert found, f"no definition of {name} in _core.c"
        ret, params = found.groups()
        params = [] if params.strip() == "void" else params.split(",")
        assert ((_CTYPE_CLASS[res], [_CTYPE_CLASS[t] for t in args])
                == (ret, [_c_class(p) for p in params])), name


def test_missing_compiler_names_the_command(tmp_path, monkeypatch, case):
    # an empty cache and no `cc` on PATH: the first march says what failed
    empty, cache = tmp_path / "bin", tmp_path / "cache"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "user"))
    monkeypatch.setattr(_core, "CACHE", str(cache))
    monkeypatch.setattr(_core, "_lib", None)
    grid = ss.build_spatial_grid(20, 0)
    with pytest.raises(ImportError, match=r"C compiler: `cc -O2 -ffp-contract=off"):
        ss.run_forward(grid, ss.uniform_partition(1.0, 0.01), case)
    assert list(cache.iterdir()) == []
    assert not (tmp_path / "user").exists()


def _fresh_process_calls(so, symbol):
    """`symbol()` of the library file `so`, loaded by a new interpreter:
    this process's dlopen would hand back a library it already holds."""
    code = f"import ctypes; print(ctypes.CDLL({str(so)!r}).{symbol}())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_changed_source_or_command_is_rebuilt(tmp_path, monkeypatch):
    src, cache = tmp_path / "_core.c", tmp_path / "cache"
    shutil.copy(_core.SOURCE, src)
    so, key = cache / "_core.so", cache / "_core.so.key"
    _core.load(str(src), str(cache))
    built = so.stat()
    _core.load(str(src), str(cache))
    assert so.stat().st_ino == built.st_ino      # same bytes: cache hit
    src.write_bytes(src.read_bytes() + b"long edit_marker(void) { return 11; }\n")
    _core.load(str(src), str(cache))
    assert so.stat().st_ino != built.st_ino
    assert key.read_bytes().endswith(src.read_bytes())
    assert _fresh_process_calls(so, "edit_marker") == 11   # the new build
    rebuilt = so.stat()
    monkeypatch.setattr(_core, "COMPILE", _core.COMPILE + ("-g",))
    _core.load(str(src), str(cache))
    assert so.stat().st_ino != rebuilt.st_ino    # a changed flag rebuilds
    assert key.read_bytes().startswith(b"cc -O2 -ffp-contract=off -shared -fPIC -g "
                                       b"-DMAX_LANES=")
    rebuilt = so.stat()
    monkeypatch.setattr(_core, "_host_lanes", lambda: 2)
    _core.load(str(src), str(cache))
    assert so.stat().st_ino != rebuilt.st_ino    # so does another CPU's width
    assert _fresh_process_calls(so, "lanes") == 2


@pytest.mark.parametrize("block", ["read-only", "not a directory"])
def test_unwritable_cache_falls_back_then_names_itself(tmp_path, block):
    # the package's own cache can be read-only (a root-owned install);
    # the build then goes to the next cache, and with none left the
    # ImportError names every directory it tried
    src, pkg, user = tmp_path / "_core.c", tmp_path / "pkg", tmp_path / "user"
    shutil.copy(_core.SOURCE, src)
    if block == "read-only":
        if os.geteuid() == 0:
            pytest.skip("root writes into read-only directories")
        pkg.mkdir()
        pkg.chmod(0o555)
    else:
        pkg.write_bytes(b"")
    try:
        lib = _core.load(str(src), str(pkg), str(user))
        assert lib.dgtsv(0, None, None, None, None) == 0
        assert (user / "_core.so").exists()
        with pytest.raises(ImportError, match=f"no writable cache.*{pkg}"):
            _core.load(str(src), str(pkg))
    finally:
        if pkg.is_dir():
            pkg.chmod(0o755)
    assert pkg.is_file() or list(pkg.iterdir()) == []


def test_cached_core_loads_without_subprocess():
    # a warm cache costs two small reads: no compiler, no subprocess module
    _core.lib()
    code = ("import sys, numpy as np, shockstep as ss\n"
            "from oracles import Stepper\n"
            "s = Stepper(np.zeros(3), ss.BURGERS)\n"
            "s.explicit(0.1, 1.0, 0.5)\n"
            "assert 'subprocess' not in sys.modules\n")
    root = str(Path(ss.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
