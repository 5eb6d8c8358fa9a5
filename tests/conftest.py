"""Shared fixtures: the benchmark case, the reference functional, the
experiment reports reused across test modules, and a runner of capped
child interpreters.  Everything here is deterministic, so session scope is
safe."""
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shockstep as ss

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(5)


def uniform_level_report(case, level, *, base_cells=20, basis="global",
                         cfl=0.8, mode=ss.EXPLICIT, dual_cfl=0.8):
    """Uniform-partition run packaged like the adaptive reports."""
    grid = ss.build_spatial_grid(base_cells, level, case.domain)
    part = ss.uniform_cfl_partition(case, grid, cfl, basis, mode)
    return ss.solve_level(level, grid, part, case, dual_cfl)


@pytest.fixture(scope="session")
def case():
    return ss.PerturbedShockCase()


@pytest.fixture(scope="session")
def j_ref(case):
    return ss.reference_functional(case, 6)


@pytest.fixture(scope="session")
def uniform_reports(case):
    return {L: uniform_level_report(case, L) for L in range(4)}


@pytest.fixture(scope="session")
def base_report(uniform_reports):
    return uniform_reports[0]


@pytest.fixture(scope="session")
def base_trajectory(case, base_report):
    """The base report's states, rebuilt: reports do not keep them, and
    the march is deterministic, so these are the bits it used."""
    return ss.run_forward(base_report.grid, base_report.partition, case)


@pytest.fixture(scope="session")
def mixed_trajectory(case):
    """Level-1 run over six rounds of twelve explicit steps at CFL 0.5 and
    one implicit step of 2.2, which carries the march into the first
    inflow window (78 intervals, substep counts varying per interval)."""
    grid = ss.build_spatial_grid(20, 1)
    k_exp = 0.5 * grid.h / ss.speed_for_basis(case, grid, "global")
    ks = ([k_exp] * 12 + [2.2]) * 6
    modes = ([ss.EXPLICIT] * 12 + [ss.IMPLICIT]) * 6
    part = ss.TimePartition(times=np.concatenate(([0.0], np.cumsum(ks))),
                            modes=np.array(modes, dtype=np.int8))
    return ss.run_forward(grid, part, case)


@pytest.fixture(scope="session")
def adapt_cfg():
    return ss.AdaptationConfig()


@pytest.fixture(scope="session")
def ex1_report(case, adapt_cfg):
    return ss.adaptive_loop(case, adapt_cfg, [0, 1], "match_previous",
                            strategy="fully_implicit")[-1]


@pytest.fixture(scope="session")
def ex2_report(case, adapt_cfg):
    return ss.adaptive_loop(case, adapt_cfg, [0, 1], "match_previous",
                            strategy="imex")[-1]


@pytest.fixture(scope="session")
def ex3_rows(case, adapt_cfg):
    row1 = uniform_level_report(case, 4, basis="initial")
    row2 = ss.adaptive_loop(case, adapt_cfg, [0, 4], "scaled_ref",
                            strategy="imex", factor=2.0 ** -4)[-1]
    row3 = ss.adaptive_loop(case, adapt_cfg, [0, 4], "scaled_ref",
                            strategy="imex", factor=1.0)[-1]
    return row1, row2, row3


@pytest.fixture(scope="session")
def capped_child():
    """run(code, address_space, *args, timeout=60): run `code` in a fresh
    interpreter that imports this shockstep, with `args` as sys.argv[1:],
    its address space capped at `address_space` bytes and a timeout in
    seconds; returns the finished process, output as text.  For inputs
    that could allocate without bound or never return."""
    src = str(Path(ss.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code: str, address_space: int, *args, timeout=60):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS,
                               (address_space, address_space))
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, "PYTHONPATH": path},
                              preexec_fn=cap)
    return run


def smooth_hump(z):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
    return out


class LinearAdvectionCase:
    """Smooth linear transport twin: unit speed, compact hump riding into the
    functional window.  Used to check the estimator against the true error of
    a problem with an accessible exact solution."""

    T = 0.5
    domain = (0.0, 1.0)
    flux = ss.LinearFlux(1.0)

    def __init__(self, weight_source):
        self._w = weight_source

    def initial_profile(self, x):
        return 1.0 + 0.3 * smooth_hump((np.asarray(x, dtype=float) - 0.35) / 0.25)

    def initial_cell_averages(self, edges):
        edges = np.asarray(edges, dtype=float)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        acc = np.zeros_like(mid)
        for q in range(GAUSS_X.size):
            acc += GAUSS_W[q] * self.initial_profile(mid + half * GAUSS_X[q])
        return 0.5 * acc

    def exact_profile(self, x, t):
        # inflow is 1 and the hump support stays right of the boundary
        return self.initial_profile(np.asarray(x, dtype=float) - t)

    def inflow_value(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def inflow_peak(self):
        return 1.0

    def weight(self, x):
        return self._w.weight(x)

    def weight_gradient(self, x):
        return self._w.weight_gradient(x)


class LinearStepCase(LinearAdvectionCase):
    """The linear twin with the step 1.0 -> 1.3 on (0.2, 0.45) in place of
    the hump, from its exact cell averages: a discontinuity, but no
    shock."""

    def initial_profile(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.2) & (x < 0.45), 1.3, 1.0)

    def initial_cell_averages(self, edges):
        edges = np.asarray(edges, dtype=float)
        inside = np.clip(np.minimum(edges[1:], 0.45)
                         - np.maximum(edges[:-1], 0.2), 0.0, None)
        return 1.0 + 0.3 * inside / np.diff(edges)


class BurgersHumpCase(LinearAdvectionCase):
    """Burgers with the linear twin's hump: it steepens, but no shock forms
    before T.  No closed form: `burgers_hump_j` extrapolates J."""

    flux = ss.BURGERS
    exact_profile = None


@pytest.fixture(scope="session")
def linear_case(case):
    return LinearAdvectionCase(case)


@pytest.fixture(scope="session")
def step_case(case):
    return LinearStepCase(case)


@pytest.fixture(scope="session")
def hump_case(case):
    return BurgersHumpCase(case)


@pytest.fixture(scope="session")
def burgers_hump_j(hump_case):
    """J of the Burgers hump, 2 J_7 - J_6: Richardson extrapolation of
    J_h at levels 6 and 7, first order in the cell width, with the twins'
    uniform step 0.8 h / 1.3."""
    J = []
    for level in (6, 7):
        grid = ss.build_spatial_grid(20, level, hump_case.domain)
        part = ss.uniform_partition(hump_case.T, 0.8 * grid.h / 1.3)
        J.append(ss.evaluate_functional(ss.run_forward(grid, part, hump_case),
                                        hump_case))
    return 2.0 * J[1] - J[0]
