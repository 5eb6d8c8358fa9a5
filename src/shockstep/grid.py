"""Spatial grids and time partitions.

Space is always a uniform subdivision of an interval; time partitions may be
non-uniform and carry a per-interval solver mode tag.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXPLICIT = 0
IMPLICIT = 1

# relative slack for "lands exactly on T" decisions
_END_RTOL = 1e-12
# cells of the finest grid: past them the cell width underflows
_MAX_CELLS = 2 ** 40
# np.polynomial.legendre.leggauss(5) bit for bit, without its import
_GAUSS_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                     0.5384693101056831, 0.906179845938664])
_GAUSS_W = np.array([0.23692688505618928, 0.4786286704993663,
                     0.5688888888888887, 0.4786286704993663, 0.23692688505618928])


@dataclass(frozen=True)
class SpatialGrid:
    level: int
    cell_count: int
    edges: np.ndarray
    h: float

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass
class TimePartition:
    """Finite, strictly increasing times t_0=0 < ... < t_N=T plus one mode,
    EXPLICIT or IMPLICIT, per interval."""
    times: np.ndarray
    modes: np.ndarray = field(default=None)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.modes is None:
            self.modes = np.zeros(len(self.times) - 1, dtype=np.int8)
        modes = np.asarray(self.modes)
        if not np.all((modes == EXPLICIT) | (modes == IMPLICIT)):
            raise ValueError("modes must be EXPLICIT (0) or IMPLICIT (1)")
        self.modes = np.asarray(modes, dtype=np.int8)
        if len(self.modes) != len(self.times) - 1:
            raise ValueError("need one mode per interval")
        # with the check below, finite ends make every time finite
        if not (np.isfinite(self.times[0]) and np.isfinite(self.times[-1])):
            raise ValueError("times must be finite")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def interval_count(self) -> int:
        return len(self.times) - 1

    @property
    def T(self) -> float:
        return float(self.times[-1])


def weight_cell_integrals(grid: SpatialGrid, case) -> np.ndarray:
    """W_j = integral of the weight over cell j, 5-point Gauss per cell."""
    mid = grid.centers
    acc = np.zeros(grid.cell_count)
    for q in range(_GAUSS_X.size):
        acc += _GAUSS_W[q] * case.weight(mid + 0.5 * grid.h * _GAUSS_X[q])
    return 0.5 * grid.h * acc


def _deepest_level(base_cells: int) -> int:
    """The deepest refinement level of base_cells cells (at least 1), the
    last with at most _MAX_CELLS cells; -1 when level 0 has more."""
    return (_MAX_CELLS // base_cells).bit_length() - 1


def build_spatial_grid(base_cells: int, level: int, domain=(0.0, 1.0)) -> SpatialGrid:
    """Uniform grid with base_cells * 2**level cells on the given interval."""
    if base_cells < 2:
        raise ValueError("base_cells must be at least 2")
    if level < 0:
        raise ValueError("level must be non-negative")
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError("degenerate domain")
    if level > _deepest_level(base_cells):
        raise ValueError("refinement level too deep, cell width underflows")
    n = base_cells * 2 ** level
    h = (b - a) / n
    edges = np.linspace(a, b, n + 1)
    return SpatialGrid(level=level, cell_count=n, edges=edges, h=h)


def uniform_partition(T: float, k: float, mode: int = EXPLICIT) -> TimePartition:
    """Uniform steps of size k covering [0, T], final step shortened to land on T.

    When k divides T up to rounding, the spurious extra interval that
    ceil() would produce is dropped.
    """
    if not (0.0 < k <= T):
        raise ValueError("need 0 < k <= T")
    N = int(np.ceil(T / k))
    if (N - 1) * k >= T - _END_RTOL * T:
        N -= 1
    times = k * np.arange(N + 1)
    times[-1] = T
    return TimePartition(times=times, modes=np.full(N, mode, dtype=np.int8))
