"""Goal-oriented time step control for scalar conservation laws.

First order finite volume transport with an adjoint-weighted split of the
functional error into time and space parts, and a density-driven loop that
retiles the time axis between mesh levels.
"""

from .adaptivity import (AdaptationConfig, AdaptationPlan, LevelReport,
                         PlanStats, SpeedProfile, adaptive_loop, assign_modes,
                         propose_timesteps, solve_level, tolerance_schedule)
from .dual import DualGradientTrajectory, solve_dual_gradient
from .estimator import (ErrorBreakdown, assemble_breakdown, efficiency_index,
                        evaluate_functional, reference_functional,
                        weight_cell_integrals)
from .forward import (BURGERS, BurgersFlux, LinearFlux, NonConvergence,
                      SolverFailure, ForwardTrajectory, run_forward,
                      speed_for_basis, uniform_cfl_partition)
from .grid import (EXPLICIT, IMPLICIT, SpatialGrid, TimePartition,
                   build_spatial_grid, uniform_partition)
from .testcase import (CharacteristicsReport, PerturbedShockCase,
                       validate_characteristics)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig", "AdaptationPlan", "LevelReport", "PlanStats",
    "SpeedProfile", "adaptive_loop", "assign_modes", "propose_timesteps",
    "solve_level", "tolerance_schedule",
    "DualGradientTrajectory", "solve_dual_gradient",
    "ErrorBreakdown", "assemble_breakdown", "efficiency_index",
    "evaluate_functional", "reference_functional", "weight_cell_integrals",
    "BURGERS", "BurgersFlux", "LinearFlux", "NonConvergence",
    "SolverFailure", "ForwardTrajectory", "run_forward",
    "speed_for_basis", "uniform_cfl_partition",
    "EXPLICIT", "IMPLICIT", "SpatialGrid", "TimePartition",
    "build_spatial_grid", "uniform_partition",
    "CharacteristicsReport", "PerturbedShockCase", "validate_characteristics",
    "__version__",
]
