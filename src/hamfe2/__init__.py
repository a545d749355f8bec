"""Coupled heat and moisture transport in masonry by nested FE2 homogenization."""

from .climate import (ClimateError, ClimateSeries, load_climate_series,
                      sample_climate, synthetic_annual_climate)
from .config import (BoundaryRule, BoundarySchedule, ConfigError,
                     ScenarioConfig, load_materials, load_scenario,
                     parse_scenario)
from .constitutive import (ConstitutiveError, KunzelMaterial, LinearMaterial,
                           MaterialParams, default_materials)
from .fe2 import (ComparisonReport, FE2Driver, FE2Error, build_grid_cell_map,
                  compare_fields)
from .fem import FieldState
from .homogenization import (CellProblem, EffectiveResponse, MacroLoading,
                             MesoState, TangentBlocks, effective_tangent,
                             initial_response, solve_rve_increment)
from .mesh import (Mesh, MeshError, generate_masonry_cell,
                   generate_masonry_wall, generate_rectangle_mesh, load_mesh,
                   save_mesh, with_phases)
from .results import (read_history_csv, write_results, write_round_log,
                      write_step_log)
from .scheduler import SchedulerError
from .solver import (History, SolverConfig, SolverError, newton_solve,
                     transient_solve)

__version__ = "0.1.0"

__all__ = [
    "ClimateError", "ClimateSeries", "load_climate_series", "sample_climate",
    "synthetic_annual_climate",
    "BoundaryRule", "BoundarySchedule", "ConfigError", "ScenarioConfig",
    "load_materials", "load_scenario", "parse_scenario",
    "ConstitutiveError", "KunzelMaterial", "LinearMaterial", "MaterialParams",
    "default_materials",
    "ComparisonReport", "FE2Driver", "FE2Error", "build_grid_cell_map",
    "compare_fields",
    "FieldState",
    "CellProblem", "EffectiveResponse", "MacroLoading", "MesoState",
    "TangentBlocks", "effective_tangent", "initial_response",
    "solve_rve_increment",
    "Mesh", "MeshError", "generate_masonry_cell", "generate_masonry_wall",
    "generate_rectangle_mesh", "load_mesh", "save_mesh", "with_phases",
    "read_history_csv", "write_results", "write_round_log", "write_step_log",
    "SchedulerError",
    "History", "SolverConfig", "SolverError", "newton_solve",
    "transient_solve",
    "__version__",
]
