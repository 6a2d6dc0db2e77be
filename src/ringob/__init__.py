"""Absorptive optical bistability of a two-loop ring cavity with a
three-level Lambda cell: steady-state atomic response, closed feedback
operating points, input-plane domain maps and quasi-static hysteresis.
"""

from .atom import (
    ApproxCellResponse,
    AtomParams,
    CellResponse,
    DensityMatrix,
    DriveParams,
    OpticalConstants,
    steady_state,
    two_level_im_rho12,
    two_level_im_rho32,
)
from .config import RunConfig, load_config
from .domain import BistabilityMap, GridSpec, compare_domains, extract_boundary, map_domain
from .feedback import (
    CavityParams,
    InputPoint,
    OperatingPoint,
    SolverConfig,
    find_all_solutions,
    iterate_map,
)
from .sweep import AxisSweep, ParametricPath, detect_jumps, loop_area, run_sweep

__all__ = [
    "ApproxCellResponse",
    "AtomParams",
    "AxisSweep",
    "BistabilityMap",
    "CavityParams",
    "CellResponse",
    "DensityMatrix",
    "DriveParams",
    "GridSpec",
    "InputPoint",
    "OperatingPoint",
    "OpticalConstants",
    "ParametricPath",
    "RunConfig",
    "SolverConfig",
    "compare_domains",
    "detect_jumps",
    "extract_boundary",
    "find_all_solutions",
    "iterate_map",
    "load_config",
    "loop_area",
    "map_domain",
    "run_sweep",
    "steady_state",
    "two_level_im_rho12",
    "two_level_im_rho32",
]

__version__ = "0.1.0"
