"""Adaptive model- and grid-error control for stationary gas network
operation-cost minimization.

The package couples a hierarchy of three stationary pipe-flow models with
implicit-Euler discretizations of varying stepsize, a posteriori error
estimators for both error sources, greedy bulk marking strategies, and an
interior-point NLP solver, so that networks are solved with the cheapest
model/grid combination that still meets a prescribed tolerance.
"""

from .controller import (
    AdaptiveConfig,
    AdaptiveState,
    TraceRecord,
    compute_estimates,
    is_eps_feasible,
    mark_coarsen,
    mark_refine,
    mark_switch_down,
    mark_switch_up,
    run,
    switch_up_target,
    validate_parameters,
)
from .errors import (
    DrainedPipe,
    EmptyNetwork,
    GasAdaptError,
    IncompatibleGrids,
    InfeasibleProblem,
    InvalidGrid,
    IterationLimit,
    NonPositivePressure,
    ParseError,
    SonicFlow,
    UnsupportedModel,
    ValidationError,
)
from .estimators import (
    ErrorEstimate,
    discretization_error,
    estimate_with_alternatives,
    network_error_summary,
    total_error,
)
from .fileio import (
    export_estimates,
    export_profile,
    export_trace,
    load_config,
    load_network,
    load_scenario,
    load_solution,
    save_network,
    save_scenario,
    save_solution,
)
from .integrate import Grid, PressureProfile, integrate, restrict_to_grid
from .models import ModelLevel, analytic_pressure, rhs, sound_speed
from .network import (
    Compressor,
    GasParameters,
    Network,
    Node,
    Pipe,
    Scenario,
    validate_network,
)
from .nlp import NlpInstance, NlpSolution, assemble, solve

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveState",
    "Compressor",
    "DrainedPipe",
    "EmptyNetwork",
    "ErrorEstimate",
    "GasAdaptError",
    "GasParameters",
    "Grid",
    "IncompatibleGrids",
    "InfeasibleProblem",
    "InvalidGrid",
    "IterationLimit",
    "ModelLevel",
    "Network",
    "NlpInstance",
    "NlpSolution",
    "Node",
    "NonPositivePressure",
    "ParseError",
    "Pipe",
    "PressureProfile",
    "Scenario",
    "SonicFlow",
    "TraceRecord",
    "UnsupportedModel",
    "ValidationError",
    "analytic_pressure",
    "assemble",
    "compute_estimates",
    "discretization_error",
    "estimate_with_alternatives",
    "export_estimates",
    "export_profile",
    "export_trace",
    "integrate",
    "is_eps_feasible",
    "load_config",
    "load_network",
    "load_scenario",
    "load_solution",
    "mark_coarsen",
    "mark_refine",
    "mark_switch_down",
    "mark_switch_up",
    "network_error_summary",
    "restrict_to_grid",
    "rhs",
    "run",
    "save_network",
    "save_scenario",
    "save_solution",
    "solve",
    "sound_speed",
    "switch_up_target",
    "total_error",
    "validate_network",
    "validate_parameters",
]
