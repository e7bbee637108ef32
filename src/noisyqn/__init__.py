"""Noise-tolerant quasi-Newton methods (BFGS / L-BFGS families) with a
two-phase Armijo-Wolfe line search, plus test problems, a controlled noisy
oracle, and a benchmark harness."""

from .bench import (
    ConfigError,
    ExperimentConfig,
    ProfilePoint,
    morales_profile,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from .linalg import (
    CurvaturePair,
    LimitedMemory,
    SymmetricMatrix,
    bfgs_inverse_update,
    eigen_extremes,
    two_loop_direction,
)
from .linesearch import (
    CurvatureTracker,
    LineSearchOutcome,
    LineSearchParams,
    Phase,
    armijo_wolfe_search,
    relaxed_armijo,
    two_phase_search,
)
from .noise import NoiseSpec, NoisyOracle
from .problems import (
    Problem,
    UnknownProblemError,
    check_gradient,
    make_quadratic,
    register,
    registered_names,
    registry_lookup,
)
from .solver import (
    IterationContext,
    IterationRecord,
    RunTrace,
    SolverConfig,
    Variant,
    run,
    skip_condition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "SymmetricMatrix",
    "CurvaturePair",
    "LimitedMemory",
    "bfgs_inverse_update",
    "two_loop_direction",
    "eigen_extremes",
    # problems
    "Problem",
    "UnknownProblemError",
    "registry_lookup",
    "registered_names",
    "register",
    "make_quadratic",
    "check_gradient",
    # noise
    "NoiseSpec",
    "NoisyOracle",
    # line search
    "LineSearchParams",
    "CurvatureTracker",
    "Phase",
    "LineSearchOutcome",
    "relaxed_armijo",
    "two_phase_search",
    "armijo_wolfe_search",
    # solver
    "Variant",
    "SolverConfig",
    "RunTrace",
    "IterationRecord",
    "IterationContext",
    "run",
    "skip_condition",
    # bench
    "ExperimentConfig",
    "ConfigError",
    "ProfilePoint",
    "run_experiment",
    "morales_profile",
    "write_trace_csv",
    "read_trace_csv",
]
