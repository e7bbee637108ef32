"""The package's public names: each module's ``__all__``, said once."""

import noisyqn
from noisyqn import bench, linalg, linesearch, noise, problems, solver

# The 36 names the package exports.
EXPORTED = {
    "__version__",
    "SymmetricMatrix", "CurvaturePair", "LimitedMemory", "bfgs_inverse_update",
    "two_loop_direction", "eigen_extremes",
    "Problem", "UnknownProblemError", "registry_lookup", "registered_names", "register",
    "make_quadratic", "check_gradient",
    "NoiseSpec", "NoisyOracle",
    "LineSearchParams", "SearchMemory", "Phase", "LineSearchOutcome", "two_phase_search",
    "armijo_wolfe_search",
    "Variant", "SolverConfig", "RunTrace", "IterationRecord", "IterationContext", "run",
    "skip_condition",
    "ExperimentConfig", "ConfigError", "ProfilePoint", "run_experiment", "morales_profile",
    "write_trace_csv", "read_trace_csv",
}


def test_package_exports_the_modules_lists():
    modules = (bench, linalg, linesearch, noise, problems, solver)
    union = ["__version__"] + [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(noisyqn.__all__) == sorted(union)


def test_exported_names_are_pinned_and_resolve():
    assert len(noisyqn.__all__) == len(EXPORTED) == 36
    assert set(noisyqn.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(noisyqn, name) is not None
