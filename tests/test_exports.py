"""The package's public names: each module's ``__all__``, said once."""

import noisyqn
from noisyqn import bench, linalg, linesearch, noise, problems, solver

# The 35 names the package exports.
EXPORTED = {
    "__version__",
    "SymmetricMatrix", "CurvaturePair", "LimitedMemory", "bfgs_inverse_update",
    "two_loop_direction", "eigen_extremes",
    "Problem", "UnknownProblemError", "registry_lookup", "registered_names", "register",
    "make_quadratic", "check_gradient",
    "NoiseSpec", "NoisyOracle",
    "LineSearchParams", "SearchMemory", "Phase", "LineSearchOutcome", "two_phase_search",
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
    assert len(noisyqn.__all__) == len(EXPORTED) == 35
    assert set(noisyqn.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(noisyqn, name) is not None


def test_plain_search_is_unexported_but_patchable_in_solver():
    """``armijo_wolfe_search`` left the API; perfbench's tracer still patches
    it under ``solver``, where it is only another name of the one search."""
    assert "armijo_wolfe_search" not in noisyqn.__all__
    assert not hasattr(noisyqn, "armijo_wolfe_search")
    assert solver.armijo_wolfe_search is solver.two_phase_search
