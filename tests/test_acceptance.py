"""End-to-end acceptance suite for the noise-tolerant quasi-Newton toolkit.

Each test pins one shipped guarantee and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (visible without ``-s``) before asserting.
Expensive run sets are shared between criteria through module-scoped
fixtures, and every solver run made in this module is registered so the
final noise-bound audit covers the whole suite.  The run sets without an
observer (criteria 4, 5 and 9) run in spawned worker processes, started
by ``conftest.py`` when collection ends (``PooledRuns``); the last test
checks that a RuntimeWarning inside a worker still fails.
"""

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from noisyqn.bench import ExperimentConfig, run_experiment
from noisyqn.linalg import (
    CurvaturePair,
    LimitedMemory,
    SymmetricMatrix,
    bfgs_inverse_update,
    blas_threads_for,
    two_loop_direction,
)
from noisyqn.noise import NoiseSpec
from noisyqn.problems import Problem, check_gradient, registered_names, registry_lookup
from noisyqn.solver import SolverConfig, Variant, run, skip_condition

SEEDS = (1, 2, 3, 4, 5)
# The registry's named problems (the QUAD family is parameterized).
EQUIVALENCE_PROBLEMS = [name for name in registered_names() if not name.startswith("QUAD(")]

# Theory constants at c3 = 0.5 on QUAD(m=1, M=100): the lengthened-pair
# curvature is trapped in [m_hat, M_hat], and s.y is sandwiched between
# 0.6 and 3 times the noise-free s.y~.
M_HAT = (1.0 + 1.0 / 0.5) * 100.0  # 300
M_LOW = (1.0 + 0.5) / (2.0 + 0.5) * 1.0  # 0.6
SANDWICH_LO = 1.0 / (1.0 + 1.0 / (1.0 + 0.5))  # 0.6
SANDWICH_HI = 1.0 / (1.0 - 1.0 / (1.0 + 0.5))  # 3.0

# Every solver run in this module lands here as
# (label, max |f noise|, max ||g noise||, xi_f, sqrt(d) * xi_g)
# so the noise-bound audit at the end sweeps the complete suite.
_NOISE_AUDIT: list[tuple[str, float, float, float, float]] = []


def audited(trace, spec):
    _NOISE_AUDIT.append(
        (
            f"{trace.problem}/{trace.variant}/xi_g={spec.xi_g:g}/seed={spec.seed}",
            trace.max_f_noise,
            trace.max_g_noise_norm,
            spec.xi_f,
            math.sqrt(trace.final_x.size) * spec.xi_g,
        )
    )
    return trace


def tracked_run(problem, spec, config, observer=None):
    return audited(run(problem, spec, config, observer=observer), spec)


def _run_in_worker(problem, spec, config):
    """One ``run`` in a pool worker.  pytest turns a RuntimeWarning into an
    error (``filterwarnings`` in pyproject.toml) only in its own process, so
    the worker installs the same filter.  BLAS runs on one thread, as in a
    sweep's cells, so that the workers do not crowd each other's cores."""
    warnings.simplefilter("error", RuntimeWarning)
    with blas_threads_for(problem.dim):
        return run(problem, spec, config)


# The run sets without an observer, by the fixture that reads them: each
# maps a key to one (problem, spec, config) job per seed.
def _kappa_jobs():
    problem = registry_lookup("ARWHEAD")
    return {
        variant.value: [
            (
                problem,
                NoiseSpec(xi_f=0.0, xi_g=1e-3, seed=seed),
                SolverConfig(variant=variant, max_iters=1000, diagnostics=True),
            )
            for seed in SEEDS
        ]
        for variant in (Variant.BFGS, Variant.BFGS_E)
    }


def _budget_jobs():
    problem = registry_lookup("ARWHEAD")
    return {
        (variant.value, xi_g): [
            (
                problem,
                NoiseSpec(xi_f=0.0, xi_g=xi_g, seed=seed),
                SolverConfig(variant=variant, max_iters=20000, g_eval_budget=3000),
            )
            for seed in SEEDS
        ]
        for xi_g in (1e-1, 1e-3, 1e-5)
        for variant in (Variant.BFGS, Variant.BFGS_E, Variant.LBFGS, Variant.LBFGS_E)
    }


def _intermittent_jobs():
    problem = registry_lookup("CRAGGLVY")
    return {
        variant.value: [
            (
                problem,
                NoiseSpec(
                    xi_f=0.0,
                    xi_g=1e-1,
                    schedule="intermittent",
                    n_noise=50,
                    noise_phase="noisy",
                    seed=seed,
                ),
                SolverConfig(variant=variant, max_iters=1000),
            )
            for seed in SEEDS
        ]
        for variant in (Variant.BFGS, Variant.BFGS_E, Variant.LBFGS)
    }


RUN_SETS = {
    "kappa_maxima": _kappa_jobs,
    "budget_traces": _budget_jobs,
    "intermittent_traces": _intermittent_jobs,
}


class PooledRuns:
    """The run sets without an observer, computed in spawned worker
    processes, as ``bench.run_experiment`` uses them (numpy's BLAS threads
    make fork unsafe).  ``conftest.py`` starts the run sets of the collected
    tests when collection ends, so that they compute while the other test
    modules run, and closes the pool when the session ends."""

    def __init__(self):
        self._pool = None
        self._submitted = {}  # run set -> {key: [(spec, future)]}

    def pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = min(4, os.cpu_count() or 1)
            self._pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
        return self._pool

    def start(self, names):
        """Submit each run set among ``names`` once, in test order."""
        for name in RUN_SETS:
            if name in names and name not in self._submitted:
                self._submitted[name] = {
                    key: [
                        (spec, self.pool().submit(_run_in_worker, problem, spec, config))
                        for problem, spec, config in jobs
                    ]
                    for key, jobs in RUN_SETS[name]().items()
                }

    def traces(self, name):
        """Run set ``name``'s traces by key, in the order of its jobs, each
        registered for the noise audit."""
        self.start([name])
        return {
            key: [audited(future.result(), spec) for spec, future in runs]
            for key, runs in self._submitted[name].items()
        }

    def close(self):
        """Shut the pool down, cancelling runs that no test waited for."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


POOLED = PooledRuns()


@pytest.fixture
def report(capsys):
    """Print the canonical per-criterion verdict line, then assert it."""

    def _report(n: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"acceptance criterion {n}: {detail}"

    return _report


# --------------------------------------------------------------------------
# shared run sets


@pytest.fixture(scope="module")
def equivalence_runs():
    """Noiseless 200-iteration runs of both variant pairs, on every registry
    problem: each run's records (their repr, which tells every float's bits
    apart, -0.0 from 0.0 included) and the bytes of its final iterate."""
    runs = {}
    for prob_name in EQUIVALENCE_PROBLEMS:
        problem = registry_lookup(prob_name)
        for variant in (Variant.BFGS, Variant.BFGS_E, Variant.LBFGS, Variant.LBFGS_E):
            trace = tracked_run(problem, NoiseSpec(), SolverConfig(variant=variant, max_iters=200))
            runs[prob_name, variant.value] = (repr(trace.records), trace.final_x.tobytes())
    return runs


@pytest.fixture(scope="module")
def quad_pair_data():
    """Noise-tolerant runs on QUAD(50,1,100), xi_g = 1e-3, 500 iterations.

    Collects, for every stored curvature pair, the inner products needed by
    the curvature-bound checks (with the noise-free gradient difference
    recomputed over the same interval), and the per-iteration
    cos(angle between -p and the observed gradient) for the limited-memory
    runs, restricted to iterations after the first stored pair.
    """
    problem = registry_lookup("QUAD(50,1,100)")
    pair_rows: list[tuple[float, float, float, float]] = []
    cos_rows: list[float] = []
    for variant in (Variant.BFGS_E, Variant.LBFGS_E):
        for seed in SEEDS:
            run_cos: list[tuple[int, float]] = []
            first_pair_k = [None]

            def obs(ctx, run_cos=run_cos, first_pair_k=first_pair_k):
                gp = float(ctx.search.g_x @ ctx.search.p)
                denom = float(np.linalg.norm(ctx.search.g_x) * np.linalg.norm(ctx.search.p))
                if denom > 0.0:
                    run_cos.append((ctx.record.k, -gp / denom))
                if ctx.pair is not None:
                    y_true = problem.eval_g(
                        ctx.search.x + ctx.record.beta * ctx.search.p
                    ) - problem.eval_g(ctx.search.x)
                    pair_rows.append(
                        (
                            ctx.pair.sy,
                            float(ctx.pair.s @ ctx.pair.s),
                            float(ctx.pair.y @ ctx.pair.y),
                            float(ctx.pair.s @ y_true),
                        )
                    )
                    if first_pair_k[0] is None:
                        first_pair_k[0] = ctx.record.k

            tracked_run(
                problem,
                NoiseSpec(xi_f=0.0, xi_g=1e-3, seed=seed),
                SolverConfig(variant=variant, max_iters=500),
                observer=obs,
            )
            if variant is Variant.LBFGS_E and first_pair_k[0] is not None:
                cos_rows.extend(c for k, c in run_cos if k > first_pair_k[0])
    return {"pairs": pair_rows, "cos": cos_rows, "dim": problem.dim}


@pytest.fixture(scope="module")
def kappa_maxima():
    """Max condition number of H along 1000-iteration ARWHEAD runs."""
    return {
        variant: [max(r.kappa_H for r in trace.records if r.kappa_H) for trace in traces]
        for variant, traces in POOLED.traces("kappa_maxima").items()
    }


@pytest.fixture(scope="module")
def budget_traces():
    """ARWHEAD runs capped at 3000 gradient evaluations, three noise levels."""
    return POOLED.traces("budget_traces")


@pytest.fixture(scope="module")
def intermittent_traces():
    """CRAGGLVY runs with gradient noise toggling every 50 iterations."""
    return POOLED.traces("intermittent_traces")


# --------------------------------------------------------------------------
# criteria


def test_criterion_01_noiseless_equivalence(equivalence_runs, report):
    # Both variants of a pair run the same search at zero bounds, so the
    # tolerant run is its standard twin bit for bit.
    pairs = [
        (prob_name, std, tolerant)
        for prob_name in EQUIVALENCE_PROBLEMS
        for std, tolerant in (("bfgs", "bfgs-e"), ("lbfgs", "lbfgs-e"))
    ]
    differ = [
        f"{prob_name}/{tolerant}"
        for prob_name, std, tolerant in pairs
        if equivalence_runs[prob_name, std] != equivalence_runs[prob_name, tolerant]
    ]
    report(
        1,
        not differ,
        f"{len(pairs)} run pairs, records and final iterates "
        + (f"differ: {differ}" if differ else "bit-identical"),
    )


def test_criterion_02_quadratic_curvature_bounds(quad_pair_data, report):
    rows = quad_pair_data["pairs"]
    low = min(sy / ss for sy, ss, _, _ in rows)
    high = max(yy / sy for sy, _, yy, _ in rows)
    sandwich_lo = min(sy - SANDWICH_LO * sty for sy, _, _, sty in rows)
    sandwich_hi = min(SANDWICH_HI * sty - sy for sy, _, _, sty in rows)
    ok = (
        low >= M_LOW
        and high <= M_HAT
        and sandwich_lo >= 0.0
        and sandwich_hi >= 0.0
    )
    report(
        2,
        ok,
        f"{len(rows)} pairs: min s.y/s.s {low:.3f} (>= {M_LOW}), "
        f"max y.y/s.y {high:.1f} (<= {M_HAT:.0f}), "
        f"sandwich margins {sandwich_lo:.2e}/{sandwich_hi:.2e} (>= 0)",
    )


def test_criterion_03_cos_theta_floor(quad_pair_data, report):
    cos_rows = quad_pair_data["cos"]
    d, t = quad_pair_data["dim"], 10
    # exp of the floor underflows to zero, so the check lives in log space;
    # any representable positive cosine clears it, which is the point: the
    # assertion guards the sign of g.p and the gamma scaling, not tightness.
    log_floor = -(d + t) * (M_HAT - math.log(M_LOW))
    all_positive = all(c > 0.0 for c in cos_rows)
    min_log = min(math.log(c) for c in cos_rows) if all_positive else -math.inf
    ok = bool(cos_rows) and all_positive and min_log >= log_floor
    report(
        3,
        ok,
        f"{len(cos_rows)} iterations: min cos {min(cos_rows):.3e}, "
        f"min log-cos {min_log:.2f} vs floor {log_floor:.2f}",
    )


def test_criterion_04_condition_number_separation(kappa_maxima, report):
    med_std = float(np.median(kappa_maxima["bfgs"]))
    med_tol = float(np.median(kappa_maxima["bfgs-e"]))
    ratio = med_std / med_tol
    ok = ratio >= 1e2
    report(
        4,
        ok,
        f"median max cond(H): {med_std:.2e} vs {med_tol:.2e}, "
        f"ratio {ratio:.1e} (need >= 1e2)",
    )


def test_criterion_05_final_gap_separation(budget_traces, report):
    cells = []
    ok = True
    for xi_g in (1e-1, 1e-3, 1e-5):
        for std, tolerant in (("bfgs", "bfgs-e"), ("lbfgs", "lbfgs-e")):
            med_std = float(np.median([t.final_gap for t in budget_traces[std, xi_g]]))
            med_tol = float(
                np.median([t.final_gap for t in budget_traces[tolerant, xi_g]])
            )
            ratio = med_tol / med_std
            ok = ok and ratio <= 0.1
            cells.append(f"{tolerant}@{xi_g:g}={ratio:.1e}")
    report(5, ok, "median-gap ratios (need <= 0.1): " + ", ".join(cells))


def test_criterion_06_split_phase_cost(budget_traces, report):
    means = []
    missing = 0
    for (variant, _), traces in budget_traces.items():
        if Variant(variant).noise_tolerant:
            for trace in traces:
                k0 = trace.first_split_iteration
                if k0 is None:
                    missing += 1
                    continue
                start = next(i for i, r in enumerate(trace.records) if r.k == k0)
                before = trace.records[start - 1].cum_g_evals if start else 0
                span = len(trace.records) - start
                means.append((trace.records[-1].cum_g_evals - before) / span)
    ok = missing == 0 and all(2.0 <= m <= 6.0 for m in means)
    report(
        6,
        ok,
        f"post-split gradient evals/iteration over {len(means)} runs: "
        f"min {min(means):.2f}, max {max(means):.2f} (need within [2, 6]); "
        f"{missing} runs never split",
    )


def test_criterion_07_two_loop_matches_dense(report):
    rng = np.random.default_rng(716)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 21))
        t = int(rng.integers(1, 11))
        count = int(rng.integers(1, t + 1))
        memory = LimitedMemory(t)
        pairs = []
        for _ in range(count):
            s = rng.standard_normal(d)
            y = rng.standard_normal(d)
            # shift y along s until the pair has solidly positive curvature
            y += s * (abs(float(s @ y)) / float(s @ s) + rng.uniform(0.5, 1.5))
            pair = CurvaturePair(s, y)
            memory.push(pair)
            pairs.append(pair)
        dense = SymmetricMatrix(memory.gamma * np.eye(d))
        for pair in pairs:
            bfgs_inverse_update(dense, pair)
        g = rng.standard_normal(d)
        want = dense.matvec(g)
        got = two_loop_direction(memory, g)
        worst = max(
            worst, float(np.linalg.norm(got - want) / np.linalg.norm(want))
        )
    ok = worst <= 1e-10
    report(7, ok, f"100 cases, worst relative error {worst:.2e} (bound 1e-10)")


def test_criterion_08_gradient_checks(report):
    worst = 0.0
    worst_name = ""
    for name in registered_names():
        if name.startswith("QUAD("):
            continue  # parameterized family, covered by its own unit tests
        problem = registry_lookup(name)
        rng = np.random.default_rng(8)
        points = [problem.x0] + [
            problem.x0 + 0.1 * rng.standard_normal(problem.dim) for _ in range(5)
        ]
        for x in points:
            err = check_gradient(problem, x)
            if err > worst:
                worst, worst_name = err, name
    ok = worst <= 1e-6
    report(8, ok, f"worst relative error {worst:.2e} on {worst_name} (bound 1e-6)")


def test_criterion_09_intermittent_noise(intermittent_traces, report):
    med_std = float(
        np.median([t.final_gap for t in intermittent_traces["bfgs"]])
    )
    med_tol = float(
        np.median([t.final_gap for t in intermittent_traces["bfgs-e"]])
    )
    ratio = med_tol / med_std
    complete = all(len(t.records) == 1000 for t in intermittent_traces["lbfgs"])
    violations = 0
    if complete:
        gaps = np.array(
            [[r.gap for r in t.records] for t in intermittent_traces["lbfgs"]]
        )
        median_path = np.median(gaps, axis=0)
        # noise starts on and toggles every 50, so the clean blocks are
        # [50, 100), [150, 200), ...; the first 10 iterations of each are
        # burn-in for flushing the memory of noisy pairs.
        for block_start in range(50, 1000, 100):
            for k in range(block_start + 11, block_start + 50):
                if median_path[k] > median_path[k - 1]:
                    violations += 1
    ok = ratio <= 0.1 and complete and violations == 0
    report(
        9,
        ok,
        f"median-gap ratio {ratio:.1e} (need <= 0.1); clean-block "
        f"monotonicity violations after burn-in: {violations}",
    )


def test_criterion_10_update_skipping(report):
    e1 = np.zeros(3)
    e1[0] = 1.0
    # boundary semantics: the observed curvature is compared against
    # 2 * eps_g * ||p||; strictly below skips, the boundary itself keeps,
    # and a zero noise bound never skips.
    e2 = np.zeros(3)
    e2[1] = 1.0
    boundary = (
        skip_condition(0.99 * e1, 0.0 * e1, e1, 0.5) is True
        and skip_condition(1.0 * e1, 0.0 * e1, e1, 0.5) is False
        and skip_condition(0.99 * e1 + 100.0 * e2, 0.0 * e1, e1, 0.5) is True
        and skip_condition(0.99 * e1, 0.0 * e1, e1, 0.4) is False
        and skip_condition(1e-300 * e1, 0.0 * e1, e1, 0.0) is False
    )

    problem = registry_lookup("QUAD(50,1,100)")
    held = 0
    updated_while_held = 0

    def obs(ctx):
        nonlocal held, updated_while_held
        if ctx.skip_rule_held:
            held += 1
            if ctx.record.pair_action != "skipped" or ctx.pair is not None:
                updated_while_held += 1

    tracked_run(
        problem,
        NoiseSpec(xi_f=0.0, xi_g=1e-3, seed=3),
        SolverConfig(variant=Variant.BFGS_SKIP, max_iters=300),
        observer=obs,
    )
    ok = boundary and held > 0 and updated_while_held == 0
    report(
        10,
        ok,
        f"boundary semantics {'ok' if boundary else 'BROKEN'}; rule held on "
        f"{held} iterations, updates applied while held: {updated_while_held}",
    )


def test_criterion_11_noise_bounds(
    equivalence_runs,
    quad_pair_data,
    kappa_maxima,
    budget_traces,
    intermittent_traces,
    report,
):
    # the fixture arguments force every shared run set to exist before the
    # audit sweeps the registry
    violations = [
        label
        for label, max_f, max_g, cap_f, cap_g in _NOISE_AUDIT
        if max_f > cap_f or max_g > cap_g * (1.0 + 1e-12)
    ]
    ok = len(_NOISE_AUDIT) >= 100 and not violations
    report(
        11,
        ok,
        f"{len(_NOISE_AUDIT)} runs audited, {len(violations)} bound violations"
        + (f" ({violations[:3]})" if violations else ""),
    )


def test_criterion_12_byte_identical_reruns(tmp_path, monkeypatch, report):
    out = tmp_path / "sweep"

    def snapshot(threads: int) -> dict[str, bytes]:
        monkeypatch.setenv("QN_NOISE_THREADS", str(threads))
        config = ExperimentConfig(
            problems=["ARWHEAD"],
            methods=["bfgs-e", "lbfgs"],
            xi_g=[1e-3],
            seeds=[1, 2, 3, 4],
            max_iters=150,
            out=str(out),
        )
        run_experiment(config)
        return {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }

    serial = snapshot(1)
    parallel = snapshot(8)
    same_names = sorted(serial) == sorted(parallel)
    diffs = [name for name in serial if serial[name] != parallel.get(name)]
    ok = same_names and not diffs and len(serial) >= 9
    report(
        12,
        ok,
        f"{len(serial)} files from serial vs 8-process sweeps: "
        + ("byte-identical" if not diffs else f"differ: {diffs[:3]}"),
    )


def _log_of_zero(x):
    return float(np.log(0.0))  # numpy warns: divide by zero


def test_runtime_warning_in_a_worker_fails():
    """A RuntimeWarning raised inside a pooled run reaches the test as an
    error, as it would in pytest's own process."""
    problem = Problem(
        name="LOG0", x0=np.zeros(1), eval_f=_log_of_zero,
        eval_g=np.zeros_like, phi_star=0.0,
    )
    job = (problem, NoiseSpec(), SolverConfig(variant=Variant.BFGS, max_iters=1))
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        POOLED.pool().submit(_run_in_worker, *job).result()
