"""The benchmark's workloads: what one repeat runs, and the checks on what
it writes.

Every workload goes through a public entry point of the program:
``noisyqn.bench.run_experiment`` for the sweeps and ``noisyqn.cli.main``
for the single runs of ``cragglvy-run``.  Both are looked up on their
module at call time, so a traced run sees them patched.  Inputs are made
from the benchmark seed alone.  This module imports neither numpy nor
noisyqn, so that the set-up probe can import it before it starts timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

WORKLOADS = ("arwhead-budget", "cragglvy-run", "dense-diagnostics")
CLI_WORKLOADS = ("cragglvy-run",)

# Iteration cap of the warm-up pass made before anything is timed.  It
# walks every cell of the workload, so imports, the first BLAS calls and
# the page cache for the output files are warm when timing starts.
WARMUP_ITERS = 3

# Noiseless dense BFGS on QUAD(32,1,1e3) breaks down at iteration k=74 with
# this per-run error.  It is a defect of the program at the commit that
# added the benchmark, counted as a failed run rather than hidden.
KNOWN_FAILURE_PREFIXES = (
    "QUAD(32,1,1e3)_bfgs_xif0_xig0_",
    "QUAD(32,1,1e3)_bfgs-e_xif0_xig0_",
)
KNOWN_FAILURE_ERROR = "ValueError: symmetric matrix entries must be finite"


def noise_seeds(seed: int, count: int) -> list[int]:
    """``count`` noise seeds for benchmark seed ``seed``, disjoint across
    benchmark seeds."""
    return [seed * count + i for i in range(count)]


def plan(workload: str, seed: int, out: Path, warmup: bool = False) -> list[dict]:
    """``ExperimentConfig`` keyword arguments, one dict per entry-point call."""
    if workload == "arwhead-budget":
        calls = [
            dict(
                problems=["ARWHEAD"],
                methods=["bfgs", "bfgs-e", "lbfgs", "lbfgs-e"],
                xi_f=[0.0],
                xi_g=[1e-1, 1e-3, 1e-5],
                # Two noise seeds: with one, the oracle calls per iteration
                # of the 12 cells swing by 7% from seed to seed.
                seeds=noise_seeds(seed, 2),
                g_eval_budget=3000,
                max_iters=20000,
            )
        ]
    elif workload == "cragglvy-run":
        calls = [
            dict(
                problems=["CRAGGLVY"],
                methods=[method],
                xi_f=[1e-3],
                xi_g=[1e-1],
                schedule="intermittent",
                n_noise=50,
                seeds=[noise_seed],
                max_iters=1000,
            )
            for method in ("bfgs", "bfgs-e", "lbfgs-e")
            for noise_seed in noise_seeds(seed, 2)
        ]
    elif workload == "dense-diagnostics":
        # One sweep, so the long Jacobi cells and the short ARWHEAD
        # cells share the pool: the slowest cell sets the sweep's time.
        # 80 iterations leave room for the known failure at k=74.
        calls = [
            dict(
                problems=["QUAD(32,1,1e3)", "ARWHEAD"],
                methods=["bfgs", "bfgs-e"],
                xi_g=[0.0, 1e-3],
                seeds=noise_seeds(seed, 1),
                diagnostics=True,
                max_iters=80,
            )
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for index, call in enumerate(calls):
        if warmup:
            call["max_iters"] = WARMUP_ITERS
        call["out"] = str(out / f"{index:02d}")
    return calls


def cli_argv(call: dict) -> list[str]:
    """The ``qn-noise run`` arguments equivalent to one single-cell call."""
    (problem,), (method,), (seed,) = call["problems"], call["methods"], call["seeds"]
    (xi_f,), (xi_g,) = call["xi_f"], call["xi_g"]
    return [
        "run", "--problem", problem, "--method", method,
        "--xi-f", repr(xi_f), "--xi-g", repr(xi_g),
        "--schedule", call["schedule"], "--n-noise", str(call["n_noise"]),
        "--max-iters", str(call["max_iters"]), "--seed", str(seed),
        "--out", call["out"],
    ]


def execute(nq, workload: str, calls: list[dict]) -> tuple[float, list[tuple[int | None, dict]]]:
    """Run one repeat: (wall seconds inside the entry points, [(exit code,
    summary)] per call).  Sweeps have no exit code."""
    wall = 0.0
    results = []
    for call in calls:
        if workload in CLI_WORKLOADS:
            argv = cli_argv(call)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                code = nq.cli.main(argv)
                wall += time.perf_counter() - start
        else:
            config = nq.bench.ExperimentConfig(**call)
            start = time.perf_counter()
            nq.bench.run_experiment(config)
            wall += time.perf_counter() - start
            code = None
        summary = json.loads((Path(call["out"]) / "summary.json").read_text())
        results.append((code, summary))
    return wall, results


def is_known_failure(key: str, error: str) -> bool:
    return error == KNOWN_FAILURE_ERROR and key.startswith(KNOWN_FAILURE_PREFIXES)


def failures(code: int | None, summary: dict) -> tuple[int, list[str]]:
    """(runs that failed, descriptions of the failures not known at the
    baseline) for one entry-point call.  A run fails when it ends in a
    per-run error or with termination reason ``numerical_failure``."""
    failed = len(summary["errors"])
    unexpected = [
        f"{key}: {error}"
        for key, error in summary["errors"].items()
        if not is_known_failure(key, error)
    ]
    for key, entry in summary["runs"].items():
        if entry["termination_reason"] == "numerical_failure":
            failed += 1
            unexpected.append(f"{key}: numerical_failure")
    if code is not None and code != (3 if summary["errors"] else 0):
        unexpected.append(f"exit code {code}")
    return failed, unexpected


def tally(results: list[tuple[int | None, dict]]) -> dict:
    """Counts over every cell of one repeat."""
    counts = dict(cells=0, failed_runs=0, unexpected=0, iterations=0, f_evals=0, g_evals=0)
    for code, summary in results:
        failed, unexpected = failures(code, summary)
        counts["cells"] += len(summary["runs"]) + len(summary["errors"])
        counts["failed_runs"] += failed
        counts["unexpected"] += len(unexpected)
        for entry in summary["runs"].values():
            counts["iterations"] += entry["iterations"]
            counts["f_evals"] += entry["f_evals"]
            counts["g_evals"] += entry["g_evals"]
    return counts


def _separated_seeds(results, standard: str, tolerant: str) -> dict[float, tuple[int, int]]:
    """Per xi_g: (noise seeds on which ``tolerant`` ends at most 0.1 times
    ``standard``'s final gap, noise seeds on which both finished)."""
    gaps: dict[tuple, dict[str, float]] = {}
    for _, summary in results:
        for entry in summary["runs"].values():
            cell = tuple(entry[axis] for axis in ("problem", "xi_f", "xi_g", "omega", "seed"))
            gaps.setdefault(cell, {})[entry["method"]] = entry["final_gap"]
    counts: dict[float, tuple[int, int]] = {}
    for (_, _, xi_g, _, _), by_method in gaps.items():
        if standard in by_method and tolerant in by_method:
            separated, paired = counts.get(xi_g, (0, 0))
            separated += by_method[tolerant] <= 0.1 * by_method[standard]
            counts[xi_g] = (separated, paired + 1)
    return counts


def _separation(results, pairs, xi_gs, share: float) -> list[str]:
    """At each gradient-noise level, each tolerant method must end at most
    0.1 times its standard method's final gap on at least ``share`` of the
    noise seeds.

    Per seed, not over pooled gaps.  With ``share`` 1 the check implies
    criterion 5's pooled-median form.  On a nonconvex problem both methods
    of a seed now and then stop near the same other stationary point (on
    CRAGGLVY, 3 noise seeds in 200 end both at a gap of 3.87); ``share``
    0.5 asks that the lower median of the per-seed gap ratio be at most 0.1,
    which such a seed cannot decide alone.
    """
    problems = []
    for standard, tolerant in pairs:
        counts = _separated_seeds(results, standard, tolerant)
        for xi_g in xi_gs:
            separated, paired = counts.get(xi_g, (0, 0))
            if not paired:
                problems.append(f"{standard}/{tolerant} at xi_g={xi_g:g}: no finished runs")
            elif separated < share * paired:
                problems.append(
                    f"{tolerant} ends at most 0.1 x {standard}'s final gap on only "
                    f"{separated} of {paired} noise seeds at xi_g={xi_g:g}"
                )
    return problems


def check(workload: str, calls: list[dict], results: list[tuple[int | None, dict]]) -> list[str]:
    """Problems found in one repeat's outputs; empty when they are correct."""
    problems = []
    for call, (code, summary) in zip(calls, results):
        where = f"call {Path(call['out']).name}"
        cells = len(summary["runs"]) + len(summary["errors"])
        expected = 1
        for axis in ("problems", "methods", "xi_f", "xi_g", "omega", "seeds"):
            expected *= len(call.get(axis, [None]))
        if cells != expected:
            problems.append(f"{where}: {cells} cells in summary.json, expected {expected}")
        problems += [f"{where}: {text}" for text in failures(code, summary)[1]]
    if workload == "arwhead-budget":
        # ARWHEAD separates on every noise seed: per-seed gap ratios of at
        # most 0.0091 over noise seeds 0..39.
        problems += _separation(
            results, (("bfgs", "bfgs-e"), ("lbfgs", "lbfgs-e")), (1e-1, 1e-3, 1e-5), share=1.0
        )
    elif workload == "cragglvy-run":
        problems += _separation(results, (("bfgs", "bfgs-e"),), (1e-1,), share=0.5)
    elif workload == "dense-diagnostics":
        for call, (_, summary) in zip(calls, results):
            for key in summary["runs"]:
                header, *rows = (Path(call["out"]) / f"{key}.csv").read_text().splitlines()
                column = header.split(",").index("kappa_H")
                if not any(row.split(",")[column] for row in rows):
                    problems.append(f"{key}: no kappa_H in any row with diagnostics on")
    return problems


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def compare_trees(a: Path, b: Path) -> list[str]:
    """Files that differ between two output trees (or exist in one only)."""
    da, db = tree_digests(a), tree_digests(b)
    if not da:
        return [f"{a}: no output files"]
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))
