"""One measurement of the noisyqn benchmark, in a fresh interpreter.

``run.py`` starts this script once per measurement, so that imports are
cold for the set-up probe and the peak memory of the workload process is
its own:

    python3 perfbench/worker.py setup|measure|trace --workload NAME --seed N
        --seconds S --work DIR --result FILE

``noisyqn`` is imported from the checkout's ``src/``; a copy found anywhere
else is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, instrument, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_ENV_VAR = "QN_NOISE_THREADS"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_noisyqn(with_cli: bool):
    sys.path.insert(0, str(SRC))
    import noisyqn

    if with_cli:
        import noisyqn.cli  # noqa: F401 - binds noisyqn.cli
    path = Path(noisyqn.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"noisyqn resolved to {path}, not under {SRC}")
    return noisyqn


def machine(nq) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV_VARS},
        # The program's own resolution of QN_NOISE_THREADS; None if renamed.
        "workers": getattr(nq.bench, "_worker_count", lambda: None)(),
        "noisyqn": str(Path(nq.__file__).resolve().relative_to(ROOT)),
    }


def setup(args) -> dict:
    """Import, build and validate the configs, and construct the problems."""
    start = time.perf_counter()
    nq = load_noisyqn(args.workload in workloads.CLI_WORKLOADS)
    for call in workloads.plan(args.workload, args.seed, args.work):
        config = nq.ExperimentConfig(**call)
        config.validate()
        for name in config.problems:
            nq.registry_lookup(name)
    return {"setup_s": time.perf_counter() - start}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (the kernel reports children as their maximum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(args) -> dict:
    """Untimed warm-up, then repeats of the workload at the program's
    default worker count until ``--seconds`` is used up (at least one)."""
    os.environ.pop(THREADS_ENV_VAR, None)
    nq = load_noisyqn(args.workload in workloads.CLI_WORKLOADS)
    warmup_wall, _ = workloads.execute(
        nq, args.workload, workloads.plan(args.workload, args.seed, args.work / "warmup", True)
    )
    walls: list[float] = []
    problems: list[str] = []
    first = args.work / "repeat0"
    started = time.perf_counter()
    while True:
        out = args.work / f"repeat{len(walls)}"
        calls = workloads.plan(args.workload, args.seed, out)
        wall, results = workloads.execute(nq, args.workload, calls)
        walls.append(wall)
        if out == first:
            counts = workloads.tally(results)
            problems += workloads.check(args.workload, calls, results)
        else:
            problems += [f"repeat {len(walls) - 1} differs: {name}"
                         for name in workloads.compare_trees(first, out)]
            shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(walls) > args.seconds:
            break
    return {
        "walls": walls,
        "warmup_wall": warmup_wall,
        "counts": counts,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine(nq),
    }


def trace(args) -> dict:
    """Untraced serial run, traced serial run, untraced run at the default
    worker count, in that order, in one process.

    All three must write the same bytes.  The third also shows that every
    traced name was restored: the tracer must not see a single call in it.
    """
    nq = load_noisyqn(True)

    def run(name: str, warmup: bool = False):
        calls = workloads.plan(args.workload, args.seed, args.work / name, warmup)
        wall, results = workloads.execute(nq, args.workload, calls)
        return calls, wall, results

    run("warmup", warmup=True)
    os.environ[THREADS_ENV_VAR] = "1"
    serial_calls, serial_wall, serial_results = run("serial")
    tracer = Tracer()
    with instrument(nq, tracer):
        _, traced_wall, traced_results = run("traced")
    spans_after_trace = sum(s.calls for s in tracer.stats.values())
    os.environ.pop(THREADS_ENV_VAR)
    _, default_wall, _ = run("default")

    problems = workloads.check(args.workload, serial_calls, serial_results)
    if sum(s.calls for s in tracer.stats.values()) != spans_after_trace:
        problems.append("an untraced run after the traced one still made spans")
    for name in ("traced", "default"):
        problems += [f"{name} output differs from serial: {diff}"
                     for diff in workloads.compare_trees(args.work / "serial", args.work / name)]
    problems += count_problems(tracer, traced_results)
    return {
        "metrics": per_layer_metrics(tracer, traced_wall, serial_wall, default_wall),
        "counts": workloads.tally(serial_results),
        "problems": problems,
        "machine": machine(nq),
    }


def count_problems(tracer, results) -> list[str]:
    """The oracle calls seen by the tracer must be the evaluation counts
    that the program reports, run by run."""
    problems = []
    for seen_f, seen_g, trace_f, trace_g in tracer.run_checks:
        if (seen_f, seen_g) != (trace_f, trace_g):
            problems.append(
                f"traced noisy_f/noisy_g calls {seen_f}/{seen_g} != "
                f"run counters {trace_f}/{trace_g}"
            )
    reported = sorted(
        (entry["f_evals"], entry["g_evals"])
        for _, summary in results
        for entry in summary["runs"].values()
    )
    seen = sorted((f, g) for f, g, _, _ in tracer.run_checks)
    if reported != seen:
        problems.append(
            f"traced oracle calls per run {seen} != summary.json f_evals/g_evals {reported}"
        )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
