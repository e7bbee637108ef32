"""The noisyqn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics of one workload with
tracing off; with ``--trace 1`` it makes the traced run and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  Each
measurement runs in its own interpreter (``worker.py``).  The outputs are
checked on every run; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 means the run completed and every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("iters_per_s", "1/s"),
    ("f_evals_per_iter", "evals/iter"),
    ("g_evals_per_iter", "evals/iter"),
    ("ok_runs_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Fresh interpreters timed for setup_s, after one untimed one that fills
# the page cache and writes the bytecode; the median is reported.
SETUP_SAMPLES = 7
# Every run must end within this many seconds, workers included.
RUN_DEADLINE_S = 175.0


class BenchmarkError(RuntimeError):
    pass


def run_worker(mode: str, args, work: Path, deadline: float) -> dict:
    result = work / f"{mode}.json"
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work", str(work / mode),
        "--result", str(result),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker passed the run deadline") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{mode} worker exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(result.read_text())


def end_to_end(args, work: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    """(metrics, report, problems) of one untraced measurement."""
    setup = [run_worker("setup", args, work, deadline)["setup_s"]
             for _ in range(SETUP_SAMPLES + 1)][1:]
    shutil.rmtree(work / "setup", ignore_errors=True)
    measured = run_worker("measure", args, work, deadline)
    walls, counts = measured["walls"], measured["counts"]
    wall = statistics.median(walls)
    cells, iterations = counts["cells"], counts["iterations"]
    metrics = {
        "wall_s": wall,
        "iters_per_s": iterations / wall,
        "f_evals_per_iter": counts["f_evals"] / iterations,
        "g_evals_per_iter": counts["g_evals"] / iterations,
        "ok_runs_frac": 1.0 - counts["failed_runs"] / cells,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    samples = {
        "wall_s": f"n={len(walls)} repeats, min {min(walls):.4f}, max {max(walls):.4f}",
        "iters_per_s": f"n={len(walls)} repeats of {iterations} iterations",
        "f_evals_per_iter": f"n={iterations} iterations in {cells} cells",
        "g_evals_per_iter": f"n={iterations} iterations in {cells} cells",
        "ok_runs_frac": f"n={cells} cells",
        "setup_s": f"n={len(setup)} interpreters, min {min(setup):.4f}, max {max(setup):.4f}",
        "peak_rss_mb": "n=1 process",
    }
    report = {
        "machine": measured["machine"],
        "samples": samples,
        "extra": {
            "failed_runs_frac": f"{counts['failed_runs'] / cells:.4f} (n={cells} cells)",
            "warmup_s": f"{measured['warmup_wall']:.4f} (capped at "
            f"{workloads.WARMUP_ITERS} iterations per cell, not counted)",
        },
        "attempted": cells * len(walls),
        "failed": counts["unexpected"] * len(walls),
    }
    return metrics, report, measured["problems"]


def per_layer(args, work: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    traced = run_worker("trace", args, work, deadline)
    counts = traced["counts"]
    report = {
        "machine": traced["machine"],
        "samples": {},
        "extra": {},
        "attempted": counts["cells"],
        "failed": counts["unexpected"],
    }
    return traced["metrics"], report, traced["problems"]


def run_one(args) -> bool:
    """Measure one workload and print its report; True when correct."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, report, problems = measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print(f"# machine {json.dumps(report['machine'], sort_keys=True)}")
    for name, unit in units.items():
        note = report["samples"].get(name, "")
        print(f"{name} = {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, text in report["extra"].items():
        print(f"# {name} = {text}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# checks: {'all passed' if not problems else f'{len(problems)} failed'}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "noisyqn" / "__init__.py").is_file():
        print(f"error: no noisyqn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        args.workload = name
        try:
            correct = run_one(args) and correct
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
