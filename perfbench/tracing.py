"""Outside-in tracing for the noisyqn benchmark.

Spans are recorded by wrapping the public functions of each ``noisyqn``
module for the duration of one traced run, at the name their caller looks
up (``solver.py`` imports ``bfgs_inverse_update`` by name, so the span goes
on ``noisyqn.solver.bfgs_inverse_update``).  Nothing under ``src/`` changes.

Spans are aggregated as they close instead of being kept: a 3000-gradient
ARWHEAD sweep makes close to a million of them.  A span's self time is its
duration minus the time of its child spans.  The traced run executes cells
serially, so the children of a span never overlap.

The layers are the modules: ``problems``, ``noise``, ``linalg``,
``linesearch``, ``solver``, ``bench`` and ``cli``.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import threading
import time
from collections import Counter

# Per-layer metrics in the order they are printed, with their units.
PER_LAYER = (
    ("problems.f_calls", "count"),
    ("problems.g_calls", "count"),
    ("problems.f_us", "us"),
    ("problems.g_us", "us"),
    ("problems.lookup_us", "us"),
    ("problems.self_share", "frac"),
    ("noise.f_calls", "count"),
    ("noise.g_calls", "count"),
    ("noise.f_draw_us", "us"),
    ("noise.g_draw_us", "us"),
    ("noise.self_share", "frac"),
    ("linalg.update_calls", "count"),
    ("linalg.update_us", "us"),
    ("linalg.matvec_us", "us"),
    ("linalg.two_loop_us", "us"),
    ("linalg.eigen_calls", "count"),
    ("linalg.eigen_us", "us"),
    ("linalg.self_share", "frac"),
    ("linesearch.calls", "count"),
    ("linesearch.self_us", "us"),
    ("linesearch.f_trials_per_call", "trials/call"),
    ("linesearch.g_trials_per_call", "trials/call"),
    ("linesearch.split_share", "frac"),
    ("linesearch.failed_share", "frac"),
    ("linesearch.self_share", "frac"),
    ("solver.iterations", "count"),
    ("solver.self_us", "us"),
    ("solver.trace_eval_us", "us"),
    ("solver.pair_update_ratio", "pairs/iter"),
    ("solver.self_share", "frac"),
    ("bench.cells", "count"),
    ("bench.cell_s_p50", "s"),
    ("bench.cell_s_max", "s"),
    ("bench.csv_us", "us"),
    ("bench.csv_bytes", "bytes"),
    ("bench.summary_ms", "ms"),
    ("bench.parallel_speedup", "ratio"),
    ("bench.self_share", "frac"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

LINESEARCH_SPANS = ("linesearch.two_phase", "linesearch.armijo_wolfe")
# Problem evaluations whose parent is one of these are the solver's own
# trace and stop-rule evaluations, not oracle calls.
SOLVER_SPANS = ("solver.iterate", "solver.run")


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Aggregates nested spans per name and per (parent, child) edge.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic call tree.  A span opened on a thread with no open span of
    its own (a sweep's pool worker) is parented to the innermost open span
    of the thread that opened the first span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], SpanStats] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: Counter = Counter()
        self.run_checks: list[tuple[int, int, int, int]] = []
        self._local = threading.local()
        self._anchor: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if self._anchor is None:
                self._anchor = stack
        return stack

    def enter(self, name: str) -> list:
        frame = [name, 0.0, self.clock()]  # name, child time, start
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, child, start = frame
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - child
        parent_stack = stack if stack else self._anchor
        if parent_stack:
            parent = parent_stack[-1]
            parent[1] += duration
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[parent[0], name] = SpanStats()
            edge.calls += 1
            edge.total += duration
        return duration

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def wrap(self, name: str, fn, on_result=None, keep=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(args, kwargs, result)`` runs after the span closes, so
        its cost is not charged to the span.
        """

        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit(frame)
                if keep:
                    self.durations.setdefault(name, []).append(duration)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_of(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def mean_self_us(self, *names: str) -> float:
        calls = sum(self.calls(n) for n in names)
        return 1e6 * self.self_of(*names) / calls if calls else 0.0


class PatchSet:
    """Replace attributes for the length of a ``with`` block, then restore.

    On exit every attribute is checked to be the original object again, so
    an untraced run after a traced one calls the untouched functions.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    def add(self, owner, attr: str, make_replacement) -> None:
        self._patches.append((owner, attr, make_replacement))

    def __enter__(self):
        for owner, attr, make_replacement in self._patches:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make_replacement(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self.verify_restored()
        return False

    def verify_restored(self) -> None:
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._originals
            if owner.__dict__[attr] is not original
        ]
        if stale:
            raise RuntimeError(f"traced names not restored: {', '.join(stale)}")


def instrument(nq, tracer: Tracer) -> PatchSet:
    """Patches that trace every layer of the ``noisyqn`` package ``nq``
    (with ``noisyqn.cli`` imported).

    Problems are wrapped where ``registry_lookup`` hands them out, so every
    ``eval_f``/``eval_g`` call made on a looked-up problem is a span.  The
    benchmark reaches the program through ``bench.run_experiment`` and
    ``cli.main``, looked up at call time, so those are patched as well.
    A cell is timed at ``bench._execute_cell``, which every pool task calls.
    """
    bench, cli, solver, linalg, noise = nq.bench, nq.cli, nq.solver, nq.linalg, nq.noise
    patches = PatchSet()

    def traced_lookup(original):
        def lookup(name):
            problem = original(name)
            return dataclasses.replace(
                problem,
                eval_f=tracer.wrap("problems.f", problem.eval_f),
                eval_g=tracer.wrap("problems.g", problem.eval_g),
            )

        return tracer.wrap("problems.lookup", lookup)

    def count_outcome(args, kwargs, outcome):
        tracer.counters["linesearch.f_trials"] += outcome.f_trials
        tracer.counters["linesearch.g_trials"] += outcome.g_trials
        phase = outcome.phase.value
        tracer.counters["linesearch.split"] += phase != "initial_accepted"
        tracer.counters["linesearch.failed"] += phase in ("alpha_failed", "beta_failed")

    def traced_run(original):
        span = tracer.wrap("solver.run", original)

        def run(*args, **kwargs):
            f0, g0 = tracer.calls("noise.f"), tracer.calls("noise.g")
            trace = span(*args, **kwargs)
            tracer.run_checks.append(
                (
                    tracer.calls("noise.f") - f0,
                    tracer.calls("noise.g") - g0,
                    trace.f_evals,
                    trace.g_evals,
                )
            )
            return trace

        return run

    def count_csv(args, kwargs, result):
        tracer.counters["bench.csv_bytes"] += os.path.getsize(args[0])

    patches.add(cli, "main", lambda f: tracer.wrap("cli.main", f))
    patches.add(cli, "run_experiment", lambda f: tracer.wrap("bench.run_experiment", f))
    patches.add(bench, "run_experiment", lambda f: tracer.wrap("bench.run_experiment", f))
    patches.add(bench, "registry_lookup", traced_lookup)
    patches.add(bench, "run", traced_run)
    patches.add(bench, "_execute_cell", lambda f: tracer.wrap("bench.cell", f, keep=True))
    patches.add(bench, "write_trace_csv", lambda f: tracer.wrap("bench.csv", f, count_csv))
    patches.add(solver, "iterate", lambda f: tracer.wrap("solver.iterate", f))
    patches.add(solver, "two_phase_search",
                lambda f: tracer.wrap("linesearch.two_phase", f, count_outcome))
    patches.add(solver, "armijo_wolfe_search",
                lambda f: tracer.wrap("linesearch.armijo_wolfe", f, count_outcome))
    patches.add(solver, "bfgs_inverse_update", lambda f: tracer.wrap("linalg.update", f))
    patches.add(solver, "two_loop_direction", lambda f: tracer.wrap("linalg.two_loop", f))
    patches.add(solver, "eigen_extremes", lambda f: tracer.wrap("linalg.eigen", f))
    patches.add(linalg.SymmetricMatrix, "matvec", lambda f: tracer.wrap("linalg.matvec", f))
    patches.add(linalg.LimitedMemory, "push", lambda f: tracer.wrap("linalg.push", f))
    patches.add(noise.NoisyOracle, "noisy_f", lambda f: tracer.wrap("noise.f", f))
    patches.add(noise.NoisyOracle, "noisy_g", lambda f: tracer.wrap("noise.g", f))
    return patches


def layer_share(tracer: Tracer, layer: str, wall: float) -> float:
    prefix = layer + "."
    return sum(s.self_time for n, s in tracer.stats.items() if n.startswith(prefix)) / wall


def per_layer_metrics(
    tracer: Tracer, traced_wall: float, serial_wall: float, default_wall: float
) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from one traced run and two untraced
    runs of the same workload (serial and at the default worker count).

    Per-call means of a layer the workload never calls read 0.
    """
    t = tracer
    iterations = t.calls("solver.iterate")
    ls_calls = sum(t.calls(n) for n in LINESEARCH_SPANS)
    trace_eval = sum(
        t.edges[key].total
        for key in t.edges
        if key[0] in SOLVER_SPANS and key[1] in ("problems.f", "problems.g")
    )
    cells = t.durations.get("bench.cell", [])
    sweeps = t.calls("bench.run_experiment")
    cli_calls = t.calls("cli.main")

    def per(numerator: float, count: int) -> float:
        return numerator / count if count else 0.0

    return {
        "problems.f_calls": t.calls("problems.f"),
        "problems.g_calls": t.calls("problems.g"),
        "problems.f_us": t.mean_self_us("problems.f"),
        "problems.g_us": t.mean_self_us("problems.g"),
        "problems.lookup_us": t.mean_self_us("problems.lookup"),
        "problems.self_share": layer_share(t, "problems", traced_wall),
        "noise.f_calls": t.calls("noise.f"),
        "noise.g_calls": t.calls("noise.g"),
        "noise.f_draw_us": t.mean_self_us("noise.f"),
        "noise.g_draw_us": t.mean_self_us("noise.g"),
        "noise.self_share": layer_share(t, "noise", traced_wall),
        "linalg.update_calls": t.calls("linalg.update"),
        "linalg.update_us": t.mean_self_us("linalg.update"),
        "linalg.matvec_us": t.mean_self_us("linalg.matvec"),
        "linalg.two_loop_us": t.mean_self_us("linalg.two_loop"),
        "linalg.eigen_calls": t.calls("linalg.eigen"),
        "linalg.eigen_us": t.mean_self_us("linalg.eigen"),
        "linalg.self_share": layer_share(t, "linalg", traced_wall),
        "linesearch.calls": ls_calls,
        "linesearch.self_us": t.mean_self_us(*LINESEARCH_SPANS),
        "linesearch.f_trials_per_call": per(t.counters["linesearch.f_trials"], ls_calls),
        "linesearch.g_trials_per_call": per(t.counters["linesearch.g_trials"], ls_calls),
        "linesearch.split_share": per(t.counters["linesearch.split"], ls_calls),
        "linesearch.failed_share": per(t.counters["linesearch.failed"], ls_calls),
        "linesearch.self_share": layer_share(t, "linesearch", traced_wall),
        "solver.iterations": iterations,
        "solver.self_us": t.mean_self_us("solver.iterate"),
        "solver.trace_eval_us": per(1e6 * trace_eval, iterations),
        "solver.pair_update_ratio": per(
            t.calls("linalg.update") + t.calls("linalg.push"), iterations
        ),
        "solver.self_share": layer_share(t, "solver", traced_wall),
        "bench.cells": len(cells),
        "bench.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "bench.cell_s_max": max(cells, default=0.0),
        "bench.csv_us": t.mean_self_us("bench.csv"),
        "bench.csv_bytes": t.counters["bench.csv_bytes"],
        "bench.summary_ms": per(1e3 * t.self_of("bench.run_experiment"), sweeps),
        "bench.parallel_speedup": serial_wall / default_wall,
        "bench.self_share": layer_share(t, "bench", traced_wall),
        "cli.overhead_ms": per(1e3 * t.self_of("cli.main"), cli_calls),
        "trace.overhead_frac": traced_wall / serial_wall - 1.0,
    }
