"""Self-tests of the benchmark's tracing harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

import workloads
from run import END_TO_END
from tracing import PER_LAYER, PatchSet, Tracer, instrument, per_layer_metrics
from worker import SRC, count_problems

ROOT = Path(__file__).resolve().parent.parent


class ScriptedClock:
    """A clock that reads whatever time the test last set."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_nested_call_tree():
    # root [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3], c holds b [6, 8]
    clock = ScriptedClock()
    tracer = Tracer(clock)
    events = [
        (0, "enter", "root"), (1, "enter", "a"), (2, "enter", "b"), (3, "exit", "b"),
        (4, "exit", "a"), (5, "enter", "c"), (6, "enter", "b"), (8, "exit", "b"),
        (9, "exit", "c"), (10, "exit", "root"),
    ]
    open_frames = {}
    for time, action, name in events:
        clock.now = float(time)
        if action == "enter":
            open_frames[name] = tracer.enter(name)
        else:
            tracer.exit(open_frames.pop(name))
    stats = tracer.stats
    assert (stats["root"].calls, stats["root"].total, stats["root"].self_time) == (1, 10.0, 3.0)
    assert (stats["a"].total, stats["a"].self_time) == (3.0, 2.0)
    assert (stats["c"].total, stats["c"].self_time) == (4.0, 2.0)
    assert (stats["b"].calls, stats["b"].total, stats["b"].self_time) == (2, 3.0, 3.0)
    assert tracer.edges["a", "b"].total == 1.0
    assert tracer.edges["c", "b"].total == 2.0
    assert ("root", "b") not in tracer.edges
    # self times add up to the root's duration
    assert sum(s.self_time for s in stats.values()) == stats["root"].total


def test_wrapped_calls_nest_and_keep_durations_of_calls_that_raise():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_failing = tracer.wrap("failing", failing, keep=True)

    def outer():
        clock.now += 1.0
        traced_leaf()
        with pytest.raises(ValueError):
            traced_failing()

    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"].self_time == 1.0
    assert tracer.stats["outer"].total == 4.0
    assert tracer.durations["failing"] == [1.0]


def test_worker_thread_spans_are_children_of_the_opening_thread():
    clock = ScriptedClock()
    tracer = Tracer(clock)
    sweep = tracer.enter("sweep")

    def cell():
        frame = tracer.enter("cell")
        clock.now += 5.0
        tracer.exit(frame)

    worker = threading.Thread(target=cell)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now += 1.0
    tracer.exit(sweep)
    assert tracer.stats["sweep"].self_time == 1.0
    assert tracer.edges["sweep", "cell"].calls == 1


def test_patch_set_restores_even_when_the_block_raises():
    class Owner:
        def method(self):
            return "original"

    original = Owner.__dict__["method"]
    patches = PatchSet()
    patches.add(Owner, "method", lambda f: lambda self: "patched")
    with pytest.raises(KeyError):
        with patches:
            assert Owner().method() == "patched"
            raise KeyError("inside")
    assert Owner.__dict__["method"] is original
    assert Owner().method() == "original"


@pytest.fixture(scope="module")
def nq():
    sys.path.insert(0, str(SRC))
    import noisyqn
    import noisyqn.cli  # noqa: F401 - binds noisyqn.cli

    return noisyqn


def _patched_targets(nq) -> dict[tuple[str, str], object]:
    targets = {}
    for owner in (nq.bench, nq.cli, nq.solver, nq.linalg.SymmetricMatrix,
                  nq.linalg.LimitedMemory, nq.noise.NoisyOracle):
        for attr, value in vars(owner).items():
            if callable(value):
                targets[owner.__name__, attr] = value
    return targets


def test_traced_run_restores_every_name_and_counts_match(nq, tmp_path, monkeypatch):
    monkeypatch.setenv("QN_NOISE_THREADS", "1")
    before = _patched_targets(nq)
    tracer = Tracer()
    small = dict(max_iters=5)
    calls = [dict(c, **small) for c in workloads.plan("dense-diagnostics", 1, tmp_path / "t")]
    cli_calls = [dict(c, **small)
                 for c in workloads.plan("cragglvy-run", 1, tmp_path / "c")][:2]
    with instrument(nq, tracer):
        wall, results = workloads.execute(nq, "dense-diagnostics", calls)
        cli_wall, cli_results = workloads.execute(nq, "cragglvy-run", cli_calls)
    assert _patched_targets(nq) == before
    spans = sum(s.calls for s in tracer.stats.values())
    workloads.execute(nq, "dense-diagnostics",
                      workloads.plan("dense-diagnostics", 1, tmp_path / "u", warmup=True))
    assert sum(s.calls for s in tracer.stats.values()) == spans
    assert count_problems(tracer, results + cli_results) == []
    metrics = per_layer_metrics(tracer, wall + cli_wall, wall, wall)
    assert [name for name, _ in PER_LAYER] == list(metrics)
    assert metrics["bench.cells"] == 8 + 2
    assert metrics["cli.overhead_ms"] > 0.0
    assert metrics["linalg.eigen_calls"] > 0


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _gap_runs(gaps: dict[tuple[str, int], float]) -> list:
    runs = {
        f"{method}_seed{seed}": dict(problem="CRAGGLVY", xi_f=1e-3, xi_g=0.1, omega=1.0,
                                     seed=seed, method=method, final_gap=gap)
        for (method, seed), gap in gaps.items()
    }
    return [(0, {"runs": runs, "errors": {}})]


def test_separation_is_taken_seed_by_seed():
    pair = (("bfgs", "bfgs-e"),)
    # Noise seed 51 on CRAGGLVY: both methods stop near the same other
    # stationary point.  A median of two pooled gaps fails on it.
    trapped = _gap_runs({("bfgs", 50): 4.8e-4, ("bfgs-e", 50): 2.7e-5,
                         ("bfgs", 51): 3.8722, ("bfgs-e", 51): 3.8717})
    assert workloads._separation(trapped, pair, (0.1,), share=0.5) == []
    assert workloads._separation(trapped, pair, (0.1,), share=1.0) == [
        "bfgs-e ends at most 0.1 x bfgs's final gap on only 1 of 2 noise seeds at xi_g=0.1"
    ]
    no_gain = _gap_runs({("bfgs", 50): 4.8e-4, ("bfgs-e", 50): 2.7e-4,
                         ("bfgs", 51): 3.8722, ("bfgs-e", 51): 3.8717})
    assert workloads._separation(no_gain, pair, (0.1,), share=0.5) == [
        "bfgs-e ends at most 0.1 x bfgs's final gap on only 0 of 2 noise seeds at xi_g=0.1"
    ]
    assert workloads._separation(trapped, pair, (1e-3,), share=0.5) == [
        "bfgs/bfgs-e at xi_g=0.001: no finished runs"
    ]
