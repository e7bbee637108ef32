"""The pairing and the ratio arithmetic of ``scripts/paired_cells.py``, on a
stub workload whose cell times are fixed (real interpreters take minutes and
are not started here)."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "paired_cells.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("paired_cells", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubSide:
    """A side whose cell c takes ``times[c]`` seconds; every call is logged
    as (side, cell) into the shared ``log``."""

    def __init__(self, name, times, log):
        self.name, self.times, self.log = name, times, log

    def __call__(self, cell):
        self.log.append((self.name, cell))
        return self.times[cell]


def test_order_swaps_every_cell_and_every_round(tool):
    log = []
    base = StubSide("base", [1.0, 1.0, 1.0], log)
    new = StubSide("new", [1.0, 1.0, 1.0], log)
    pairs = tool.time_pairs(base, new, rounds=2, count=3)
    assert [(p["round"], p["cell"]) for p in pairs] == [(r, c) for r in range(2) for c in range(3)]
    firsts = [log[i][0] for i in range(0, len(log), 2)]
    assert firsts == ["base", "new", "base", "new", "base", "new"]
    # both sides time the same cell back to back
    assert all(log[i][1] == log[i + 1][1] for i in range(0, len(log), 2))
    assert [p["base_first"] for p in pairs] == [f == "base" for f in firsts]


def test_schedule_balances_the_order_per_cell(tool):
    """Over an even number of rounds each cell goes first on each side
    equally often."""
    for count in (1, 2, 5):
        order = tool.schedule(4, count)
        for cell in range(count):
            firsts = [base_first for _, c, base_first in order if c == cell]
            assert firsts.count(True) == firsts.count(False) == 2


def test_ratio_arithmetic(tool):
    """Cell ratios 0.5, 0.8, 1.0 and 2.0: median 0.9, inclusive quartiles
    0.725 and 1.25, two cells faster, sums 6.5 / 8.0."""
    base = StubSide("base", [2.0, 5.0, 0.5, 0.5], [])
    new = StubSide("new", [1.0, 4.0, 0.5, 1.0], [])
    summary = tool.summarize(tool.time_pairs(base, new, rounds=1, count=4))
    assert summary["pairs"] == 4
    assert summary["median_ratio"] == pytest.approx(0.9)
    assert summary["quartiles"] == pytest.approx([0.725, 1.25])
    assert summary["new_faster"] == 2
    assert summary["total_ratio"] == pytest.approx(6.5 / 8.0)


def test_workload_splits_into_one_cell_configs(tool, tmp_path):
    """arwhead-budget's one sweep is 24 cells, each a config of its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        found = tool.cells("arwhead-budget", 1, tmp_path, warmup=False)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from noisyqn.bench import ExperimentConfig

    assert len(found) == 24
    assert len({call["out"] for call in found}) == 24
    keys = set()
    for call in found:
        (cell,) = ExperimentConfig(**call).run_matrix()
        keys.add((cell["method"], cell["xi_g"], cell["seed"]))
        assert call["g_eval_budget"] == 3000
    assert len(keys) == 24
