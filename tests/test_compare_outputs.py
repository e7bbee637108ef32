"""The report of ``scripts/compare_outputs.py`` on two small hand-made
output trees (the builds themselves take minutes and are not run here)."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def summary(errors: dict) -> str:
    return json.dumps({"runs": {}, "errors": errors})


TRACE = "k,gap,pair_action\n0,1.5,updated\n1,0.25,skipped\n"
BASE = {
    "golden/A.csv": TRACE,
    "golden/B.csv": TRACE,
    "golden/summary.json": summary({"A_seed1": "ValueError: bad"}),
    "matrix/gone.csv": TRACE,
}


def test_identical_trees(tool, tmp_path):
    base = write_tree(tmp_path / "base", BASE)
    new = write_tree(tmp_path / "new", BASE)
    lines, identical = tool.compare(base, new)
    assert identical
    assert lines == [
        "identical: 4 files",
        "changed: 0 files",
        "added: 0 files",
        "removed: 0 files",
        "per-run errors: 1 at base, 1 now",
        "identical",
    ]


def test_changes_are_reported(tool, tmp_path):
    base = write_tree(tmp_path / "base", BASE)
    new_files = dict(BASE)
    del new_files["matrix/gone.csv"]
    new_files["matrix/new.csv"] = TRACE
    new_files["golden/B.csv"] = "k,gap,pair_action\n0,1.5,lengthened\n1,0.2,skipped\n2,0.1,x\n"
    new_files["golden/summary.json"] = summary(
        {"A_seed1": "ValueError: worse", "B_seed1": "TypeError: new"}
    )
    new = write_tree(tmp_path / "new", new_files)
    lines, identical = tool.compare(base, new)
    assert not identical
    assert lines == [
        "identical: 1 files",
        "changed: 2 files",
        "  golden/B.csv",
        "    rows: 2 -> 3",
        "    gap: largest relative change 0.2",
        "    pair_action: 1 non-numeric cells differ",
        "  golden/summary.json",
        "    error changed: A_seed1: ValueError: bad -> ValueError: worse",
        "    error new: B_seed1: TypeError: new",
        "added: 1 files",
        "  matrix/new.csv",
        "removed: 1 files",
        "  matrix/gone.csv",
        "per-run errors: 1 at base, 2 now",
        "outputs differ",
    ]


def test_termination_reasons_are_counted_per_output_set(tool, tmp_path):
    def runs(*reasons):
        return json.dumps({
            "runs": {
                f"R{i}": {"termination_reason": r, "f_evals": 10, "g_evals": 4}
                for i, r in enumerate(reasons)
            },
            "errors": {},
        })

    base_files = {
        "golden/summary.json": runs("max_iterations", "max_iterations"),
        "workloads/a/00/summary.json": runs("gradient_budget"),
        "workloads/b/00/summary.json": runs("gradient_budget"),
    }
    new_files = dict(base_files)
    new_files["golden/summary.json"] = runs("max_iterations", "line_search_stagnation")
    lines, _ = tool.compare(
        write_tree(tmp_path / "base", base_files), write_tree(tmp_path / "new", new_files)
    )
    assert lines[-5:] == [
        "termination reasons in golden: line_search_stagnation 0 -> 1, max_iterations 2 -> 1",
        "evaluations in golden: f_evals 20 -> 20, g_evals 8 -> 8",
        "termination reasons in workloads: gradient_budget 2 -> 2",
        "evaluations in workloads: f_evals 20 -> 20, g_evals 8 -> 8",
        "outputs differ",
    ]


def test_evaluations_are_summed_per_output_set(tool, tmp_path):
    """The f and g evaluations of every run in an output set's summary.json
    files are summed, at the base and now; a set only one side has counts 0
    on the other."""
    def runs(*evals):
        return json.dumps({
            "runs": {
                f"R{i}": {"termination_reason": "max_iterations", "f_evals": f, "g_evals": g}
                for i, (f, g) in enumerate(evals)
            },
            "errors": {},
        })

    base_files = {
        "matrix/summary.json": runs((5216, 201), (159, 16)),
        "workloads/a/00/summary.json": runs((100, 30)),
    }
    new_files = {
        "matrix/summary.json": runs((159, 16), (159, 16)),
        "workloads/a/00/summary.json": runs((100, 30)),
        "workloads/b/00/summary.json": runs((7, 3)),
    }
    lines, _ = tool.compare(
        write_tree(tmp_path / "base", base_files), write_tree(tmp_path / "new", new_files)
    )
    evaluations = [line for line in lines if line.startswith("evaluations")]
    assert evaluations == [
        "evaluations in matrix: f_evals 5375 -> 318, g_evals 217 -> 32",
        "evaluations in workloads: f_evals 100 -> 107, g_evals 30 -> 33",
    ]


@pytest.mark.parametrize(
    "a, b, change",
    [("1", "1.0", 0.0), ("nan", "nan", 0.0), ("2", "-2", 2.0), ("1", "inf", float("inf"))],
)
def test_relative_change(tool, a, b, change):
    assert tool.relative_change(a, b) == change


def test_empty_cell_is_not_a_number(tool):
    assert tool.relative_change("", "1.5") is None


def test_trace_check_per_output_set(tool, tmp_path):
    """Each top-level output set is checked with ``scripts/check_traces.py``:
    a summary run whose trace is missing is a violation of its set only."""
    golden = Path(__file__).resolve().parent / "golden"
    new = tmp_path / "new"
    shutil.copytree(golden, new / "golden")
    write_tree(new, {"matrix/summary.json": json.dumps({"runs": {"A_seed1": {}}, "errors": {}})})
    lines, violations = tool.trace_check(new)
    assert violations == 1
    assert lines == [
        "trace check in golden: 0 violations in 36 runs",
        "trace check in matrix: 1 violations in 1 runs",
        f"  {new / 'matrix' / 'A_seed1.csv'}: no trace",
    ]


def test_source_lines(tool, tmp_path):
    """The lines of every ``*.py`` file under ``noisyqn``, subpackages
    included, on each side, then each file whose count changed, a missing
    file counting 0; other files do not count."""
    base = write_tree(tmp_path / "base", {
        "noisyqn/__init__.py": "a\nb\n",
        "noisyqn/noise.py": "f\n",
        "noisyqn/solver.py": "c\nd\ne\n",
        "noisyqn/README.md": "not\ncounted\n",
    })
    new = write_tree(tmp_path / "new", {
        "noisyqn/__init__.py": "a\n",
        "noisyqn/noise.py": "g\n",
        "noisyqn/sub/module.py": "b\nc\n",
        "other/outside.py": "not\ncounted\n",
    })
    assert tool.source_lines(base, new) == [
        "src/noisyqn lines: 6 -> 4",
        "  src/noisyqn/__init__.py: 2 -> 1",
        "  src/noisyqn/solver.py: 3 -> 0",
        "  src/noisyqn/sub/module.py: 0 -> 2",
    ]
