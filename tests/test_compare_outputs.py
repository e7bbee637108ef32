"""The report of ``scripts/compare_outputs.py`` on two small hand-made
output trees (the builds themselves take minutes and are not run here)."""

import importlib.util
import json
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


@pytest.mark.parametrize(
    "a, b, change",
    [("1", "1.0", 0.0), ("nan", "nan", 0.0), ("2", "-2", 2.0), ("1", "inf", float("inf"))],
)
def test_relative_change(tool, a, b, change):
    assert tool.relative_change(a, b) == change


def test_empty_cell_is_not_a_number(tool):
    assert tool.relative_change("", "1.5") is None
