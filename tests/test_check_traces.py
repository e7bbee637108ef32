"""``scripts/check_traces.py`` on the golden traces: every invariant holds,
and seeded mutations of one golden trace are caught."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_traces.py"
GOLDEN = ROOT / "tests" / "golden"
# A noiseless bfgs-e run whose search fails at k = 11 (alpha = 0) and which
# is split from there on.
KEY = "ARWHEAD_bfgs-e_xif0_xig0_om1_seed1"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_traces", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_run():
    with open(GOLDEN / f"{KEY}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    entry = json.loads((GOLDEN / "summary.json").read_text())["runs"][KEY]
    return rows, entry


def test_goldens_hold_every_invariant(tool):
    assert tool.check_dir(GOLDEN) == (36, [])
    assert tool.main([str(GOLDEN)]) == 0


def mutate_phi_after_failed_step(rows):
    row = rows[12]
    assert float(rows[11]["alpha"]) == 0.0
    row["phi_true"] = repr(float(row["phi_true"]) * (1 + 1e-15))
    return "row k=12: phi_true changed after a row with alpha = 0"


def mutate_split_row_updated(rows):
    row = rows[11]
    assert row["split_active"] == "1" and row["pair_action"] != "updated"
    row["pair_action"] = "updated"
    return "row k=11: pair action 'updated' with split_active 1"


@pytest.mark.parametrize("mutate", [mutate_phi_after_failed_step, mutate_split_row_updated])
def test_seeded_mutation_caught(tool, tmp_path, mutate):
    rows, entry = golden_run()
    assert tool.check_trace(rows, entry) == []
    expected = mutate(rows)
    assert tool.check_trace(rows, entry) == [expected]

    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    with open(out / f"{KEY}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    assert tool.main([str(out)]) == 1
