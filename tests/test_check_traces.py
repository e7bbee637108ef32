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
# A noiseless bfgs-e run whose search fails, without splitting, at k = 11
# and 12 (alpha = 0); its trace is that of its bfgs twin.
KEY = "ARWHEAD_bfgs-e_xif0_xig0_om1_seed1"
TWIN_KEY = "ARWHEAD_bfgs_xif0_xig0_om1_seed1"
# A bfgs-e run under gradient noise that is split from k = 10 on.
NOISY_KEY = "ARWHEAD_bfgs-e_xif0_xig0.1_om1_seed1"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_traces", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_run(key):
    with open(GOLDEN / f"{key}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    entry = json.loads((GOLDEN / "summary.json").read_text())["runs"][key]
    return rows, entry


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_goldens_hold_every_invariant(tool):
    assert tool.check_dir(GOLDEN) == (72, [])
    assert tool.main([str(GOLDEN)]) == 0


def mutate_phi_after_failed_step(rows):
    row = rows[12]
    assert float(rows[11]["alpha"]) == 0.0
    row["phi_true"] = repr(float(row["phi_true"]) * (1 + 1e-15))
    return ["row k=12: phi_true changed after a row with alpha = 0"]


def mutate_split_row_updated(rows):
    row = rows[11]
    assert row["split_active"] == "1" and row["pair_action"] != "updated"
    row["pair_action"] = "updated"
    return ["row k=11: pair action 'updated' with split_active 1"]


def mutate_noiseless_split(rows):
    row = rows[11]
    assert row["split_active"] == "0" and row["pair_action"] == "skipped"
    row["split_active"] = "1"
    # The summary, which names no split iteration, now disagrees too.
    return [
        "row k=11: split_active without noise",
        "summary: first_split_iteration None, first split_active row 11",
    ]


@pytest.mark.parametrize(
    "key, mutate",
    [
        pytest.param(KEY, mutate_phi_after_failed_step, id="mutate_phi_after_failed_step"),
        pytest.param(NOISY_KEY, mutate_split_row_updated, id="mutate_split_row_updated"),
        pytest.param(KEY, mutate_noiseless_split, id="mutate_noiseless_split"),
    ],
)
def test_seeded_mutation_caught(tool, tmp_path, key, mutate):
    rows, entry = golden_run(key)
    assert tool.check_trace(rows, entry) == []
    expected = mutate(rows)
    assert tool.check_trace(rows, entry) == expected

    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    write_rows(out / f"{key}.csv", rows)
    assert tool.main([str(out)]) == 1


def test_noiseless_twin_bytes_differ(tool, tmp_path):
    """A noiseless bfgs-e trace that differs from its bfgs twin only in how
    one float is written keeps every per-run invariant, and is still
    caught."""
    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    rows, _ = golden_run(KEY)
    assert rows[2]["alpha"] == "1"
    rows[2]["alpha"] = "1.0"
    write_rows(out / f"{KEY}.csv", rows)
    trace, twin = out / f"{KEY}.csv", out / f"{TWIN_KEY}.csv"
    assert tool.check_dir(out) == (72, [f"{trace}: differs from its noiseless twin {twin.name}"])
    assert tool.main([str(out)]) == 1


@pytest.mark.parametrize("method, standard", [("bfgs-skip", "bfgs"), ("lbfgs-skip", "lbfgs")])
def test_skip_twin_bytes_differ(tool, tmp_path, method, standard):
    """At xi_g = 0 a skip run writes its standard twin's bytes, whatever
    xi_f; a skip trace that differs only in how one float is written is
    caught, and so is one at xi_f > 0."""
    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    key = f"ARWHEAD_{method}_xif0_xig0_om1_seed1"
    rows, _ = golden_run(key)
    assert rows[2]["alpha"] == "1"
    rows[2]["alpha"] = "1.0"
    write_rows(out / f"{key}.csv", rows)
    twin_key = f"ARWHEAD_{standard}_xif0_xig0_om1_seed1"
    expected = (72, [f"{out / key}.csv: differs from its xi_g = 0 twin {twin_key}.csv"])
    assert tool.check_dir(out) == expected

    summary = json.loads((out / "summary.json").read_text())
    for name in (key, twin_key):
        summary["runs"][name]["xi_f"] = 1e-3
    (out / "summary.json").write_text(json.dumps(summary))
    assert tool.check_dir(out) == expected


def test_first_split_iteration_mismatch_caught(tool, tmp_path):
    """A summary whose first_split_iteration is not the k of the run's
    first split_active row is caught, in the summary and in its directory."""
    rows, entry = golden_run(NOISY_KEY)
    assert entry["first_split_iteration"] == 10
    entry["first_split_iteration"] = 11
    expected = "summary: first_split_iteration 11, first split_active row 10"
    assert tool.check_trace(rows, entry) == [expected]

    out = tmp_path / "out"
    shutil.copytree(GOLDEN, out)
    summary = json.loads((out / "summary.json").read_text())
    summary["runs"][NOISY_KEY]["first_split_iteration"] = 11
    (out / "summary.json").write_text(json.dumps(summary))
    assert tool.check_dir(out) == (72, [f"{out / NOISY_KEY}.csv: {expected}"])
    assert tool.main([str(out)]) == 1
