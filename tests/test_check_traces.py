"""``scripts/check_traces.py`` on the golden traces and on fresh sweeps:
every invariant holds, and seeded mutations of one trace are caught."""

import csv
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from noisyqn import problems
from noisyqn.bench import ExperimentConfig, run_experiment
from noisyqn.solver import Variant

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_traces.py"
GOLDEN = ROOT / "tests" / "golden"
# A noiseless bfgs-e run whose search fails, without splitting, at k = 11
# and 12 (alpha = 0); its trace is that of its bfgs twin.
KEY = "ARWHEAD_bfgs-e_xif0_xig0_om1_seed1"
TWIN_KEY = "ARWHEAD_bfgs_xif0_xig0_om1_seed1"
# A bfgs-e run under gradient noise that is split from k = 10 on.
NOISY_KEY = "ARWHEAD_bfgs-e_xif0_xig0.1_om1_seed1"
LBFGS_KEY = "ARWHEAD_lbfgs_xif0_xig0_om1_seed1"


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


def mutate_k(rows):
    rows[3]["k"] = "4"
    return ["row k=4: k is not the row index 3"]


def mutate_pair_action(rows):
    rows[3]["pair_action"] = "kept"
    return ["row k=3: unknown pair action 'kept'"]


def mutate_last_cum_g_evals(rows):
    assert rows[-1]["cum_g_evals"] == "14"
    rows[-1]["cum_g_evals"] = "15"
    return ["summary: g_evals 14 below the last cum_g_evals 15"]


def mutate_lbfgs_diagnostics(rows):
    rows[1]["lambda_min_B"] = "1"
    return ["row k=1: lambda_min_B recorded for lbfgs"]


@pytest.mark.parametrize(
    "key, mutate",
    [
        pytest.param(KEY, mutate_phi_after_failed_step, id="mutate_phi_after_failed_step"),
        pytest.param(NOISY_KEY, mutate_split_row_updated, id="mutate_split_row_updated"),
        pytest.param(KEY, mutate_noiseless_split, id="mutate_noiseless_split"),
        pytest.param(KEY, mutate_k, id="mutate_k"),
        pytest.param(KEY, mutate_pair_action, id="mutate_pair_action"),
        pytest.param(KEY, mutate_last_cum_g_evals, id="mutate_last_cum_g_evals"),
        pytest.param(LBFGS_KEY, mutate_lbfgs_diagnostics, id="mutate_lbfgs_diagnostics"),
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


@pytest.fixture(scope="module")
def omega_sweep(tmp_path_factory):
    """Every method on TRIDIA and QUAD(8,1,100) at xi_f 0 and 1e-3, xi_g 0
    and 0.1, omega 1 and 10: 96 runs of 15 iterations."""
    out = tmp_path_factory.mktemp("omega")
    run_experiment(ExperimentConfig(
        problems=["TRIDIA", "QUAD(8,1,100)"], methods=[variant.value for variant in Variant],
        xi_f=[0.0, 1e-3], xi_g=[0.0, 0.1], omega=[1.0, 10.0], seeds=[1],
        max_iters=15, diagnostics=True, out=str(out),
    ))
    return out


def test_sweep_holds_every_invariant_and_omega_twin(tool, omega_sweep):
    """omega scales only the eps_g that bfgs-e, lbfgs-e and the skip rule
    read, so bfgs and lbfgs at any noise, and every method at xi_g = 0,
    write the bytes of their omega = 1 twin."""
    assert tool.check_dir(omega_sweep) == (96, [])


@pytest.mark.parametrize(
    "key",
    ["TRIDIA_lbfgs_xif0.001_xig0.1_om10_seed1", "TRIDIA_bfgs-e_xif0.001_xig0_om10_seed1"],
)
def test_omega_twin_bytes_differ(tool, omega_sweep, tmp_path, key):
    """An omega = 10 trace that the omega rule covers is caught when it
    differs from its omega = 1 twin by one byte."""
    out = tmp_path / "out"
    shutil.copytree(omega_sweep, out)
    trace = out / f"{key}.csv"
    trace.write_bytes(trace.read_bytes() + b"\n")
    twin = key.replace("_om10_", "_om1_")
    assert tool.check_dir(out) == (96, [f"{trace}: differs from its omega = 1 twin {twin}.csv"])


def test_linear_objective_fails_every_lengthening(tool, tmp_path, monkeypatch):
    """Along a linear objective the gradient changes only by its noise, so no
    beta passes noise control: each search of bfgs-e and lbfgs-e takes
    alpha = 1, then ends BETA_FAILED (split, alpha > 0, no beta) after
    1 + ``max_lengthening`` = 31 gradient trials, and no pair is made."""
    c = np.array([1.0, -2.0])
    monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
    problems.register("LINEAR", lambda: problems.Problem(
        name="LINEAR", x0=np.zeros(2), eval_f=lambda x: float(c @ x),
        eval_g=lambda x: c.copy(), phi_star=0.0,
    ))
    run_experiment(ExperimentConfig(
        problems=["LINEAR"], methods=["bfgs-e", "lbfgs-e"], xi_g=[1e-2], seeds=[1],
        max_iters=10, out=str(tmp_path),
    ))
    assert tool.check_dir(tmp_path) == (2, [])
    for method in ("bfgs-e", "lbfgs-e"):
        with open(tmp_path / f"LINEAR_{method}_xif0_xig0.01_om1_seed1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["alpha"], r["beta"], r["split_active"], r["pair_action"]) for r in rows] == [
            ("1", "", "1", "skipped")
        ] * 10
        assert [int(r["cum_g_evals"]) for r in rows] == [1 + 31 * k for k in range(1, 11)]
