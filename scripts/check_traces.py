#!/usr/bin/env python3
"""Check the program's trace CSVs against the invariants every run keeps.

    python scripts/check_traces.py DIR [DIR ...]

Finds every ``summary.json`` under each DIR, reads the trace CSV of each of
its runs (``<key>.csv`` next to it) and prints each violated invariant, one
line per violation, then one count line per DIR.  Exit code 0 when no trace
violates an invariant, 1 otherwise.  ``check_trace`` holds the invariants of
one run; ``check_summary`` applies it to the runs of one ``summary.json`` and
also checks that each run a ``TWINS`` rule covers wrote the same bytes as its
twin there; ``check_dir`` does so for an output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

TOLERANT_METHODS = {"bfgs-e", "lbfgs-e"}
SKIP_METHODS = {"bfgs-skip", "lbfgs-skip"}
LIMITED_MEMORY_METHODS = {"lbfgs", "lbfgs-skip", "lbfgs-e"}
PAIR_ACTIONS = {"updated", "lengthened", "skipped"}
DENSE_DIAGNOSTICS = ("kappa_H", "lambda_min_B", "lambda_max_B")

# Each rule by which a run writes the trace bytes of a twin run that differs
# from it in one setting: (the twin's name in a violation, the noise levels
# that must be 0, that setting, each method covered mapped to its twin's
# value).  Without a noise bound a tolerant method's search never splits.
# At xi_g = 0 the skip rule's threshold is 0, and the curvature guard drops
# every pair it drops.  omega scales only the eps_g that the tolerant and
# skip methods read, which is 0 at xi_g = 0.
TWINS = (
    ("noiseless", ("xi_f", "xi_g"), "method", {"bfgs-e": "bfgs", "lbfgs-e": "lbfgs"}),
    ("xi_g = 0", ("xi_g",), "method", {"bfgs-skip": "bfgs", "lbfgs-skip": "lbfgs"}),
    ("omega = 1", (), "omega", {"bfgs": 1.0, "lbfgs": 1.0}),
    ("omega = 1", ("xi_g",), "omega", dict.fromkeys(TOLERANT_METHODS | SKIP_METHODS, 1.0)),
)
# The part of a run key that names each setting a twin differs in.
KEY_PARTS = {"method": "{problem}_{method}_", "omega": "_om{omega:g}_"}


def check_trace(rows: list[dict[str, str]], entry: dict) -> list[str]:
    """The invariants that one run's trace violates, given its CSV rows (as
    ``csv.DictReader`` gives them) and its ``summary.json`` entry.

    1. ``cum_f_evals`` and ``cum_g_evals`` strictly increase from row to row;
    2. a row with alpha = 0 is followed by a row with the same ``phi_true``;
    3. beta >= alpha on every row with a beta and alpha > 0;
    4. ``split_active`` is set only for the tolerant methods;
    5. "lengthened" appears only on split rows and "updated" only off them;
    6. a pair action other than "skipped" has a beta;
    7. the standard and skip methods record beta = alpha whenever beta is set;
    8. L-BFGS rows have no ``kappa_H``, ``lambda_min_B`` or ``lambda_max_B``;
    9. the summary's ``iterations`` equals the row count, and its ``f_evals``
       and ``g_evals`` are at least the last ``cum_f_evals`` and
       ``cum_g_evals``;
    10. a run with xi_f = xi_g = 0 has no ``split_active`` row;
    11. the summary's ``first_split_iteration`` is the ``k`` of the first
        ``split_active`` row, or null when there is none;
    12. ``k`` is the row's index;
    13. the pair action is "updated", "lengthened" or "skipped".
    """
    method = entry["method"]
    noiseless = entry["xi_f"] == 0.0 and entry["xi_g"] == 0.0
    found = []
    previous = None
    for index, row in enumerate(rows):
        where = f"row k={row['k']}"
        if int(row["k"]) != index:
            found.append(f"{where}: k is not the row index {index}")
        alpha = float(row["alpha"])
        beta = float(row["beta"]) if row["beta"] else None
        split = row["split_active"] == "1"
        action = row["pair_action"]
        if previous is not None:
            for column in ("cum_f_evals", "cum_g_evals"):
                if not int(row[column]) > int(previous[column]):
                    found.append(f"{where}: {column} does not increase")
            if float(previous["alpha"]) == 0.0 and row["phi_true"] != previous["phi_true"]:
                found.append(f"{where}: phi_true changed after a row with alpha = 0")
        if beta is not None and alpha > 0.0 and not beta >= alpha:
            found.append(f"{where}: beta {row['beta']} < alpha {row['alpha']}")
        if split and method not in TOLERANT_METHODS:
            found.append(f"{where}: split_active for {method}")
        if split and noiseless:
            found.append(f"{where}: split_active without noise")
        if action not in PAIR_ACTIONS:
            found.append(f"{where}: unknown pair action {action!r}")
        if (action == "lengthened" and not split) or (action == "updated" and split):
            found.append(f"{where}: pair action {action!r} with split_active {int(split)}")
        if action != "skipped" and beta is None:
            found.append(f"{where}: pair action {action!r} without a beta")
        if method not in TOLERANT_METHODS and beta is not None and beta != alpha:
            found.append(f"{where}: beta {row['beta']} differs from alpha {row['alpha']}")
        if method in LIMITED_MEMORY_METHODS:
            for column in DENSE_DIAGNOSTICS:
                if row[column]:
                    found.append(f"{where}: {column} recorded for {method}")
        previous = row
    if entry["iterations"] != len(rows):
        found.append(f"summary: iterations {entry['iterations']}, {len(rows)} rows")
    for total in ("f_evals", "g_evals"):
        if rows and entry[total] < int(rows[-1][f"cum_{total}"]):
            found.append(
                f"summary: {total} {entry[total]} below the last cum_{total} "
                f"{rows[-1][f'cum_{total}']}"
            )
    first_split = next((int(row["k"]) for row in rows if row["split_active"] == "1"), None)
    if entry["first_split_iteration"] != first_split:
        found.append(
            f"summary: first_split_iteration {entry['first_split_iteration']}, "
            f"first split_active row {first_split}"
        )
    return found


def check_summary(path: Path) -> tuple[int, list[str]]:
    """(runs checked, violations) for the runs of one ``summary.json``: each
    run's ``check_trace``, and for each run that a ``TWINS`` rule covers and
    whose twin (its key with the rule's setting changed) is also there,
    equal trace bytes."""
    runs = json.loads(path.read_text())["runs"]
    found = []
    for key, entry in sorted(runs.items()):
        trace = path.parent / f"{key}.csv"
        if not trace.is_file():
            found.append(f"{trace}: no trace")
            continue
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        found += [f"{trace}: {line}" for line in check_trace(rows, entry)]
        for label, zero, setting, twin_value in TWINS:
            if entry["method"] not in twin_value or any(entry[level] != 0.0 for level in zero):
                continue
            part = KEY_PARTS[setting]
            twin_entry = {**entry, setting: twin_value[entry["method"]]}
            twin_key = key.replace(part.format(**entry), part.format(**twin_entry), 1)
            twin = path.parent / f"{twin_key}.csv"
            if twin_key != key and twin_key in runs and twin.is_file():
                if twin.read_bytes() != trace.read_bytes():
                    found.append(f"{trace}: differs from its {label} twin {twin.name}")
    return len(runs), found


def check_dir(root: Path) -> tuple[int, list[str]]:
    """(runs checked, violations) over every ``summary.json`` under ``root``."""
    runs, found = 0, []
    for path in sorted(Path(root).rglob("summary.json")):
        checked, violations = check_summary(path)
        runs += checked
        found += violations
    return runs, found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR", help="output directory to check")
    args = parser.parse_args(argv)
    total = 0
    for root in args.dirs:
        runs, found = check_dir(Path(root))
        print("\n".join([*found, f"trace check {root}: {len(found)} violations in {runs} runs"]))
        total += len(found)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
