#!/usr/bin/env python3
"""Check the program's trace CSVs against the invariants every run keeps.

    python scripts/check_traces.py DIR [DIR ...]

Finds every ``summary.json`` under each DIR, reads the trace CSV of each of
its runs (``<key>.csv`` next to it) and prints each violated invariant, one
line per violation, then one count line per DIR.  Exit code 0 when no trace
violates an invariant, 1 otherwise.  ``check_trace`` holds the invariants of
one run; ``check_summary`` applies it to the runs of one ``summary.json`` and
also checks that each run with a ``TWINS`` entry wrote the same bytes as its
standard twin there; ``check_dir`` does so for an output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

# Each method that writes a standard method's trace bytes: (that method, the
# noise levels at which it must, the twin's name in a violation).  Without a
# noise bound a tolerant method's search never splits.  At xi_g = 0 the skip
# rule's threshold is 0, and the curvature guard drops every pair it drops.
TWINS = {
    "bfgs-e": ("bfgs", ("xi_f", "xi_g"), "noiseless"),
    "lbfgs-e": ("lbfgs", ("xi_f", "xi_g"), "noiseless"),
    "bfgs-skip": ("bfgs", ("xi_g",), "xi_g = 0"),
    "lbfgs-skip": ("lbfgs", ("xi_g",), "xi_g = 0"),
}
TOLERANT_METHODS = {"bfgs-e", "lbfgs-e"}
LIMITED_MEMORY_METHODS = {"lbfgs", "lbfgs-skip", "lbfgs-e"}


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
    8. L-BFGS rows have no ``kappa_H``;
    9. the summary's ``iterations`` equals the row count, and its ``f_evals``
       is at least the last ``cum_f_evals``;
    10. a run with xi_f = xi_g = 0 has no ``split_active`` row;
    11. the summary's ``first_split_iteration`` is the ``k`` of the first
        ``split_active`` row, or null when there is none.
    """
    method = entry["method"]
    noiseless = entry["xi_f"] == 0.0 and entry["xi_g"] == 0.0
    found = []
    previous = None
    for row in rows:
        where = f"row k={row['k']}"
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
        if (action == "lengthened" and not split) or (action == "updated" and split):
            found.append(f"{where}: pair action {action!r} with split_active {int(split)}")
        if action != "skipped" and beta is None:
            found.append(f"{where}: pair action {action!r} without a beta")
        if method not in TOLERANT_METHODS and beta is not None and beta != alpha:
            found.append(f"{where}: beta {row['beta']} differs from alpha {row['alpha']}")
        if method in LIMITED_MEMORY_METHODS and row["kappa_H"]:
            found.append(f"{where}: kappa_H recorded for {method}")
        previous = row
    if entry["iterations"] != len(rows):
        found.append(f"summary: iterations {entry['iterations']}, {len(rows)} rows")
    if rows and entry["f_evals"] < int(rows[-1]["cum_f_evals"]):
        found.append(
            f"summary: f_evals {entry['f_evals']} below the last cum_f_evals "
            f"{rows[-1]['cum_f_evals']}"
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
    run's ``check_trace``, and for each run at its ``TWINS`` noise levels
    whose standard twin (same key, ``TWINS`` method) is also there, equal
    trace bytes."""
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
        method, problem = entry["method"], entry["problem"]
        if method not in TWINS:
            continue
        standard, zero, label = TWINS[method]
        if all(entry[level] == 0.0 for level in zero):
            twin_key = key.replace(f"{problem}_{method}_", f"{problem}_{standard}_", 1)
            twin = path.parent / f"{twin_key}.csv"
            if twin_key in runs and twin.is_file() and twin.read_bytes() != trace.read_bytes():
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
