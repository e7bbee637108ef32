#!/usr/bin/env python3
"""Check the program's trace CSVs against the invariants every run keeps.

    python scripts/check_traces.py DIR [DIR ...]

Finds every ``summary.json`` under each DIR, reads the trace CSV of each of
its runs (``<key>.csv`` next to it) and prints each violated invariant, one
line per violation, then one count line per DIR.  Exit code 0 when no trace
violates an invariant, 1 otherwise.  ``check_trace`` holds the invariants;
``check_dir`` applies it to an output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

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
       is at least the last ``cum_f_evals``.
    """
    method = entry["method"]
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
    return found


def check_summary(path: Path) -> tuple[int, list[str]]:
    """(runs checked, violations) for the runs of one ``summary.json``."""
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
