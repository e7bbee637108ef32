#!/usr/bin/env python3
"""Compare the program's output files at a git revision with the working tree.

    python scripts/compare_outputs.py --base REV [--work DIR]

Exports ``src/`` of REV with ``git archive`` and builds the same output sets
with it and with the working tree's ``src/``, each in its own interpreter,
the two at once:

- ``golden``: the golden sweep, ``tests/golden/golden.cfg``;
- ``matrix``: the byte-identity matrix, ``scripts/matrix.cfg``;
- ``workloads``: the three perfbench workloads at seeds 1 and 2, planned and
  run by ``perfbench/workloads.py`` (``plan``, ``execute``).

The inputs (both config files and the workload plans) are the working
tree's on both sides, so only the program differs.  The report lists
identical, changed, added and removed files; for each changed
``summary.json``, every change in its ``errors``, the ``config`` keys added,
removed or changed, and how many run entries differ; for each changed CSV
column the largest relative change; and per output set, how many runs ended
with each termination reason, and how many f and g evaluations the runs
took in all (``f_evals`` and ``g_evals`` of each ``summary.json`` run), at
the base and now.  Each output set of the working tree is also checked with
``scripts/check_traces.py``, and its violations are listed.  The last line
gives the total lines of the ``*.py`` files of ``src/noisyqn`` at the base
and now.  Exit code 0 when every file is identical and no trace violates an
invariant, 1 otherwise, 2 when a build fails.

The outputs go to a temporary directory that is removed afterwards, or to
``--work DIR`` (empty or absent), where they are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from check_traces import check_dir  # noqa: E402

SWEEPS = {
    "golden": ROOT / "tests" / "golden" / "golden.cfg",
    "matrix": ROOT / "scripts" / "matrix.cfg",
}
WORKLOAD_SEEDS = (1, 2)


def build(src: Path, out: Path) -> None:
    """Write every output set of the program in ``src`` under ``out``.  Runs
    in a fresh interpreter: it imports ``noisyqn`` from ``src``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import noisyqn
    import noisyqn.cli
    import workloads

    if Path(noisyqn.__file__).resolve().parent != (src / "noisyqn").resolve():
        raise RuntimeError(f"noisyqn was imported from {noisyqn.__file__}, not from {src}")
    for name, config in SWEEPS.items():
        sink = io.StringIO()  # the per-run errors are compared from summary.json
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            noisyqn.cli.main(["sweep", "--config", str(config), "--out", str(out / name)])
    for workload in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            calls = workloads.plan(workload, seed, out / "workloads" / f"{workload}_seed{seed}")
            workloads.execute(noisyqn, workload, calls)


def export_src(rev: str, dest: Path) -> Path:
    """Extract ``src/`` of the commit ``rev`` into ``dest``; return the copy."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(
        [*git, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        [*git, "archive", "--format=tar", commit, "src"], check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def relative_change(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two cells, inf when one is not finite,
    None when one is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_changes(old: str, new: str) -> list[str]:
    """How a CSV trace changed: its header, its row count, and per column
    the largest relative change over the rows both files have."""
    old_header, *old_rows = csv.reader(old.splitlines())
    new_header, *new_rows = csv.reader(new.splitlines())
    lines = []
    if old_header != new_header:
        lines.append(f"header: {','.join(old_header)} -> {','.join(new_header)}")
    if len(old_rows) != len(new_rows):
        lines.append(f"rows: {len(old_rows)} -> {len(new_rows)}")
    for j, column in enumerate(new_header):
        if column not in old_header:
            continue
        i = old_header.index(column)
        largest, texts = None, 0
        for old_row, new_row in zip(old_rows, new_rows):
            if old_row[i] == new_row[j]:
                continue
            change = relative_change(old_row[i], new_row[j])
            if change is None:
                texts += 1
            else:
                largest = change if largest is None else max(largest, change)
        if largest is not None:
            lines.append(f"{column}: largest relative change {largest:.3g}")
        if texts:
            lines.append(f"{column}: {texts} non-numeric cells differ")
    return lines


def error_changes(old: dict, new: dict) -> list[str]:
    """Every run whose per-run error appeared, went or changed its text."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"error gone: {key}: {old[key]}")
        elif key not in old:
            lines.append(f"error new: {key}: {new[key]}")
        elif old[key] != new[key]:
            lines.append(f"error changed: {key}: {old[key]} -> {new[key]}")
    return lines


def summary_changes(old: dict, new: dict) -> list[str]:
    """How a summary.json changed: every change in its per-run errors, each
    ``config`` key added, removed or changed, and how many run entries
    differ."""
    lines = error_changes(old["errors"], new["errors"])
    old_config, new_config = old.get("config", {}), new.get("config", {})
    for key in sorted(old_config.keys() | new_config.keys()):
        if key not in new_config:
            lines.append(f"config removed: {key} = {json.dumps(old_config[key])}")
        elif key not in old_config:
            lines.append(f"config added: {key} = {json.dumps(new_config[key])}")
        elif old_config[key] != new_config[key]:
            lines.append(
                f"config changed: {key}: "
                f"{json.dumps(old_config[key])} -> {json.dumps(new_config[key])}"
            )
    old_runs, new_runs = old["runs"], new["runs"]
    keys = old_runs.keys() | new_runs.keys()
    differ = sum(old_runs.get(key) != new_runs.get(key) for key in keys)
    lines.append(f"run entries differ: {differ} of {len(keys)}")
    return lines


def summary_errors(path: Path) -> dict:
    return json.loads(path.read_text())["errors"]


def run_tallies(root: Path, files: set[str]) -> dict[str, tuple[Counter, Counter]]:
    """Per output set (top-level directory), over the runs of its
    summary.json files: the runs counted by termination reason, and the
    summed ``f_evals`` and ``g_evals``."""
    tallies: dict[str, tuple[Counter, Counter]] = {}
    for name in files:
        if Path(name).name == "summary.json":
            runs = json.loads((root / name).read_text())["runs"].values()
            reasons, evals = tallies.setdefault(Path(name).parts[0], (Counter(), Counter()))
            for entry in runs:
                reasons[entry["termination_reason"]] += 1
                evals.update({key: entry[key] for key in ("f_evals", "g_evals")})
    return tallies


def compare(base: Path, new: Path) -> tuple[list[str], bool]:
    """(report lines, whether every file is identical) for two output trees."""
    old_files = {str(p.relative_to(base)) for p in base.rglob("*") if p.is_file()}
    new_files = {str(p.relative_to(new)) for p in new.rglob("*") if p.is_file()}
    same, changed = [], []
    for name in sorted(old_files & new_files):
        (same if (base / name).read_bytes() == (new / name).read_bytes() else changed).append(name)
    added, removed = sorted(new_files - old_files), sorted(old_files - new_files)

    def errors_in(root: Path, files: set[str]) -> int:
        return sum(len(summary_errors(root / n)) for n in files if Path(n).name == "summary.json")

    lines = [f"identical: {len(same)} files"]
    lines.append(f"changed: {len(changed)} files")
    for name in changed:
        lines.append(f"  {name}")
        if name.endswith(".csv"):
            details = csv_changes((base / name).read_text(), (new / name).read_text())
        elif Path(name).name == "summary.json":
            details = summary_changes(
                json.loads((base / name).read_text()), json.loads((new / name).read_text())
            )
        else:
            details = []
        lines += [f"    {line}" for line in details]
    for label, names in (("added", added), ("removed", removed)):
        lines.append(f"{label}: {len(names)} files")
        lines += [f"  {name}" for name in names]
    lines.append(
        f"per-run errors: {errors_in(base, old_files)} at base, {errors_in(new, new_files)} now"
    )
    old_tallies, new_tallies = run_tallies(base, old_files), run_tallies(new, new_files)
    empty = (Counter(), Counter())
    for output_set in sorted(old_tallies.keys() | new_tallies.keys()):
        old_counts = old_tallies.get(output_set, empty)
        new_counts = new_tallies.get(output_set, empty)
        for label, old, now in zip(("termination reasons", "evaluations"), old_counts, new_counts):
            if old or now:
                counts = (f"{r} {old[r]} -> {now[r]}" for r in sorted(old.keys() | now.keys()))
                lines.append(f"{label} in {output_set}: {', '.join(counts)}")
    identical = not (changed or added or removed)
    lines.append("identical" if identical else "outputs differ")
    return lines, identical


def source_lines(base_src: Path, new_src: Path) -> list[str]:
    """``src/noisyqn lines: A -> B``, A and B counting the lines (as
    ``wc -l`` does) of the ``*.py`` files under ``noisyqn`` in each ``src``,
    then ``src/noisyqn/<module>.py: A -> B`` for each file whose count
    changed (0 on a side without the file)."""
    a, b = (
        {
            path.relative_to(src).as_posix(): path.read_bytes().count(b"\n")
            for path in (src / "noisyqn").rglob("*.py")
        }
        for src in (base_src, new_src)
    )
    lines = [f"src/noisyqn lines: {sum(a.values())} -> {sum(b.values())}"]
    for name in sorted(a.keys() | b.keys()):
        if a.get(name, 0) != b.get(name, 0):
            lines.append(f"  src/{name}: {a.get(name, 0)} -> {b.get(name, 0)}")
    return lines


def trace_check(root: Path) -> tuple[list[str], int]:
    """(report lines, violation count) of the trace check of each output
    set (top-level directory) under ``root``."""
    lines, total = [], 0
    for output_set in sorted(p for p in root.iterdir() if p.is_dir()):
        runs, found = check_dir(output_set)
        lines.append(f"trace check in {output_set.name}: {len(found)} violations in {runs} runs")
        lines += [f"  {line}" for line in found]
        total += len(found)
    return lines, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to compare against")
    parser.add_argument("--work", metavar="DIR", help="keep the outputs in DIR")
    parser.add_argument("--build", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build is not None:
        build(Path(args.build[0]).resolve(), Path(args.build[1]).resolve())
        return 0
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as temp:
        work = Path(args.work or temp).resolve()
        if work.exists() and any(work.iterdir()):
            parser.error(f"--work {work} is not empty")
        sources = {"base": export_src(args.base, work / "base_src"), "new": ROOT / "src"}
        builds = []
        try:
            for side, src in sources.items():
                command = [sys.executable, __file__, "--build", str(src), str(work / side)]
                builds.append(subprocess.Popen(command))
            codes = [child.wait() for child in builds]
        finally:
            for child in builds:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if any(codes):
            print("a build failed", file=sys.stderr)
            return 2
        lines, identical = compare(work / "base", work / "new")
        check_lines, violations = trace_check(work / "new")
        check_lines += source_lines(sources["base"], sources["new"])
    print("\n".join(lines + check_lines))
    return 0 if identical and not violations else 1


if __name__ == "__main__":
    sys.exit(main())
