#!/usr/bin/env python3
"""Time a perfbench workload cell by cell, paired, at a git revision and in
the working tree.

    python scripts/paired_cells.py --base REV --workload W --seed S --rounds R

Exports ``src/`` of REV as ``scripts/compare_outputs.py`` does and starts one
persistent interpreter per tree.  Each imports ``noisyqn`` from its tree,
splits the workload's calls (``perfbench/workloads.py``, ``plan``) into
single-cell ``ExperimentConfig``s and runs every cell once at the warm-up
iteration cap.  Then the two interpreters run each cell in turn, one after
the other, for R rounds; which tree goes first swaps from cell to cell and
from round to round.  A cell's ratio is its time in the working tree over its
time at REV.

Afterwards the same rounds run with two interpreters of the working tree, an
A/A control: its spread is what host noise alone gives.  The report, printed
as JSON, gives per run the median cell ratio, its quartiles, how many cells
were faster in the working tree, and the ratio of the summed times.

Each cell is one ``run_experiment`` call, so a cell's time includes its CSV
and summary writes; the workload's own timing (``perfbench/run.py``) stays
the end-to-end measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cells(workload: str, seed: int, out: Path, warmup: bool) -> list[dict]:
    """The workload's runs as one-cell ``ExperimentConfig`` keyword
    arguments, each writing to its own directory under ``out``."""
    import workloads
    from noisyqn.bench import RUN_AXES, ExperimentConfig, setting_name

    found = []
    for call in workloads.plan(workload, seed, out, warmup=warmup):
        for cell in ExperimentConfig(**call).run_matrix():
            single = dict(call)
            for name in RUN_AXES:
                single[name] = [cell[setting_name(name)]]
            single["out"] = str(out / f"{len(found):03d}")
            found.append(single)
    return found


def serve(src: Path, workload: str, seed: int, out: Path) -> None:
    """The interpreter of one tree: warm up on every cell, print the cell
    count, then answer each cell index read from stdin with its time."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import noisyqn.bench

    if Path(noisyqn.__file__).resolve().parent != (src / "noisyqn").resolve():
        raise RuntimeError(f"noisyqn was imported from {noisyqn.__file__}, not from {src}")
    reply = sys.stdout
    sys.stdout = sys.stderr
    for call in cells(workload, seed, out / "warmup", warmup=True):
        noisyqn.bench.run_experiment(noisyqn.bench.ExperimentConfig(**call))
    timed = [noisyqn.bench.ExperimentConfig(**call) for call in cells(workload, seed, out, False)]
    print(len(timed), file=reply, flush=True)
    for line in sys.stdin:
        start = time.perf_counter()
        noisyqn.bench.run_experiment(timed[int(line)])
        print(repr(time.perf_counter() - start), file=reply, flush=True)


class Interpreter:
    """A ``serve`` process; calling it with a cell index returns the cell's
    time in seconds."""

    def __init__(self, src: Path, workload: str, seed: int, out: Path):
        command = [
            sys.executable, __file__, "--serve", str(src),
            "--workload", workload, "--seed", str(seed), "--out", str(out),
        ]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def ready(self) -> int:
        """Wait for the warm-up; return the number of cells."""
        return int(self._read())

    def __call__(self, cell: int) -> float:
        self.process.stdin.write(f"{cell}\n")
        self.process.stdin.flush()
        return float(self._read())

    def _read(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"interpreter exited with code {self.process.wait()}")
        return line

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def schedule(rounds: int, count: int) -> list[tuple[int, int, bool]]:
    """(round, cell, whether the base side goes first) for every pair: the
    order swaps from cell to cell and from round to round."""
    return [(r, c, (r + c) % 2 == 0) for r in range(rounds) for c in range(count)]


def time_pairs(base, new, rounds: int, count: int) -> list[dict]:
    """Time every cell on both sides in ``schedule`` order; ``base`` and
    ``new`` map a cell index to seconds."""
    pairs = []
    for r, c, base_first in schedule(rounds, count):
        if base_first:
            base_s = base(c)
            new_s = new(c)
        else:
            new_s = new(c)
            base_s = base(c)
        pairs.append(dict(round=r, cell=c, base_first=base_first, base_s=base_s, new_s=new_s))
    return pairs


def summarize(pairs: list[dict]) -> dict:
    """The median of the cell ratios new / base with its quartiles, how
    many cells were faster on the new side, and the ratio of the sums."""
    ratios = [p["new_s"] / p["base_s"] for p in pairs]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "pairs": len(ratios),
        "median_ratio": median,
        "quartiles": [q1, q3],
        "new_faster": sum(ratio < 1.0 for ratio in ratios),
        "total_ratio": sum(p["new_s"] for p in pairs) / sum(p["base_s"] for p in pairs),
    }


def paired_run(sources: dict[str, Path], workload: str, seed: int, rounds: int, work: Path) -> dict:
    """Start an interpreter per side, time the pairs and summarize them."""
    with contextlib.ExitStack() as stack:
        sides = {}
        for side, src in sources.items():
            interpreter = Interpreter(src, workload, seed, work / side)
            stack.callback(interpreter.close)
            sides[side] = interpreter
        counts = {interpreter.ready() for interpreter in sides.values()}
        if len(counts) != 1:
            raise RuntimeError(f"the two trees plan different cell counts: {counts}")
        pairs = time_pairs(sides["base"], sides["new"], rounds, counts.pop())
    return {**summarize(pairs), "cells": pairs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--serve", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--out", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve is not None:
        serve(Path(args.serve).resolve(), args.workload, args.seed, Path(args.out))
        return 0
    if args.base is None:
        parser.error("--base is required")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    from compare_outputs import export_src  # a sibling of this script

    with tempfile.TemporaryDirectory(prefix="paired_cells_") as temp:
        work = Path(temp)
        base_src = export_src(args.base, work / "base_src")
        report = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds}
        for label, base in (("ab", base_src), ("aa", ROOT / "src")):
            sources = {"base": base, "new": ROOT / "src"}
            report[label] = paired_run(sources, args.workload, args.seed, args.rounds, work / label)
    report["base"] = args.base
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
