"""Golden traces: a fixed sweep must reproduce the committed CSVs and
summary.json under tests/golden/.

The matrix (tests/golden/golden.cfg) is ARWHEAD, TRIDIA and QUAD(16,1,1e3)
x all six methods x xi_f {0, 1e-3} x xi_g {0, 1e-1}, seed 1, at most 25
iterations, diagnostics on.  Its traces contain updated, lengthened and
skipped pairs and alpha = 0 rows, and draw f noise as well as g noise.

Counters, flags, pair actions and every non-float summary field must match
exactly.  Float fields must match to 1e-9 relative (absolute below 1): BLAS
dot and matvec kernels differ in their last bits between CPUs.

A change that alters results on purpose regenerates the goldens with

    PYTHONPATH=src python -m noisyqn sweep --config tests/golden/golden.cfg --out tests/golden

and says in CHANGES.md what moved and why.
"""

import csv
import json
import math
from pathlib import Path

from noisyqn.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXACT_COLUMNS = {"k", "split_active", "cum_f_evals", "cum_g_evals", "pair_action"}
REL_TOL = 1e-9


def floats_agree(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def assert_json_matches(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert floats_agree(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), list(reader)


def assert_csv_matches(got_path: Path, want_path: Path) -> None:
    got_header, got_rows = read_rows(got_path)
    want_header, want_rows = read_rows(want_path)
    assert got_header == want_header, want_path.name
    assert len(got_rows) == len(want_rows), want_path.name
    for got, want in zip(got_rows, want_rows):
        for column in want_header:
            where = f"{want_path.name} k={want['k']} {column}"
            g, w = got[column], want[column]
            if column in EXACT_COLUMNS or w == "" or g == "":
                assert g == w, f"{where}: {g!r} != {w!r}"
            else:
                assert floats_agree(float(g), float(w)), f"{where}: {g} != {w}"


def test_sweep_reproduces_goldens(tmp_path):
    code = main(["sweep", "--config", str(GOLDEN / "golden.cfg"), "--out", str(tmp_path)])
    assert code == 0
    want_files = sorted(p.name for p in GOLDEN.iterdir() if p.name != "golden.cfg")
    assert sorted(p.name for p in tmp_path.iterdir()) == want_files
    assert len(want_files) == 73
    for name in want_files:
        if name.endswith(".csv"):
            assert_csv_matches(tmp_path / name, GOLDEN / name)
    assert_json_matches(
        json.loads((tmp_path / "summary.json").read_text()),
        json.loads((GOLDEN / "summary.json").read_text()),
        "summary",
    )
