"""Benchmark harness: experiment configs, CSV traces, summaries, comparison
profiles, and the command-line front end."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisyqn import bench, cli, problems
from noisyqn.bench import (
    ConfigError,
    ExperimentConfig,
    TRACE_HEADER,
    _worker_count,
    morales_profile,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from noisyqn.cli import build_parser, load_config_file, main
from noisyqn.linalg import SERIAL_BLAS_MAX_ORDER, _openblas_thread_controls
from noisyqn.noise import NoiseSpec
from noisyqn.problems import registry_lookup
from noisyqn.solver import IterationRecord, SolverConfig, Variant, run

# The trace columns as documented in the README.
README_TRACE_HEADER = (
    "k,phi_true,gap,grad_norm_true,f_noisy,alpha,beta,split_active,"
    "cum_f_evals,cum_g_evals,kappa_H,lambda_min_B,lambda_max_B,pair_action"
)

# Every float a trace cell must give back: +-0.0, +-inf and subnormals
# included (NaN has no single bit pattern to compare).
_ANY_FLOAT = st.floats(allow_nan=False)
_FIELD_VALUES = {
    int: st.integers(),
    bool: st.booleans(),
    str: st.sampled_from(["updated", "lengthened", "skipped"]),
    float: _ANY_FLOAT,
    float | None: st.none() | _ANY_FLOAT,
}
_RECORD_TYPES = get_type_hints(IterationRecord)
_RECORDS = st.builds(
    IterationRecord,
    **{f.name: _FIELD_VALUES[_RECORD_TYPES[f.name]] for f in fields(IterationRecord)},
)


def tiny_config(out, **kwargs):
    defaults = dict(
        problems=["TRIDIA"],
        methods=["bfgs"],
        xi_f=[0.0],
        xi_g=[1e-3],
        seeds=[1, 2],
        max_iters=8,
        out=str(out),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, seeds=[]).validate()

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, methods=["newton"]).validate()

    def test_unknown_problem_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, problems=["WATSON"]).validate()

    def test_intermittent_needs_block_length(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, schedule="intermittent").validate()

    def test_negative_noise_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, xi_g=[-1e-3]).validate()

    def test_every_noise_value_checked(self, tmp_path):
        for key in ("xi_f", "xi_g"):
            with pytest.raises(ConfigError):
                tiny_config(tmp_path, **{key: [1e-3, -1.0]}).validate()
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, omega=[1.0, 0.0]).validate()

    def test_empty_noise_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, xi_g=[]).validate()

    def test_unknown_noise_phase_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="noise_phase"):
            tiny_config(tmp_path, noise_phase="dirty").validate()

    def test_non_integer_seed_rejected_before_output(self, tmp_path):
        """Every seed is checked, not only the first, and before any file
        is written."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_experiment(tiny_config(out, seeds=[1, 1.5]))
        assert not out.exists()

    def test_non_string_problem_rejected_before_output(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="unknown problem 5"):
            run_experiment(tiny_config(out, problems=[5]))
        assert not out.exists()

    @pytest.mark.parametrize(
        "problems, message",
        [
            (["ARWHEAD", "arwhead", "QUAD(8,1,10)", "QUAD(8,1,1e1)"], "'ARWHEAD' and 'arwhead'"),
            (("QUAD(8,1,10)", "QUAD(8,1,1e1)"), "'QUAD(8,1,10)' and 'QUAD(8,1,1e1)'"),
        ],
        ids=["case", "number-in-a-tuple"],
    )
    def test_two_spellings_of_one_problem_rejected_before_output(self, tmp_path, problems, message):
        """Each spelling would run the same problem under a run key and a
        CSV of its own; on a case-insensitive file system two of the CSVs
        would be one file."""
        out = tmp_path / "out"
        expected = re.escape(f"problems {message} name the same problem")
        with pytest.raises(ConfigError, match=f"^{expected}$"):
            run_experiment(tiny_config(out, problems=problems, seeds=[1]))
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(problems="TRIDIA"), "problems must be a list, got 'TRIDIA'"),
            (dict(methods="bfgs"), "methods must be a list, got 'bfgs'"),
            (dict(xi_f=["0.1"]), "xi_f must be a real number, got '0.1'"),
            (dict(seeds=5), "seeds must be a list, got 5"),
        ],
        ids=["problems", "methods", "xi_f", "seeds"],
    )
    def test_wrongly_shaped_setting_named_before_output(self, tmp_path, setting, message):
        """A string was iterated letter by letter, and a string noise level
        failed in the run key's format."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(tiny_config(out, **setting))
        assert not out.exists()

    def test_non_path_out_is_config_error(self):
        config = ExperimentConfig(problems=["TRIDIA"], methods=["bfgs"], seeds=[1], out=5)
        with pytest.raises(ConfigError, match="out must be a path, got 5"):
            config.validate()

    def test_bool_seed_is_config_error(self):
        """seeds [True, 1] would run seed 1's noise twice, under the keys
        ``..._seedTrue`` and ``..._seed1``."""
        config = ExperimentConfig(
            problems=["TRIDIA"], methods=["bfgs"], seeds=[True, 1], max_iters=3
        )
        with pytest.raises(ConfigError, match="seed must be an integer, got True"):
            config.validate()

    @pytest.mark.parametrize(
        "name",
        [
            "memory", "max_iters", "g_eval_budget", "n_split", "max_ls_iters",
            "max_lengthening", "history", "n_noise",
        ],
    )
    def test_non_integer_setting_rejected_before_output(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got 2.5$"):
            run_experiment(tiny_config(out, **{name: 2.5}))
        assert not out.exists()

    @pytest.mark.parametrize(
        "name",
        [
            "memory", "max_iters", "g_eval_budget", "n_split", "max_ls_iters",
            "max_lengthening", "history", "n_noise",
        ],
    )
    def test_bool_setting_rejected_before_output(self, tmp_path, name):
        """bool is an Integral, so True once passed as a count of 1."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got True$"):
            run_experiment(tiny_config(out, **{name: True}))
        assert not out.exists()

    def test_bool_memory_and_n_split_are_config_errors(self):
        """The lbfgs cell used to end in a per-run TypeError and the bfgs
        cell to split after one trial."""
        config = ExperimentConfig(
            problems=["TRIDIA"], methods=["lbfgs", "bfgs"], seeds=[1],
            memory=True, n_split=True, max_iters=3,
        )
        with pytest.raises(ConfigError, match="must be an integer, got True$"):
            config.validate()

    @pytest.mark.parametrize("name", ["xi_f", "xi_g", "omega", "c1", "c2", "c3"])
    def test_bool_real_setting_rejected_before_output(self, tmp_path, name):
        """True once ran as 1.0, and summary.json recorded it as true."""
        out = tmp_path / "out"
        value = [True] if name in ("xi_f", "xi_g", "omega") else True
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got True$"):
            run_experiment(tiny_config(out, **{name: value}))
        assert not out.exists()

    def test_bool_noise_levels_and_c3_are_config_errors(self):
        config = ExperimentConfig(
            problems=["TRIDIA"], methods=["bfgs"], seeds=[1],
            xi_g=[True], omega=[True], c3=True, max_iters=2,
        )
        with pytest.raises(ConfigError, match="must be a real number, got True$"):
            config.validate()

    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    def test_string_line_search_constant_rejected_before_output(self, tmp_path, name):
        """A string once failed in the ordering test, with a message that
        named no setting."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got '0.1'$"):
            run_experiment(tiny_config(out, **{name: "0.1"}))
        assert not out.exists()

    @pytest.mark.parametrize("name", ["n_split", "max_ls_iters"])
    def test_trial_budget_above_300_rejected_before_output(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=f"^{name} must be <= 300$"):
            run_experiment(tiny_config(out, **{name: 301}))
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes",
        [dict(xi_g=[1e-3, 1.0000001e-3]), dict(seeds=[1, 1]),
         dict(xi_g=[1e-3, 1.0000001e-3], seeds=[1, 1]), dict(xi_f=[0.0, -0.0])],
        ids=["noise-level", "seed", "both", "negative-zero"],
    )
    def test_shared_run_key_rejected_before_output(self, tmp_path, axes):
        """Noise levels print with 6 significant digits in the run key, so
        two distinct levels, or a repeated seed, would give two cells one
        CSV and one summary entry.  -0.0 is 0.0: it once ran the noiseless
        cell a second time, under the key ``..._xif-0_...``."""
        out = tmp_path / "out"
        key = "TRIDIA_bfgs_xif0_xig0.001_om1_seed1"
        with pytest.raises(ConfigError, match=f"^two run cells share the run key '{key}'$"):
            run_experiment(tiny_config(out, **{"seeds": [1], "max_iters": 5, **axes}))
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_diagnostics_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="^diagnostics must be a bool, got "):
            tiny_config(tmp_path, diagnostics=value).validate()

    def test_block_length_under_the_constant_schedule_rejected_before_output(self, tmp_path):
        """n_noise was silently ignored, and the run had constant noise."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^n_noise is only for the intermittent schedule$"):
            run_experiment(tiny_config(out, n_noise=5))
        assert not out.exists()

    def test_numeric_settings_are_held_as_python_numbers(self, tmp_path):
        config = tiny_config(
            tmp_path, xi_f=[Fraction(1, 1000)], xi_g=[np.float32(0.5)], omega=[np.int64(2)],
            seeds=[np.int64(3)], max_iters=np.int64(4), c1=Fraction(1, 10), memory=np.int8(5),
            schedule="intermittent", n_noise=np.uint8(2),
        )
        config.validate()
        assert (config.xi_f, config.xi_g, config.omega) == ([0.001], [0.5], [2.0])
        numbers = [*config.xi_f, *config.xi_g, *config.omega, config.c1]
        assert {type(value) for value in numbers} == {float}
        integers = [*config.seeds, config.max_iters, config.memory, config.n_noise]
        assert integers == [3, 4, 5, 2]
        assert {type(value) for value in integers} == {int}

    def test_valid_config_passes(self, tmp_path):
        tiny_config(tmp_path).validate()


class TestTraceCsv:
    def trace(self):
        prob = registry_lookup("TRIDIA")
        return run(
            prob,
            NoiseSpec(xi_f=1e-3, xi_g=1e-3, seed=3),
            SolverConfig(variant=Variant.BFGS_E, max_iters=10, diagnostics=True),
        )

    def test_header_and_row_count(self, tmp_path):
        trace = self.trace()
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == README_TRACE_HEADER == TRACE_HEADER
        assert len(lines) == len(trace.records) + 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_RECORDS, min_size=1, max_size=5))
    @example([
        IterationRecord(
            k=0, phi_true=-0.0, gap=math.inf, grad_norm_true=5e-324, f_noisy=-math.inf,
            alpha=2.2250738585072009e-308, beta=None, split_active=False,
            cum_f_evals=1, cum_g_evals=1, kappa_H=None, lambda_min_B=None,
            lambda_max_B=None, pair_action="skipped",
        )
    ])
    def test_any_record_reads_back_exactly(self, tmp_path_factory, records):
        """Every value of every column, None included, reads back with its
        type and all its bits (repr tells -0.0 from 0.0)."""
        path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        write_trace_csv(path, SimpleNamespace(records=records))
        assert repr(read_trace_csv(path)) == repr([asdict(r) for r in records])

    def test_roundtrip_is_exact(self, tmp_path):
        """17-significant-digit serialization reproduces every float bit."""
        trace = self.trace()
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        rows = read_trace_csv(path)
        assert len(rows) == len(trace.records)
        for row, record in zip(rows, trace.records):
            assert row["k"] == record.k
            assert row["phi_true"] == record.phi_true
            assert row["gap"] == record.gap
            assert row["alpha"] == record.alpha
            assert row["beta"] == record.beta
            assert row["split_active"] == record.split_active
            assert row["kappa_H"] == record.kappa_H
            assert row["pair_action"] == record.pair_action

    def test_absent_diagnostics_serialize_empty(self, tmp_path):
        prob = registry_lookup("TRIDIA")
        trace = run(prob, NoiseSpec(), SolverConfig(variant=Variant.LBFGS, max_iters=4))
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        body = path.read_text().splitlines()[1]
        # kappa_H, lambda_min_B, lambda_max_B are the three empty fields
        assert ",,," in body
        rows = read_trace_csv(path)
        assert rows[0]["kappa_H"] is None


class TestRunExperiment:
    def test_csv_per_cell_and_summary(self, tmp_path):
        config = tiny_config(tmp_path)
        summary = run_experiment(config)
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(csvs) == 2  # one problem x one method x two seeds
        assert (tmp_path / "summary.json").exists()
        assert summary["errors"] == {}
        assert len(summary["runs"]) == 2
        entry = next(iter(summary["runs"].values()))
        for key in (
            "key", "problem", "method", "xi_f", "xi_g", "omega", "seed",
            "final_gap", "final_grad_norm_true", "iterations",
            "first_split_iteration", "termination_reason", "f_evals",
            "g_evals",
        ):
            assert key in entry

    def test_summary_file_matches_return(self, tmp_path):
        summary = run_experiment(tiny_config(tmp_path))
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["runs"] == summary["runs"]
        assert on_disk["medians"] == summary["medians"]

    def test_runs_sorted_by_key(self, tmp_path):
        config = tiny_config(tmp_path, seeds=[5, 1, 3])
        summary = run_experiment(config)
        keys = list(summary["runs"])
        assert keys == sorted(keys)
        for key, entry in summary["runs"].items():
            assert entry["key"] == key

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(tiny_config(out1))
        run_experiment(tiny_config(out2))
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_settings_write_the_bytes_of_python_ones(self, tmp_path):
        """summary.json once failed to serialise an np.int64 after every run,
        and was left truncated."""
        settings = dict(
            xi_f=[1e-3], xi_g=[0.1], omega=[0.5], seeds=[1, 2], max_iters=6,
            g_eval_budget=20, schedule="intermittent", n_noise=2,
        )
        as_numpy = dict(
            xi_f=[np.float64(1e-3)], xi_g=[np.float64(0.1)], omega=[np.float64(0.5)],
            seeds=[np.int64(1), np.int64(2)], max_iters=np.int64(6),
            g_eval_budget=np.int64(20), n_noise=np.int64(2),
        )
        run_experiment(tiny_config(tmp_path / "python", **settings))
        run_experiment(tiny_config(tmp_path / "numpy", **{**settings, **as_numpy}))
        written = {
            side: {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
            for side in ("python", "numpy")
        }
        assert len(written["python"]) == 3
        assert written["numpy"] == written["python"]

    @pytest.mark.parametrize(
        "level", [np.float32(1e-3), Fraction(1, 1000)], ids=["float32", "Fraction"]
    )
    def test_float32_and_fraction_levels_write_a_readable_summary(self, tmp_path, level):
        """A Fraction once failed in the run key's format, and a float32 in
        summary.json."""
        summary = run_experiment(tiny_config(tmp_path, xi_g=[level]))
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        assert summary["errors"] == {}
        assert summary["config"]["xi_g"] == [float(level)]
        keys = [f"TRIDIA_bfgs_xif0_xig0.001_om1_seed{seed}" for seed in (1, 2)]
        assert list(summary["runs"]) == keys

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        monkeypatch.setenv("QN_NOISE_THREADS", "1")
        run_experiment(tiny_config(out1, seeds=[1, 2, 3, 4]))
        monkeypatch.setenv("QN_NOISE_THREADS", "8")
        run_experiment(tiny_config(out2, seeds=[1, 2, 3, 4]))
        for p1 in sorted(out1.glob("*.csv")):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes()

    def test_process_pool_matches_serial_with_failing_cell(self, tmp_path, monkeypatch):
        """A run that raises inside a worker process is reported exactly as
        in the serial path: same CSVs, same summary.json bytes.  The run
        raises because a directory takes the path of its CSV."""
        blocked = "QUAD(32,1,1e3)_bfgs_xif0_xig0_om1_seed1"
        config = ExperimentConfig(
            problems=["QUAD(32,1,1e3)"],
            methods=["bfgs"],
            xi_g=[0.0, 1e-1],
            seeds=[1],
            max_iters=80,
            out=str(tmp_path),
        )

        def sweep(threads: str):
            for path in tmp_path.iterdir():
                if path.is_file():
                    path.unlink()
            (tmp_path / f"{blocked}.csv").mkdir(exist_ok=True)
            monkeypatch.setenv("QN_NOISE_THREADS", threads)
            summary = run_experiment(config)
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir()) if p.is_file()}
            return summary, files

        serial, serial_files = sweep("1")
        pooled, pooled_files = sweep("2")
        assert list(serial["errors"]) == [blocked]
        assert serial["errors"][blocked].startswith("IsADirectoryError: ")
        assert len(serial["runs"]) == 1
        assert pooled_files == serial_files
        assert pooled == serial

    def test_small_problems_run_on_one_blas_thread(self, tmp_path, monkeypatch):
        controls = _openblas_thread_controls()
        if controls is None:
            pytest.skip("numpy carries no OpenBLAS of its own")
        get_threads = controls[0]
        before = get_threads()
        seen = {}
        solve = bench.run

        def recording(problem, spec, config):
            seen[problem.dim] = get_threads()
            return solve(problem, spec, config)

        monkeypatch.setattr(bench, "run", recording)
        monkeypatch.delenv("QN_NOISE_THREADS", raising=False)
        big = f"QUAD({SERIAL_BLAS_MAX_ORDER},1,10)"
        run_experiment(tiny_config(tmp_path, problems=["TRIDIA", big], seeds=[1], max_iters=2))
        assert seen == {100: 1, SERIAL_BLAS_MAX_ORDER: before}
        assert get_threads() == before

    def test_worker_count_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("QN_NOISE_THREADS", raising=False)
        assert _worker_count() == 1
        monkeypatch.setenv("QN_NOISE_THREADS", "3")
        assert _worker_count() == 3

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "QN_NOISE_THREADS must be >= 1"),
            ("x", "QN_NOISE_THREADS must be an integer, got 'x'"),
        ],
    )
    def test_worker_count_rejects_bad_values(self, monkeypatch, value, message):
        monkeypatch.setenv("QN_NOISE_THREADS", value)
        with pytest.raises(ConfigError) as info:
            _worker_count()
        assert str(info.value) == message

    def test_medians_grouped_without_seed(self, tmp_path):
        summary = run_experiment(tiny_config(tmp_path, seeds=[1, 2, 3]))
        assert len(summary["medians"]) == 1
        group = next(iter(summary["medians"].values()))
        gaps = sorted(r["final_gap"] for r in summary["runs"].values())
        assert group["final_gap_median"] == pytest.approx(gaps[1])
        assert group["seeds"] == [1, 2, 3]


def run_entry(problem, seed, gap, evals=100):
    return {
        "problem": problem,
        "seed": seed,
        "final_gap": gap,
        "evals_to_threshold": evals,
    }


class TestMoralesProfile:
    def test_gap_ratio_arithmetic(self):
        """log2(1e-6 / 1e-2) = log2(1e-4) ~ -13.2877."""
        new = [run_entry("A", 1, 1e-6)]
        old = [run_entry("A", 1, 1e-2)]
        points = morales_profile(new, old, mode="final-gap")
        assert points[0].problem == "A"
        assert points[0].value == pytest.approx(math.log2(1e-4), rel=1e-12)
        assert points[0].value == pytest.approx(-13.2877, abs=5e-5)

    def test_identical_runs_give_zero(self):
        runs = [run_entry("A", 1, 1e-3), run_entry("B", 1, 1e-5)]
        points = morales_profile(runs, [dict(r) for r in runs])
        assert all(p.value == 0.0 for p in points)

    def test_eval_mode(self):
        new = [run_entry("A", 1, 1e-3, evals=300)]
        old = [run_entry("A", 1, 1e-3, evals=600)]
        points = morales_profile(new, old, mode="evals-to-threshold")
        assert points[0].value == pytest.approx(-1.0)

    def test_seed_averaging(self):
        new = [run_entry("A", 1, 1e-4), run_entry("A", 2, 1e-2)]
        old = [run_entry("A", 1, 1e-2), run_entry("A", 2, 1e-2)]
        points = morales_profile(new, old)
        # mean of log2(1e-2) and log2(1) over the two seeds
        assert points[0].value == pytest.approx(0.5 * math.log2(1e-2))

    def test_sorted_ascending(self):
        new = [run_entry("A", 1, 1e-2), run_entry("B", 1, 1e-8), run_entry("C", 1, 1e-4)]
        old = [run_entry("A", 1, 1e-4), run_entry("B", 1, 1e-4), run_entry("C", 1, 1e-4)]
        points = morales_profile(new, old)
        values = [p.value for p in points]
        assert values == sorted(values)
        assert [p.problem for p in points] == ["B", "C", "A"]

    def test_mismatched_sets_error(self):
        new = [run_entry("A", 1, 1e-3)]
        old = [run_entry("B", 1, 1e-3)]
        with pytest.raises(ConfigError) as exc_info:
            morales_profile(new, old)
        assert "A" in str(exc_info.value) or "B" in str(exc_info.value)

    def test_nonpositive_gap_clamped_with_warning(self):
        new = [run_entry("A", 1, 0.0)]
        old = [run_entry("A", 1, 1e-2)]
        with pytest.warns(UserWarning):
            points = morales_profile(new, old)
        assert points[0].value == pytest.approx(math.log2(1e-16 / 1e-2))

    def test_unknown_mode_rejected(self):
        runs = [run_entry("A", 1, 1e-3)]
        with pytest.raises(ValueError, match="^unknown profile mode 'gap'$"):
            morales_profile(runs, runs, mode="gap")

    def test_different_seed_sets_error(self):
        with pytest.raises(ConfigError, match="^seed sets differ for A$"):
            morales_profile([run_entry("A", 1, 1e-3)], [run_entry("A", 2, 1e-3)])

    @pytest.mark.parametrize("side", ["new", "old", "both"])
    def test_eval_mode_counts_a_run_that_never_reached_it_at_its_g_evals(self, side):
        new = {**run_entry("A", 1, 1e-3, evals=300), "g_evals": 10**6}
        old = {**run_entry("A", 1, 1e-3, evals=600), "g_evals": 10**6}
        if side in ("new", "both"):
            new.update(evals_to_threshold=None, g_evals=300)
        if side in ("old", "both"):
            old.update(evals_to_threshold=None, g_evals=600)
        points = morales_profile([new], [old], mode="evals-to-threshold")
        assert points[0].value == pytest.approx(-1.0)


class TestConfigFile:
    def test_flat_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "problem = ARWHEAD\n"
            "method = bfgs-e\n"
            "xi-g = 1e-3\n"
            "seeds = 1 2 3\n"
            "max_iters = 50\n"
        )
        values = load_config_file(cfg)
        assert values["problems"] == ["ARWHEAD"]
        assert values["methods"] == ["bfgs-e"]
        assert values["xi_g"] == [1e-3]
        assert values["seeds"] == [1, 2, 3]
        assert values["max_iters"] == 50

    def test_bad_line_reports_location(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = ARWHEAD\nmax_iters = soon\n")
        with pytest.raises(ConfigError) as exc_info:
            load_config_file(cfg)
        assert "exp.cfg" in str(exc_info.value)
        assert "2" in str(exc_info.value)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("turbo = yes\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_line_without_equals_reports_location(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = ARWHEAD\nmethod bfgs  # no equals sign\n")
        message = f"{cfg}:2: expected key = value, got 'method bfgs  # no equals sign'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config_file(cfg)

    @pytest.mark.parametrize(
        "text, value",
        [("1", True), ("yes", True), ("On", True), ("0", False), ("false", False),
         ("No", False), (" off ", False)],
    )
    def test_bool_setting_values(self, tmp_path, text, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"diagnostics ={text}\n")
        assert load_config_file(cfg) == {"diagnostics": value}

    def test_bool_setting_rejects_other_text(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("diagnostics = maybe\n")
        with pytest.raises(ConfigError, match="^expected a boolean, got 'maybe'$"):
            load_config_file(cfg)

    @pytest.mark.parametrize(
        "text, names",
        [
            (
                "ARWHEAD, CRAGGLVY, DQDRTIC, ENGVAL1, GENROSE, NONDIA, TRIDIA, WOODS, "
                "QUAD(32,1,1e3)",
                ["ARWHEAD", "CRAGGLVY", "DQDRTIC", "ENGVAL1", "GENROSE", "NONDIA",
                 "TRIDIA", "WOODS", "QUAD(32,1,1e3)"],
            ),
            ("QUAD(50, 1, 100), ARWHEAD", ["QUAD(50, 1, 100)", "ARWHEAD"]),
            (",", []),
            ("a,,b", ["a", "b"]),
            ("QUAD((5),1,2), X", ["QUAD((5),1,2)", "X"]),
            ("a b\tc", ["a", "b", "c"]),
            ("a\t,\t b", ["a", "b"]),
            ("a,b,", ["a", "b"]),
            (",a", ["a"]),
            ("a , b", ["a", "b"]),
            ("bfgs, lbfgs, bfgs-skip", ["bfgs", "lbfgs", "bfgs-skip"]),
            ("QUAD( 8 , 1 , 10 )", ["QUAD( 8 , 1 , 10 )"]),
            ("QUAD(8,1,10) QUAD(4,1,2)", ["QUAD(8,1,10)", "QUAD(4,1,2)"]),
            ("(a,b),c", ["(a,b)", "c"]),
        ],
        ids=[
            "matrix", "spaced-quad", "comma", "empty-part", "nested", "tab", "tabs-and-comma",
            "trailing-comma", "leading-comma", "spaced-comma", "methods", "spaces-in-quad",
            "two-quads", "bare-parentheses",
        ],
    )
    def test_list_splits_on_commas_and_spaces_outside_parentheses(self, tmp_path, text, names):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problems = {text}\n")
        assert load_config_file(cfg) == {"problems": names}

    @pytest.mark.parametrize("text", ["none", "None", ""])
    @pytest.mark.parametrize("key", ["g_eval_budget", "n_noise"])
    def test_none_for_an_optional_setting(self, tmp_path, key, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {text}\n")
        assert load_config_file(cfg) == {key: None}


class TestCli:
    def test_run_single(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "TRIDIA", "--method", "bfgs",
            "--xi-g", "1e-3", "--seed", "1", "--max-iters", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 1
        out = capsys.readouterr().out
        assert "TRIDIA" in out

    def test_sweep_multiple_cells(self, tmp_path):
        code = main([
            "sweep", "--problem", "TRIDIA", "--problem", "ARWHEAD",
            "--method", "bfgs", "--method", "bfgs-e",
            "--xi-g", "1e-3", "--seed", "1", "--seed", "2",
            "--max-iters", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 8

    def test_unknown_problem_is_config_error(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "NOPE", "--method", "bfgs",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("QUAD(0,1,10)", "dim must be positive"),
            ("QUAD(4,10,1)", "need 0 < m <= M"),
            ("QUAD(4,1,10,-3)", "seed must be non-negative"),
            ("QUAD(4,1,inf)", "m and M must be finite"),
            ("QUAD(4,1,nan)", "m and M must be finite"),
        ],
    )
    def test_bad_inline_quadratic_is_config_error(self, tmp_path, capsys, spec, message):
        out = tmp_path / "out"
        code = main([
            "sweep", "--problem", spec, "--method", "bfgs", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: problem {spec!r}: {message}\n"
        assert not out.exists()

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "TRIDIA", "--method", "adam",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_registered_problem_with_bad_start_point_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A 2-D x0 once failed every run of the problem with a TypeError."""
        monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
        tridia = registry_lookup("TRIDIA")
        problems.register("FLAT", lambda: replace(tridia, name="FLAT", x0=np.ones((10, 10))))
        out = tmp_path / "out"
        code = main([
            "sweep", "--problem", "FLAT", "--method", "bfgs", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: problem 'FLAT': x0 must be a non-empty 1-D array of real numbers, "
            "got shape (10, 10) of float64\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("phi_star", "0", "phi_star must be a finite real number, got '0'"),
            ("f_rows", "no", "f_rows must be a bool, got 'no'"),
        ],
        ids=["phi_star", "f_rows"],
    )
    def test_registered_problem_with_bad_reference_field_is_config_error(
        self, tmp_path, capsys, monkeypatch, field, value, message
    ):
        """phi_star = "0" once failed every run with a TypeError, and
        f_rows = "no" sent TRIDIA's kernel a stack of points it cannot take."""
        monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
        tridia = registry_lookup("TRIDIA")
        problems.register("BAD", lambda: replace(tridia, name="BAD", **{field: value}))
        out = tmp_path / "out"
        code = main([
            "sweep", "--problem", "BAD", "--method", "bfgs", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: problem 'BAD': {message}\n"
        assert not out.exists()

    def test_failed_run_is_reported_on_stderr(self, tmp_path, capsys):
        """A run that raises is named with its error, and the others run on;
        here a directory takes the path of one run's CSV."""
        blocked = "TRIDIA_bfgs_xif0_xig0_om1_seed1"
        (tmp_path / f"{blocked}.csv").mkdir()
        code = main([
            "sweep", "--problem", "TRIDIA", "--method", "bfgs", "--seed", "1", "--seed", "2",
            "--max-iters", "3", "--out", str(tmp_path),
        ])
        assert code == 3
        out, err = capsys.readouterr()
        assert re.fullmatch(f"{blocked}: FAILED \\(IsADirectoryError: .*\\)\n", err)
        assert "TRIDIA_bfgs_xif0_xig0_om1_seed2: termination=max_iterations" in out

    def test_unbalanced_parenthesis_in_a_config_list_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problems = QUAD(5,1\nmethods = bfgs\nseeds = 1\n")
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown problem 'QUAD(5")
        assert not out.exists()

    def test_negative_zero_noise_level_keys_as_zero(self, tmp_path):
        code = main([
            "run", "--problem", "TRIDIA", "--method", "bfgs", "--xi-f", "-0.0",
            "--seed", "1", "--max-iters", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        key = "TRIDIA_bfgs_xif0_xig0_om1_seed1"
        assert [p.name for p in tmp_path.glob("*.csv")] == [f"{key}.csv"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert math.copysign(1.0, summary["runs"][key]["xi_f"]) == 1.0

    def test_block_length_under_the_constant_schedule_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--problem", "ARWHEAD", "--method", "bfgs", "--seed", "1",
            "--n-noise", "5", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: n_noise is only for the intermittent schedule\n"
        assert not out.exists()

    def test_bad_later_noise_value_is_config_error(self, tmp_path, capsys):
        code = main([
            "sweep", "--problem", "TRIDIA", "--method", "bfgs",
            "--xi-g", "1e-3", "--xi-g", "-1", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "xi_g" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--memory", "0"), ("--memory", "1180591620717411303424"), ("--memory", "1000000"),
         ("--max-iters", "0"), ("--g-eval-budget", "0"),
         ("--history-h", "0"), ("--c3", "nan"), ("--c3", "inf")],
    )
    def test_bad_solver_setting_is_config_error(self, tmp_path, flag, value):
        out = tmp_path / "out"
        code = main([
            "sweep", "--problem", "TRIDIA", "--method", "bfgs",
            "--seed", "1", flag, value, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes",
        [
            ["--xi-g", "1e-3", "--xi-g", "1.0000001e-3", "--seed", "1"],
            ["--xi-g", "1e-3", "--seed", "1", "--seed", "1"],
        ],
        ids=["noise-level", "seed"],
    )
    def test_shared_run_key_is_config_error(self, tmp_path, capsys, axes):
        out = tmp_path / "out"
        code = main([
            "sweep", "--problem", "TRIDIA", "--method", "bfgs", "--max-iters", "5",
            *axes, "--out", str(out),
        ])
        assert code == 2
        key = "TRIDIA_bfgs_xif0_xig0.001_om1_seed1"
        assert capsys.readouterr().err == f"error: two run cells share the run key '{key}'\n"
        assert not out.exists()

    def test_run_requires_single_values(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "TRIDIA", "--method", "bfgs",
            "--seed", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "problem = TRIDIA\nmethod = bfgs\nseed = 1\nmax_iters = 30\n"
        )
        out = tmp_path / "runs"
        code = main([
            "run", "--config", str(cfg), "--max-iters", "6", "--out", str(out),
        ])
        assert code == 0
        rows = read_trace_csv(next(iter(out.glob("*.csv"))))
        assert len(rows) == 6

    def test_profile_subcommand(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main([
            "sweep", "--problem", "TRIDIA", "--method", "bfgs",
            "--method", "bfgs-e", "--xi-g", "1e-2", "--seed", "1", "--seed", "2",
            "--max-iters", "40", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        profile_csv = tmp_path / "profile.csv"
        code = main([
            "profile", "--summary", str(out / "summary.json"),
            "--new-method", "bfgs-e", "--old-method", "bfgs",
            "--mode", "final-gap", "--out", str(profile_csv),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "TRIDIA" in printed
        assert profile_csv.exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read config file {cfg}: No such file or directory\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read summary {path}: No such file or directory"),
            ("nope", "summary {path} is not JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "summary {path} has no object of runs"),
            ('{"runs": {"A": {"method": "bfgs"}}}', "a run in {path} has no 'xi_f' entry"),
        ],
        ids=["missing", "not-json", "not-an-object", "missing-key"],
    )
    def test_bad_profile_summary_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "summary.json"
        if text is not None:
            path.write_text(text)
        code = main([
            "profile", "--summary", str(path), "--new-method", "bfgs", "--old-method", "bfgs",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        code = main([
            "run", "--problem", "TRIDIA", "--method", "bfgs", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: out {str(out)!r}: {out} is not a directory\n"
        assert out.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize(
        "parent, reason",
        [("nodir", "No such file or directory"), ("afile", "Not a directory")],
        ids=["missing-directory", "under-a-file"],
    )
    def test_profile_out_that_cannot_be_written_is_config_error(
        self, tmp_path, capsys, parent, reason
    ):
        """The profile is neither printed nor written."""
        runs = {
            method: {**run_entry("A", 1, 1e-3), "method": method, "xi_f": 0.0, "xi_g": 1e-3,
                     "omega": 1.0}
            for method in ("bfgs", "bfgs-e")
        }
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"runs": runs}))
        (tmp_path / "afile").write_text("kept\n")
        out = tmp_path / parent / "p.csv"
        code = main([
            "profile", "--summary", str(summary), "--new-method", "bfgs-e",
            "--old-method", "bfgs", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: out {str(out)!r}: {reason}\n")
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize(
        "narrow, message",
        [
            (["--new-method", "lbfgs"], "no runs for method 'lbfgs' in {path}"),
            (["--xi-g", "0.5"], "no runs for method 'bfgs-e' in {path}"),
            ([], "method 'bfgs-e' spans several noise settings "
                 "[(0.0, 0.001, 1.0), (0.0, 0.1, 1.0)]; narrow with --xi-f/--xi-g/--omega"),
        ],
        ids=["unknown-method", "no-such-noise", "several-noise-settings"],
    )
    def test_profile_run_selection_errors(self, tmp_path, capsys, narrow, message):
        runs = {
            f"{method}{xi_g}": {**run_entry("A", 1, 1e-3), "method": method, "xi_f": 0.0,
                                "xi_g": xi_g, "omega": 1.0}
            for method in ("bfgs", "bfgs-e") for xi_g in (1e-3, 1e-1)
        }
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"runs": runs}))
        args = ["profile", "--summary", str(summary), "--new-method", "bfgs-e",
                "--old-method", "bfgs"]
        assert main([*args, "--xi-g", "1e-3"]) == 0
        capsys.readouterr()
        assert main([*args, *narrow]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(path=summary)}\n")

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--help"])
        assert exc_info.value.code == 0

    def test_entrypoint_runs_as_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "noisyqn", "run", "--problem", "TRIDIA",
             "--method", "bfgs", "--seed", "1", "--max-iters", "3",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr



# Every experiment flag that the README and the perfbench workloads use.
_EXPERIMENT_FLAGS = {
    "--problem", "--method", "--xi-f", "--xi-g", "--omega", "--seed",
    "--schedule", "--n-noise", "--noise-phase", "--max-iters", "--g-eval-budget",
    "--c1", "--c2", "--c3", "--n-split", "--max-ls-iters", "--max-lengthening",
    "--memory", "--history-h", "--diagnostics", "--out",
}
# The naming rule: a setting is known outside ExperimentConfig by its field
# name, except for these; a flag writes that name with hyphens.
_RENAMED = {"problems": "problem", "methods": "method", "seeds": "seed", "history": "history_h"}
_SETTING_TYPES = get_type_hints(ExperimentConfig)
_LIST_SETTINGS = [name for name, hint in _SETTING_TYPES.items() if get_origin(hint) is list]


def _flag(name: str) -> str:
    return "--" + _RENAMED.get(name, name).replace("_", "-")


def _sample_setting(name: str) -> tuple[str, object]:
    """(text, value): a value other than the default for setting ``name``."""
    hint = _SETTING_TYPES[name]
    if hint is bool:
        return "true", True
    if get_origin(hint) is Literal:
        return get_args(hint)[-1], get_args(hint)[-1]
    item = next(t for t in get_args(hint) or (hint,) if t is not type(None))
    text = {float: "0.25", int: "3", str: "x"}[item]
    return text, [item(text)] if get_origin(hint) is list else item(text)


class TestSettingNames:
    """Each ExperimentConfig field is a setting with one --flag and a
    config-file key under either of its names; each list field is a run
    axis."""

    @pytest.fixture
    def collected(self, monkeypatch):
        """The configs main hands to run_experiment, which does not run."""
        configs = []

        def fake_run(config):
            configs.append(config)
            return {"runs": {}, "errors": {}}

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        return configs

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_experiment_flag_is_kept(self, command):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = set(subparsers.choices[command]._option_string_actions)
        settings_flags = {_flag(name) for name in _SETTING_TYPES}
        assert _EXPERIMENT_FLAGS <= settings_flags <= options
        assert "--seeds" not in options

    @pytest.mark.parametrize("name", list(_SETTING_TYPES))
    def test_flag_and_config_keys_agree(self, name, tmp_path, collected):
        text, value = _sample_setting(name)
        assert main(["sweep", _flag(name)] + ([] if value is True else [text])) == 0
        outside = _RENAMED.get(name, name)
        spellings = {name, name.replace("_", "-"), outside, outside.replace("_", "-")}
        for key in sorted(spellings):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {text}\n")
            assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(collected) == 1 + len(spellings)
        assert all(config == ExperimentConfig(**{name: value}) for config in collected)

    @pytest.mark.parametrize("name", _LIST_SETTINGS)
    def test_list_settings_are_run_axes(self, name, collected):
        _, (value,) = _sample_setting(name)
        config = ExperimentConfig(**{axis: [0, 1] for axis in _LIST_SETTINGS})
        cells = replace(config, **{name: [0, 1, value]}).run_matrix()
        assert len(cells) == 3 * 2 ** (len(_LIST_SETTINGS) - 1)
        assert all(set(cell) == {_RENAMED.get(a, a) for a in _LIST_SETTINGS} for cell in cells)
        assert {cell[_RENAMED.get(name, name)] for cell in cells} == {0, 1, value}
        argv = ["run", "--problem", "TRIDIA", "--method", "bfgs", "--seed", "1"]
        assert main(argv + [_flag(name), "1", _flag(name), "2"]) == 2
        assert collected == []
