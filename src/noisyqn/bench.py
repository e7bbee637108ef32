"""Benchmark harness: run matrices of (problem, method, noise, seed),
persist per-run CSV traces and a JSON summary, and build comparison
profiles between two method families.

Determinism contract: given identical configs, reruns produce byte-identical
CSVs and summaries, independent of the number of worker processes (each run
owns its own seeded oracle; files and summaries are keyed and emitted in
sorted order).
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import warnings
from dataclasses import dataclass, field, fields
from itertools import product, repeat
from operator import attrgetter
from pathlib import Path
from typing import get_origin, get_type_hints

from .linalg import blas_threads_for
from .linesearch import LineSearchParams
from .noise import NoisePhase, NoiseSpec, Schedule
from .problems import Problem, UnknownProblemError, registry_lookup
from .solver import IterationRecord, RunTrace, SolverConfig, Variant, run

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "ProfilePoint",
    "run_experiment",
    "morales_profile",
    "write_trace_csv",
    "read_trace_csv",
]

# Seventeen significant digits give back every bit of a float.
_format_float = "{:.17g}".format

# How a trace cell of each IterationRecord field type is written and read:
# (format, parse), None being the empty cell.  The writer makes one call per
# cell, so a builtin is used wherever one does the job.
_CELL_CODECS = {
    int: (str, int),
    bool: ({False: "0", True: "1"}.__getitem__, lambda text: bool(int(text))),
    str: (str, str),
    float: (_format_float, float),
    float | None: (
        lambda value: "" if value is None else _format_float(value),
        lambda text: float(text) if text else None,
    ),
}

# The trace columns are IterationRecord's fields, in order.
_RECORD_TYPES = get_type_hints(IterationRecord)
_COLUMNS = {f.name: _CELL_CODECS[_RECORD_TYPES[f.name]] for f in fields(IterationRecord)}
TRACE_HEADER = ",".join(_COLUMNS)
_ROW_VALUES = attrgetter(*_COLUMNS)
_FORMATTERS = tuple(fmt for fmt, _ in _COLUMNS.values())

THREADS_ENV_VAR = "QN_NOISE_THREADS"

# Gaps at or below zero are clamped to this before log-ratio profiles.
GAP_FLOOR = 1e-16


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ProfilePoint:
    problem: str
    value: float


# The name of an ExperimentConfig setting outside the class, where it differs
# from the field's: a run axis goes by its singular in a run cell.  Each
# setting's CLI flag is this name with hyphens; a config file takes either.
SETTING_NAMES = {
    "problems": "problem",
    "methods": "method",
    "seeds": "seed",
    "history": "history_h",
}


def setting_name(name: str) -> str:
    """The outside name of the ExperimentConfig field ``name``."""
    return SETTING_NAMES.get(name, name)


@dataclass
class ExperimentConfig:
    """A (cartesian) matrix of runs plus shared solver settings.

    The fields are the experiment's settings.  Each list field is a run
    axis, and every other field that shares its name with a field of
    ``NoiseSpec``, ``LineSearchParams`` or ``SolverConfig`` is handed on to
    it, taking its default from there.
    """

    problems: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    xi_f: list[float] = field(default_factory=lambda: [NoiseSpec.xi_f])
    xi_g: list[float] = field(default_factory=lambda: [NoiseSpec.xi_g])
    omega: list[float] = field(default_factory=lambda: [NoiseSpec.omega])
    seeds: list[int] = field(default_factory=list)
    schedule: Schedule = NoiseSpec.schedule
    n_noise: int | None = NoiseSpec.n_noise
    noise_phase: NoisePhase = NoiseSpec.noise_phase
    max_iters: int = SolverConfig.max_iters
    g_eval_budget: int | None = SolverConfig.g_eval_budget
    c1: float = LineSearchParams.c1
    c2: float = LineSearchParams.c2
    c3: float = LineSearchParams.c3
    n_split: int = LineSearchParams.n_split
    max_ls_iters: int = LineSearchParams.max_ls_iters
    max_lengthening: int = LineSearchParams.max_lengthening
    memory: int = SolverConfig.memory
    history: int = LineSearchParams.history
    diagnostics: bool = SolverConfig.diagnostics
    out: str = "qn_noise_out"

    def validate(self) -> None:
        if not isinstance(self.out, (str, os.PathLike)):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        out = Path(self.out)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"out {self.out!r}: {existing} is not a directory")
        for name in RUN_AXES:
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {values!r}")
            if not values:
                raise ConfigError(f"no {name} given")
        spelled = {}  # each Problem.name's first spelling in problems
        for name in self.problems:
            try:
                problem = registry_lookup(name)
            except UnknownProblemError as exc:
                raise ConfigError(str(exc)) from exc
            except ValueError as exc:
                raise ConfigError(f"problem {name!r}: {exc}") from exc
            first = spelled.setdefault(problem.name, name)
            if first != name:
                raise ConfigError(f"problems {first!r} and {name!r} name the same problem")
        for method in self.methods:
            try:
                Variant(method)
            except ValueError as exc:
                known = ", ".join(v.value for v in Variant)
                raise ConfigError(
                    f"unknown method {method!r}; choose from: {known}"
                ) from exc
        try:
            # Before any run key is formatted, which needs real noise levels.
            self._check_settings()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        # One key names one run's CSV and summary entry, and noise levels print
        # with 6 significant digits; sorted, keys that are shared are neighbours.
        keys = sorted(map(_run_key, self._cells()))
        for key, following in zip(keys, keys[1:]):
            if key == following:
                raise ConfigError(f"two run cells share the run key {key!r}")

    def _check_settings(self) -> None:
        """Give each field the value its settings class holds, so that a
        numeric setting is a Python number.  Every method shares the solver
        settings, and no noise setting depends on another, so each value of
        a run axis is checked once, with the other axes at their first."""
        solver = self.solver_config(self.methods[0])
        first = dict(zip(_CELL_KEYS, (getattr(self, name)[0] for name in RUN_AXES)))
        for settings in (solver, solver.ls, self.noise_spec(first)):
            for f in fields(settings):
                if f.name in SETTING_TYPES and f.name not in RUN_AXES:
                    setattr(self, f.name, getattr(settings, f.name))
        for name, key in zip(RUN_AXES, _CELL_KEYS):
            if key in _NOISE_LEVELS:
                specs = [self.noise_spec({**first, key: value}) for value in getattr(self, name)]
                setattr(self, name, [getattr(spec, key) for spec in specs])

    def _settings_of(self, cls, **given):
        """A ``cls`` built from the given values and this config's fields
        of the same names."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}
        return cls(**given, **shared)

    def solver_config(self, method: str) -> SolverConfig:
        return self._settings_of(
            SolverConfig, variant=Variant(method), ls=self._settings_of(LineSearchParams)
        )

    def noise_spec(self, cell: dict) -> NoiseSpec:
        """The noise of one run cell."""
        levels = {name: cell[name] for name in _NOISE_LEVELS}
        return self._settings_of(NoiseSpec, **levels)

    def _cells(self) -> list[dict]:
        """All run descriptors, in the order of the axes' product."""
        axes = [getattr(self, name) for name in RUN_AXES]
        return [dict(zip(_CELL_KEYS, values)) for values in product(*axes)]

    def run_matrix(self) -> list[dict]:
        """All run descriptors in deterministic (sorted-key) order."""
        return sorted(self._cells(), key=_run_key)


# ExperimentConfig's field types, in field order.  Its list fields are the
# run axes, and a run cell names each by its setting name.
SETTING_TYPES = get_type_hints(ExperimentConfig)
RUN_AXES = tuple(name for name, hint in SETTING_TYPES.items() if get_origin(hint) is list)
_CELL_KEYS = tuple(map(setting_name, RUN_AXES))
_NOISE_LEVELS = ("xi_f", "xi_g", "omega", "seed")  # the cell keys NoiseSpec takes


def _group_key(cell: dict) -> str:
    """A cell's key without its seed: the cells that one median spans."""
    return (
        f"{cell['problem']}_{cell['method']}_xif{cell['xi_f']:g}"
        f"_xig{cell['xi_g']:g}_om{cell['omega']:g}"
    )


def _run_key(cell: dict) -> str:
    return f"{_group_key(cell)}_seed{cell['seed']}"


def write_trace_csv(path: str | Path, trace: RunTrace) -> None:
    # Column by column, so that each formatter is mapped over a whole column.
    columns = zip(*map(_ROW_VALUES, trace.records))
    cells = [map(fmt, column) for fmt, column in zip(_FORMATTERS, columns)]
    lines = [TRACE_HEADER, *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path: str | Path) -> list[dict]:
    """Parse a trace CSV back into row dicts (None for empty optional fields)."""
    with open(path, newline="") as fh:
        return [
            {key: _COLUMNS[key][1](text) for key, text in raw.items()}
            for raw in csv.DictReader(fh)
        ]


def _execute_cell(cell: dict, config: ExperimentConfig, out_dir: Path) -> dict:
    problem = registry_lookup(cell["problem"])
    spec = config.noise_spec(cell)
    solver_config = config.solver_config(cell["method"])
    with blas_threads_for(problem.dim):
        trace = run(problem, spec, solver_config)
    key = _run_key(cell)
    write_trace_csv(out_dir / f"{key}.csv", trace)
    return {
        "key": key,
        **cell,
        "final_phi_true": trace.final_phi_true,
        "final_gap": trace.final_gap,
        "final_grad_norm_true": trace.final_grad_norm_true,
        "iterations": len(trace.records),
        "first_split_iteration": trace.first_split_iteration,
        "termination_reason": trace.termination_reason,
        "f_evals": trace.f_evals,
        "g_evals": trace.g_evals,
        "evals_to_threshold": trace.evals_to_threshold,
    }


def _run_cell(
    cell: dict, config: ExperimentConfig, out_dir: Path
) -> tuple[str, dict | None, str | None]:
    """(key, summary entry, None), or (key, None, "Type: message") when the
    run raised.  Module-level so that worker processes can unpickle it."""
    key = _run_key(cell)
    try:
        return key, _execute_cell(cell, config, out_dir), None
    except Exception as exc:  # noqa: BLE001 - reported per run
        return key, None, f"{type(exc).__name__}: {exc}"


def _worker_count() -> int:
    """Worker processes for a sweep: ``QN_NOISE_THREADS``, default 1.

    The solver holds the GIL, so only processes run cells in parallel; each
    one costs about as much memory as the parent, which is why the default
    runs every cell in the calling process.
    """
    value = os.environ.get(THREADS_ENV_VAR)
    if value is None:
        return 1
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {value!r}") from exc
    if count < 1:
        raise ConfigError(f"{THREADS_ENV_VAR} must be >= 1")
    return count


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute every run in the matrix; write CSVs and summary.json.

    Cells run one after another in this process unless ``QN_NOISE_THREADS``
    asks for more than one worker and there is more than one cell; then they
    run in that many worker processes (at most one per cell).  Workers are
    spawned: they import ``noisyqn`` afresh and re-import the main script,
    so a script that starts a sweep needs the ``__main__`` guard, and a
    problem added with ``register`` is seen by workers only when the
    registration runs on import of the main script or a module it imports.

    Returns the summary dict.  Individual run failures are captured per-run
    (key -> error) rather than aborting the sweep.
    """
    config.validate()
    cells = config.run_matrix()
    workers = min(_worker_count(), len(cells))
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers == 1:
        outcomes = [_run_cell(cell, config, out_dir) for cell in cells]
    else:
        # Imported here: the process pool's import costs the serial
        # default about 40 ms of start-up.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # spawn, not fork: numpy's BLAS threads make fork unsafe.
        context = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            outcomes = list(pool.map(_run_cell, cells, repeat(config), repeat(out_dir)))
    results: dict[str, dict] = {}
    errors: dict[str, str] = {}
    for key, entry, error in outcomes:
        if error is None:
            results[key] = entry
        else:
            errors[key] = error

    medians = _group_medians(results)
    summary = {
        "config": {name: getattr(config, name) for name in SETTING_TYPES if name != "out"},
        "runs": {key: results[key] for key in sorted(results)},
        "medians": medians,
        "errors": {key: errors[key] for key in sorted(errors)},
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _group_medians(results: dict[str, dict]) -> dict[str, dict]:
    groups: dict[str, list[dict]] = {}
    for entry in results.values():
        groups.setdefault(_group_key(entry), []).append(entry)
    medians = {}
    for gkey in sorted(groups):
        entries = groups[gkey]
        medians[gkey] = {
            "seeds": sorted(e["seed"] for e in entries),
            "final_gap_median": statistics.median(e["final_gap"] for e in entries),
            "final_grad_norm_median": statistics.median(
                e["final_grad_norm_true"] for e in entries
            ),
            "g_evals_median": statistics.median(float(e["g_evals"]) for e in entries),
        }
    return medians


def _clamped_gap(entry: dict) -> float:
    gap = entry["final_gap"]
    if gap <= 0.0:
        label = entry.get("key", f"{entry['problem']}/seed{entry['seed']}")
        warnings.warn(
            f"run {label} has non-positive gap {gap:g}; clamped to {GAP_FLOOR:g}",
            stacklevel=3,
        )
        return GAP_FLOOR
    return gap


def morales_profile(
    runs_new: list[dict], runs_old: list[dict], mode: str = "final-gap"
) -> list[ProfilePoint]:
    """Per-problem log2 ratios comparing two run sets, sorted ascending.

    mode "final-gap" compares final optimality gaps; "evals-to-threshold"
    compares gradient evaluations needed to reach the noise-level stopping
    test (runs that never reached it count at their consumed evaluations).
    Ratios are computed per matching seed and averaged per problem; negative
    values favor the "new" runs.
    """
    if mode not in ("final-gap", "evals-to-threshold"):
        raise ValueError(f"unknown profile mode {mode!r}")

    def index(runs: list[dict]) -> dict[str, dict[int, dict]]:
        table: dict[str, dict[int, dict]] = {}
        for entry in runs:
            table.setdefault(entry["problem"], {})[entry["seed"]] = entry
        return table

    new_table, old_table = index(runs_new), index(runs_old)
    if set(new_table) != set(old_table):
        raise ConfigError(
            f"problem sets differ: {sorted(set(new_table) ^ set(old_table))}"
        )
    points = []
    for problem in sorted(new_table):
        new_seeds, old_seeds = new_table[problem], old_table[problem]
        if set(new_seeds) != set(old_seeds):
            raise ConfigError(f"seed sets differ for {problem}")
        ratios = []
        for seed in sorted(new_seeds):
            if mode == "final-gap":
                value = math.log2(
                    _clamped_gap(new_seeds[seed]) / _clamped_gap(old_seeds[seed])
                )
            else:
                new_evals = new_seeds[seed]["evals_to_threshold"]
                old_evals = old_seeds[seed]["evals_to_threshold"]
                if new_evals is None:
                    new_evals = new_seeds[seed]["g_evals"]
                if old_evals is None:
                    old_evals = old_seeds[seed]["g_evals"]
                value = math.log2(new_evals / old_evals)
            ratios.append(value)
        points.append(ProfilePoint(problem, sum(ratios) / len(ratios)))
    points.sort(key=lambda pt: pt.value)
    return points
