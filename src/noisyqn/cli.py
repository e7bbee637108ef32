"""Command-line interface.

Subcommands:
  run      execute a single (problem, method, noise, seed) and write its CSV
  sweep    execute a full experiment matrix
  profile  compare two methods from a sweep's summary.json

Every experiment key can come from a flat ``key = value`` config file
(``--config``); explicit CLI flags override file values, which override
defaults.  Exit codes: 0 all runs completed, 3 some runs failed, 2 bad
configuration or input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Literal, get_args, get_origin

from .bench import (
    RUN_AXES,
    SETTING_TYPES,
    ConfigError,
    ExperimentConfig,
    morales_profile,
    run_experiment,
    setting_name,
)
from .solver import Variant

__all__ = ["main", "build_parser", "load_config_file"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# Config-file keys: each setting's field name and its setting name.
_KEYS = {key: name for name in SETTING_TYPES for key in (name, setting_name(name))}


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key=value config file into ExperimentConfig kwargs."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _KEYS[key]
        try:
            values[name] = _convert(SETTING_TYPES[name], text.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _split_names(text: str) -> list[str]:
    """Split a list on commas/whitespace, but not inside parentheses, so
    inline quadratic specs like QUAD(50,1,100) survive intact."""
    parts: list[str] = []
    buf: list[str] = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if depth == 0 and (ch == "," or ch.isspace()):
            if buf:
                parts.append("".join(buf))
                buf = []
            continue
        buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


def _item_type(field_type):
    """The type of one value of a field: float for ``list[float]``, int for
    ``int | None``, str for a ``Literal`` of strings, the field type itself
    otherwise."""
    if get_origin(field_type) is Literal:
        return type(get_args(field_type)[0])
    return next((t for t in get_args(field_type) if t is not type(None)), field_type)


def _convert(field_type, text: str):
    """Parse config-file text into a value of the given field type."""
    item = _item_type(field_type)
    if get_origin(field_type) is list:
        return [item(part) for part in _split_names(text)]
    if field_type is bool:
        return _parse_bool(text)
    if type(None) in get_args(field_type) and text.lower() in ("", "none"):
        return None
    return item(text)


# The run axes that `profile` can narrow a method's runs by.
_NOISE_AXES = ("xi_f", "xi_g", "omega")

# Metavars of the numeric flags; a text flag shows its setting name.
_METAVARS = {float: "V", int: "N"}


def _flag(name: str) -> str:
    """The CLI flag of the ExperimentConfig field ``name``."""
    return "--" + setting_name(name).replace("_", "-")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field, named after its setting name.

    Defaults are all None so that "flag was given" is detectable; actual
    defaults live on ExperimentConfig.  Each flag stores to its field name.
    A list field takes a repeatable flag (repeatable even for `run`, so that
    a repeated flag is caught by its exactly-one check instead of silently
    keeping the last value).
    """
    for name, field_type in SETTING_TYPES.items():
        item, origin = _item_type(field_type), get_origin(field_type)
        if field_type is bool:
            extra = {"action": "store_const", "const": True, "default": None}
        elif origin is Literal:
            extra = {"type": item, "choices": get_args(field_type)}
        else:
            extra = {"type": item, "metavar": _METAVARS.get(item, setting_name(name).upper())}
        if origin is list:
            extra.update(action="append", help="repeatable (run takes one)")
        parser.add_argument(_flag(name), dest=name, **extra)
    parser.add_argument("--config", metavar="FILE", help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    methods = ", ".join(v.value for v in Variant)
    parser = argparse.ArgumentParser(
        prog="qn-noise",
        description="Noise-tolerant quasi-Newton benchmark harness "
        f"(methods: {methods})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single run, one CSV")
    _add_experiment_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="full experiment matrix")
    _add_experiment_flags(sweep_p)

    prof_p = sub.add_parser("profile", help="compare two methods from a sweep")
    prof_p.add_argument("--summary", required=True, metavar="JSON")
    prof_p.add_argument("--new-method", required=True, metavar="NAME")
    prof_p.add_argument("--old-method", required=True, metavar="NAME")
    prof_p.add_argument(
        "--mode", choices=("final-gap", "evals-to-threshold"), default="final-gap"
    )
    for name in _NOISE_AXES:
        prof_p.add_argument(_flag(name), dest=name, type=float, metavar="V")
    prof_p.add_argument("--out", metavar="CSV", help="also write points to a CSV")
    return parser


def _collect_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for name in SETTING_TYPES:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return ExperimentConfig(**values)


def _cmd_run_or_sweep(args: argparse.Namespace) -> int:
    config = _collect_config(args)
    if args.command == "run":
        for name in RUN_AXES:
            if len(getattr(config, name)) != 1:
                raise ConfigError(f"run takes exactly one {_flag(name)} value")
    summary = run_experiment(config)
    runs, errors = summary["runs"], summary["errors"]
    for key in sorted(runs):
        entry = runs[key]
        print(
            f"{key}: termination={entry['termination_reason']} "
            f"iters={entry['iterations']} final_gap={entry['final_gap']:.6g} "
            f"grad_norm={entry['final_grad_norm_true']:.6g} "
            f"f_evals={entry['f_evals']} g_evals={entry['g_evals']}"
        )
    for key in sorted(errors):
        print(f"{key}: FAILED ({errors[key]})", file=sys.stderr)
    print(f"wrote {len(runs)} trace file(s) + summary.json to {config.out}")
    return 3 if errors else 0


def _matches(entry: dict, args: argparse.Namespace) -> bool:
    wanted = {name: getattr(args, name) for name in _NOISE_AXES}
    return all(value is None or entry[name] == value for name, value in wanted.items())


def _summary_runs(path: str) -> list[dict]:
    """The run entries of a sweep's summary.json."""
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read summary {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"summary {path} is not JSON: {exc}") from exc
    runs = summary.get("runs", {}) if isinstance(summary, dict) else None
    if not isinstance(runs, dict) or not all(isinstance(e, dict) for e in runs.values()):
        raise ConfigError(f"summary {path} has no object of runs")
    return list(runs.values())


def _cmd_profile(args: argparse.Namespace) -> int:
    runs = _summary_runs(args.summary)

    def select(method: str) -> list[dict]:
        chosen = [e for e in runs if e["method"] == method and _matches(e, args)]
        if not chosen:
            raise ConfigError(f"no runs for method {method!r} in {args.summary}")
        noise_keys = {(e["xi_f"], e["xi_g"], e["omega"]) for e in chosen}
        if len(noise_keys) > 1:
            raise ConfigError(
                f"method {method!r} spans several noise settings "
                f"{sorted(noise_keys)}; narrow with --xi-f/--xi-g/--omega"
            )
        return chosen

    try:
        points = morales_profile(
            select(args.new_method), select(args.old_method), mode=args.mode
        )
    except KeyError as exc:
        raise ConfigError(f"a run in {args.summary} has no {exc} entry") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None:
        lines = ["problem,value"]
        lines += [f"{pt.problem},{pt.value:.17g}" for pt in points]
        try:
            Path(args.out).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(f"out {args.out!r}: {exc.strerror}") from exc
    print(f"# log2 ratio, {args.new_method} vs {args.old_method}, mode={args.mode}")
    for pt in points:
        print(f"{pt.problem} {pt.value:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_run_or_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
