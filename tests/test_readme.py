"""README.md agrees with the code: its library quick start runs, every
``--flag`` it shows is one the CLI accepts, and the observer fields it lists
are those of ``IterationContext``."""

import argparse
import dataclasses
import re
from pathlib import Path

from noisyqn import problems
from noisyqn.cli import build_parser
from noisyqn.solver import IterationContext

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# Flags of other commands that the README shows.
OTHER_TOOLS = {"--no-build-isolation": "pip install", "--base": "scripts/compare_outputs.py"}


def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "lengthened pairs" in capsys.readouterr().out


def test_register_example_runs(monkeypatch):
    """The example of a problem of one's own builds a keyword-only Problem
    whose dim is read from x0; it registers into a copy of the registry."""
    monkeypatch.setattr(problems, "_REGISTRY", dict(problems._REGISTRY))
    section = README.split("A problem of your\nown is added with `register`", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    sphere = problems.registry_lookup("SPHERE")
    assert sphere.dim == 10 and sphere.eval_f(sphere.x0) == 10.0


def test_every_flag_is_accepted_by_the_cli():
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {
        flag
        for command in ("run", "sweep", "profile")
        for flag in subparsers.choices[command]._option_string_actions
    }
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README)) - OTHER_TOOLS.keys()
    assert {"--problem", "--summary", "--config"} <= shown
    assert shown - accepted == set()


def test_observer_fields_are_those_of_iteration_context():
    prose = " ".join(README.split())
    sentence = prose.split("The observer's `ctx` has the fields ", 1)[1].split(".", 1)[0]
    listed = re.findall(r"`(\w+)`", sentence)
    assert listed == [f.name for f in dataclasses.fields(IterationContext)]
