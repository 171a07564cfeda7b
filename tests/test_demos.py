"""Every demo script runs to completion against the in-tree package, with
warnings turned into errors and nothing written to stderr; every README
CLI example exits 0; the README's table of fixed numerical policies names
the constants as they are, and its kept-for-the-criteria paragraph names
functions and methods that exist."""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the examples tools/same_outputs.py runs, read by that script's own parser
EXAMPLES = _tool("same_outputs").readme_examples(ROOT / "README.md")
EXAMPLE_COMMANDS = [e.split()[1] for e in EXAMPLES]
# a command's first example is named by the command, a further one also by its place
EXAMPLE_IDS = [c if c not in EXAMPLE_COMMANDS[:i] else f"{c}-{i + 1}"
               for i, c in enumerate(EXAMPLE_COMMANDS)]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_same_outputs_reports_numbers_that_moved():
    moved = _tool("same_outputs").moved_numbers
    old = b"demo\nrebuild residual 2.27e-15, 3 probes\nnorm 1.5 of -2\n"
    new = b"demo\nrebuild residual 2.40e-15, 3 probes\nnorm 1.50 of -2.5\n"
    assert moved(old, new) == ("    3 numbers differ, the largest relative change "
                               "2.00e-01 at line 3")
    # text that moved besides the numbers, or only bytes that do not decode
    assert moved(old, new.replace(b"probes", b"points")) is None
    assert moved(old, old.rstrip()) is None
    assert moved(b"\xff", b"\xfe") is None


@pytest.mark.parametrize("example", EXAMPLES, ids=EXAMPLE_IDS)
def test_readme_cli_example_runs(example, capsys, tmp_path, monkeypatch):
    from ttolab.cli import main
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(example)[1:]) == 0, capsys.readouterr().err


def test_readme_has_one_cli_example_per_command():
    # one example per command, in the command table's order; the examples after
    # those run further paths of a command (the kernels of a GridSpace)
    from ttolab.cli import COMMANDS
    assert EXAMPLE_COMMANDS[:len(COMMANDS)] == list(COMMANDS)
    assert set(EXAMPLE_COMMANDS[len(COMMANDS):]) <= set(COMMANDS)


def test_readme_policy_table_matches_the_constants():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Fixed numerical policies", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \|", table, flags=re.M)
    assert len(rows) >= 20
    for module, name, shown in rows:
        base, _, exponent = shown.partition("^")
        value = float(base) ** int(exponent) if exponent else float(shown)
        assert getattr(importlib.import_module(f"ttolab.{module}"), name) == value, name


def test_readme_kept_functions_exist():
    # the names tools/untraced.py compares its test-only list with, read by
    # that script's own parser and found in the source without running it
    untraced = _tool("untraced")
    kept = untraced.kept_functions()
    assert kept
    for name in sorted(kept):
        module, function = name.split(".")
        path = ROOT / "src" / "ttolab" / f"{module}.py"
        assert path.is_file(), name
        assert function in untraced.public_functions(path).values(), name
    # the paragraph's module.Class.method names, which the script passes over
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in text.split("\n\n") if untraced.KEPT_MARK in " ".join(p.split()))
    methods = re.findall(r"`(\w+)\.(\w+)\.(\w+)`", paragraph)
    assert methods
    for module, cls, method in methods:
        path = ROOT / "src" / "ttolab" / f"{module}.py"
        assert path.is_file(), (module, cls, method)
        classes = {c.name: c for c in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(c, ast.ClassDef)}
        assert cls in classes, (module, cls, method)
        assert method in {f.name for f in classes[cls].body
                          if isinstance(f, ast.FunctionDef)}, (module, cls, method)
