"""List the statements of ``src/ttolab`` that tier-1 and the demos never run.

Runs the tier-1 suite (pytest from the repository root) and then the five
demo scripts, all in this one process under ``sys.settrace``, and prints
``file:line  source`` for each statement of ``src/ttolab/*.py`` on none of
whose lines a line event fired.  ``raise`` statements, docstrings,
``global``/``nonlocal`` declarations (which run no code) and the body of a
module-level ``if __name__ == "__main__":`` (which runs only as a script)
are not listed.  A compound statement counts as run when any line of it
ran.  Standard library only (no coverage package needed):

    python tools/untraced.py

The list follows a line ``untraced statements: <count>``; the exit status
is 1 when it names anything, else 0, so the script serves as a gate.  The
suite's own failures are reported by pytest above the list.
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttolab"
SKIP = (ast.Raise, ast.Global, ast.Nonlocal)


def statements(path: Path):
    """(first line, last line) of each statement that runs code, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    script_only = {id(n) for g in tree.body if isinstance(g, ast.If)
                   and ast.unparse(g.test) == "__name__ == '__main__'"
                   for stmt in g.body for n in ast.walk(stmt)}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, SKIP)
                or id(node) in script_only):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        out.append((first, node.end_lineno))
    return sorted(out)


def trace_run(files: set[str]) -> dict[str, set[int]]:
    """Run tier-1 and the demos; the lines that ran, per file of ``files``."""
    hits: dict[str, set[int]] = {f: set() for f in files}
    known: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in files else None
        return local if known[name] else None

    import pytest  # before tracing: its import is not under study

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)  # demos may write files next to them
                runpy.run_path(str(demo), run_name="__main__")
            os.chdir(ROOT)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    hits = trace_run({os.path.realpath(p) for p in paths})
    missed = []
    for path in paths:
        ran = hits[os.path.realpath(path)]
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last in statements(path):
            if not ran.intersection(range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
    print(f"untraced statements: {len(missed)}")
    print("\n".join(missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
