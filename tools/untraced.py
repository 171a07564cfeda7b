"""List the code of ``src/ttolab`` that tier-1 and the demos never run, and
the functions that only the tests call.

Runs the tier-1 suite (pytest from the repository root) and then the five
demo scripts, all in this one process under ``sys.settrace``, and prints
two lists.

The first names, as ``file:line  source``, each statement of
``src/ttolab/*.py`` on none of whose lines a line event fired.  ``raise``
statements, docstrings, ``global``/``nonlocal`` declarations (which run no
code) and the body of a module-level ``if __name__ == "__main__":`` (which
runs only as a script) are not listed.  A compound statement counts as run
when any line of it ran.

The second names, as ``module.function``, each public module-level function
of ``src/ttolab`` whose every call came from ``tests/``.  A call's caller is
its nearest frame in a repository file outside ``src/ttolab`` (frames of
the standard library and of installed packages are passed over), so the
CLI counts for whoever called ``cli.main``: the bench workloads, the demos
or a test.  README names the functions that may be on this list, the
library API kept for the acceptance criteria, in the one paragraph that
says "kept for the acceptance criteria"; its backquoted ``module.function``
names must equal the list (a ``module.Class.method`` name there is outside
the list, which holds module-level functions only).

Standard library only (no coverage package needed):

    python tools/untraced.py

Each list follows a count line (``untraced statements: <count>``,
``test-only functions: <count>``); the exit status is 1 when the first
list names anything or the second differs from README's, else 0, so the
script serves as a gate.  The suite's own failures are reported by pytest
above the lists.
"""

from __future__ import annotations

import ast
import os
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttolab"
SKIP = (ast.Raise, ast.Global, ast.Nonlocal)
KEPT_MARK = "kept for the acceptance criteria"


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


def public_functions(path: Path) -> dict[int, str]:
    """First line (a decorator's, if any) -> name, of each public
    module-level function: the line its code object starts on."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {min([f.lineno] + [d.lineno for d in f.decorator_list]): f.name
            for f in tree.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not f.name.startswith("_")}


def kept_functions() -> set[str]:
    """The ``module.function`` names of README's kept-for-the-criteria paragraph."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = next((p for p in text.split("\n\n") if KEPT_MARK in " ".join(p.split())), "")
    return set(re.findall(r"`(\w+\.\w+)`", paragraph))


def trace_run(files: set[str], public: dict[tuple[str, int], str]):
    """Run tier-1 and the demos.  Returns the lines that ran, per file of
    ``files``, and the caller kinds (the top-level directory of each
    call's caller) per name of ``public``, keyed (file, first line)."""
    hits: dict[str, set[int]] = {f: set() for f in files}
    callers: dict[str, set[str]] = {name: set() for name in public.values()}
    known: dict[str, str | None] = {}
    kinds: dict[str, str | None] = {}  # file -> top-level directory, None outside

    def local(frame, event, arg):
        if event == "line":
            hits[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def caller_kind(frame) -> str:
        while frame is not None:
            name = frame.f_code.co_filename
            if name not in kinds:
                real = Path(os.path.realpath(name))  # "<frozen ...>" and the like are no file
                inside = (not name.startswith("<") and real.is_relative_to(ROOT)
                          and not real.is_relative_to(SRC))
                kinds[name] = real.relative_to(ROOT).parts[0] if inside else None
            if kinds[name]:
                return kinds[name]
            frame = frame.f_back
        return "(none)"

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in files else None
        if not known[name]:
            return None
        fn = public.get((known[name], frame.f_code.co_firstlineno))
        if fn is not None:
            callers[fn].add(caller_kind(frame.f_back))
        return local

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
    return hits, callers


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    public = {(os.path.realpath(p), line): f"{p.stem}.{name}"
              for p in paths for line, name in public_functions(p).items()}
    hits, callers = trace_run({os.path.realpath(p) for p in paths}, public)
    missed = []
    for path in paths:
        ran = hits[os.path.realpath(path)]
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last in statements(path):
            if not ran.intersection(range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
    print(f"untraced statements: {len(missed)}")
    print("\n".join(missed))
    test_only = sorted(name for name, kinds in callers.items() if kinds == {"tests"})
    kept = kept_functions()
    print(f"test-only functions: {len(test_only)}")
    for name in test_only:
        print(name + ("" if name in kept else "  (not named in README)"))
    for name in sorted(kept - set(test_only)):
        print(f"README names {name}, which is not test-only")
    return 1 if missed or set(test_only) != kept else 0


if __name__ == "__main__":
    sys.exit(main())
