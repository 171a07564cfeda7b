"""Compare what two source trees of ttolab print.

    python tools/same_outputs.py OLD NEW

Runs, in each tree with ``PYTHONPATH=<tree>/src``, every demo script under
``NEW/demos`` (the script of the same name in OLD) and every ``ttolab``
example of the "Examples:" block in the command-line section of NEW's
README, as ``python -m ttolab.cli <flags>``.  Each run starts in one
scratch directory, which is also its TMPDIR, shared by both trees, so a
path it prints is the same in both.  Exit codes and stdout must match byte
for byte, and stderr after each tree's own path is replaced by ``<tree>``.
Prints each run that differs and exits 1 if any does, else 0.  Where a
differing stdout has the same text in both trees once every number is
masked, it also prints how many numbers differ, the largest relative change
and its line.  Standard library only.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT = 600  # seconds per run
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def readme_examples(readme: Path) -> list[str]:
    """The ``ttolab ...`` lines of the first code block after "Examples:" in
    the README's "## Command-line interface" section."""
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
    block = section.split("Examples:", 1)[1].split("```", 2)[1]
    return [line.strip() for line in block.splitlines() if line.startswith("ttolab ")]


def runs(new: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after the interpreter) of every run, in order."""
    out = [(f"demos/{d.name}", [f"demos/{d.name}"]) for d in sorted((new / "demos").glob("*.py"))]
    out += [(line, ["-m", "ttolab.cli"] + shlex.split(line)[1:])
            for line in readme_examples(new / "README.md")]
    return out


def run(tree: Path, args: list[str], scratch: str) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr with the tree's path masked) of one run."""
    # a demo path is relative to its tree; the module form needs no path
    args = [str(tree / a) if a.startswith("demos/") else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), TMPDIR=scratch,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=scratch, env=env,
                          capture_output=True, timeout=TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(tree).encode(), b"<tree>")


def first_difference(x: bytes, y: bytes) -> str:
    """The first line at which two outputs differ, as an old and a new line."""
    xs, ys = (t.decode(errors="replace").splitlines(keepends=True) for t in (x, y))
    i = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
    old, new = (repr(ls[i]) if i < len(ls) else "<end>" for ls in (xs, ys))
    return f"    line {i + 1} old: {old}\n    line {i + 1} new: {new}"


def moved_numbers(x: bytes, y: bytes) -> str | None:
    """How many numbers differ between two outputs, the largest relative change
    and its line, when the outputs have the same text once every number is
    masked; else None."""
    xs, ys = (t.decode(errors="replace").splitlines(keepends=True) for t in (x, y))
    if [NUMBER.sub("#", s) for s in xs] != [NUMBER.sub("#", s) for s in ys]:
        return None
    moved = []  # (relative change, line) of each number whose text differs
    for line, (p, q) in enumerate(zip(xs, ys), 1):
        for s, t in zip(NUMBER.findall(p), NUMBER.findall(q)):
            if s != t:
                u, v = float(s), float(t)
                moved.append((abs(v - u) / max(abs(u), abs(v)) if u != v else 0.0, line))
    if not moved:  # the same text, up to undecodable bytes
        return None
    rel, line = max(moved)
    return f"    {len(moved)} numbers differ, the largest relative change {rel:.2e} at line {line}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        todo = runs(new)
        for label, args in todo:
            a, b = run(old, args, scratch), run(new, args, scratch)
            parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                     if x != y]
            if parts:
                differ += 1
                print(f"DIFFERS  {label}: {', '.join(parts)}")
                if a[0] != b[0]:
                    print(f"  exit code {a[0]} -> {b[0]}")
                for name, x, y in zip(("stdout", "stderr"), a[1:], b[1:]):
                    if x != y:
                        print(f"  {name}, first difference:")
                        print(first_difference(x, y))
                        if name == "stdout" and (moved := moved_numbers(x, y)):
                            print(moved)
            else:
                print(f"same     {label}")
    print(f"{differ} of {len(todo)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
