"""Line and branch coverage of ``src/cbmlab`` by the Tier-1 suite.

Runs the Tier-1 suite (``pytest -q --continue-on-collection-errors`` from the
repository root) in this process under ``sys.settrace``, tracing only frames
whose code lies in ``src/cbmlab``, and records each frame's line arcs: the
line it ran after each line. From those it prints

* every statement that never ran (``unrun``), at its first line;
* every ``if`` that ran with a side that never did (``one-sided``): its body,
  or its ``else``/``elif``, or, with neither, the jump past the ``if``.

A statement ran when any line from its first (decorators included) to the end
of its header, or of the whole statement if it has no body, ran. A docstring,
``try``, ``global`` and ``nonlocal`` run no line of their own and are left
out. An arc that follows an exception counts for no side, so a test that
raises does not count as false. Subprocesses are not traced.

``ALLOWED`` names, by module and source text, each statement that may stay
unrun or one-sided, with a one-line reason; an allowed ``if`` also allows the
statements on its side that never runs. The exit code is 1 if the suite
fails, if any finding is not allowed, or if an allowlist entry matches
nothing; otherwise 0.

Run from anywhere, with the standard library and pytest only (it takes
about twice the suite's own time):

    python tools/coverage.py
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbmlab"
EDGE = 0  # the source of a frame's first arc and the target of its last
RAISED = -1  # the source of the arc after an exception, which counts for no side
INLINE = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>", "<lambda>"}  # part of a statement

# (module, source text of the statement's first line): why it may stay unrun or one-sided
ALLOWED = {
    ("cli.py", 'if __name__ == "__main__":'): "only `python -m cbmlab.cli` runs it, in subprocess tests",
}


def record(run, directory: Path):
    """run()'s result, and {file name: its set of (line, next line) arcs} for
    the frames whose code lies in directory, traced while run() runs."""
    directory = directory.resolve()
    arcs: dict[str, set[tuple[int, int]]] = {}
    inside: dict[str, bool] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == directory
        if not inside[name]:
            return None
        found = arcs.setdefault(name, set())
        last = EDGE

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                found.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                last = RAISED
            elif event == "return" and frame.f_code.co_name not in INLINE:
                found.add((last, EDGE))
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
        if sys.gettrace() is not tracer:
            raise RuntimeError("the traced code replaced the tracer, so the record is incomplete")
    finally:
        sys.settrace(previous)
    return result, arcs


def _docstring(body: list[ast.stmt]) -> ast.stmt | None:
    first = body[0] if body else None
    is_text = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return first if is_text and isinstance(first.value.value, str) else None


def _span(stmt: ast.stmt) -> range:
    """The lines any of which shows that stmt ran: its header, or all of it."""
    first = min([stmt.lineno] + [node.lineno for node in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    last = max(first, body[0].lineno - 1) if body else stmt.end_lineno
    return range(first, last + 1)


def findings(source: str, arcs: set[tuple[int, int]]) -> list[tuple[ast.stmt, str, range]]:
    """(statement, kind, the lines of the side that never runs) for every
    unrun statement and one-sided ``if`` of the module source, given its arcs."""
    tree = ast.parse(source)
    lines = {line for _, line in arcs}
    skipped = {
        id(_docstring(node.body))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def ran(stmt: ast.stmt) -> bool:
        return any(line in lines for line in _span(stmt))

    found = []
    for stmt in ast.walk(tree):
        silent = isinstance(stmt, (ast.Try, ast.Global, ast.Nonlocal)) or id(stmt) in skipped
        if not isinstance(stmt, ast.stmt) or silent:
            continue
        if not ran(stmt):
            found.append((stmt, "unrun", range(stmt.lineno, stmt.end_lineno + 1)))
        elif isinstance(stmt, ast.If):
            test = range(stmt.lineno, stmt.test.end_lineno + 1)
            whole = range(stmt.lineno, stmt.end_lineno + 1)
            if stmt.orelse:
                false = ran(stmt.orelse[0])
                other = range(stmt.orelse[0].lineno, stmt.end_lineno + 1)
            else:
                false = any(source_line in test and line not in whole for source_line, line in arcs)
                other = range(0)
            if not ran(stmt.body[0]):
                body = range(test.stop, stmt.body[-1].end_lineno + 1)
                found.append((stmt, "one-sided (its body never runs)", body))
            elif not false:
                found.append((stmt, "one-sided (its false side never runs)", other))
    return sorted(found, key=lambda finding: finding[0].lineno)


def main() -> int:
    start = time.monotonic()
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # subprocess tests import the package through the environment
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    argv = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    status, arcs = record(lambda: pytest.main(argv), PACKAGE)
    failures, used = 0, set()
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        text = source.splitlines()
        allowed_lines = set()
        for stmt, kind, side in findings(source, arcs.get(str(module), set())):
            key = (module.name, text[stmt.lineno - 1].strip())
            reason = ALLOWED.get(key)
            if reason is None and stmt.lineno not in allowed_lines:
                failures += 1
                verdict = "MISSED"
            else:
                used.add(key)
                allowed_lines.update(side)
                verdict = f"allowed: {reason or 'on the unrun side of an allowed if'}"
            print(f"src/cbmlab/{module.name}:{stmt.lineno}: {kind}: {key[1]} [{verdict}]")
    for module, line in sorted(ALLOWED.keys() - used):
        failures += 1
        print(f"src/cbmlab/{module}: allowlist entry matches nothing: {line}")
    print(f"suite exit {int(status)}; {failures} finding(s) outside the allowlist; {time.monotonic() - start:.1f} s")
    return 1 if failures or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
