"""Mutation audit of the InvariantViolation cross-checks.

For every ``if <condition>: raise InvariantViolation(...)`` in
``src/cbmlab``, this script sets the condition to ``False`` in a temporary
copy of ``src/``, ``tests/`` and ``bench/`` (tests read its input pools)
and runs that module's test file, ``tests/test_<module>.py``, with
``-x -q``. A check whose mutant still passes every test survives: no test
can make it fire. Each mutant run may take ten times as long as the
unmutated run of its test file; one that runs longer is stopped and counts
as killed, since a test that hangs under the mutant still notices it. Each
check is printed as killed, killed (timeout) or survived, and a summary line
gives the survivors and the wall time; the exit code is 1 if any survives,
or if a test file fails before any mutation.

Run from anywhere, with the standard library and pytest only:

    python tools/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "cbmlab"
TIMEOUT_FACTOR = 10  # a mutant run's time limit, in unmutated runs of its test file


def checks(source: str) -> list[ast.If]:
    """The ``if`` statements whose body raises InvariantViolation, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
            isinstance(stmt, ast.Raise)
            and isinstance(stmt.exc, ast.Call)
            and isinstance(stmt.exc.func, ast.Name)
            and stmt.exc.func.id == "InvariantViolation"
            for stmt in node.body
        ):
            found.append(node)
    return sorted(found, key=lambda node: node.lineno)


def disabled(source: str, check: ast.If) -> str:
    """The source with the check's condition replaced by ``False``."""
    lines = source.splitlines(keepends=True)
    test = check.test
    first, last = test.lineno - 1, test.end_lineno - 1
    head = lines[first][: test.col_offset]
    tail = lines[last][test.end_col_offset :]
    return "".join(lines[:first] + [head + "False" + tail] + lines[last + 1 :])


def tests_pass(copy: Path, test_file: Path, timeout: float | None = None) -> bool | None:
    """Whether the test file passes in the copy, or None if it runs past the timeout."""
    path = [str(copy / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(test_file)],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    return run.returncode == 0


def main() -> int:
    survivors, start = 0, time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "out"))
        for module in sorted((ROOT / PACKAGE).glob("*.py")):
            source = module.read_text(encoding="utf-8")
            found = checks(source)
            if not found:
                continue
            test_file = copy / "tests" / f"test_{module.stem}.py"
            unmutated = time.monotonic()
            if not test_file.exists() or not tests_pass(copy, test_file):
                print(f"{module.name}: {test_file.name} is missing or fails unmutated")
                return 1
            timeout = TIMEOUT_FACTOR * (time.monotonic() - unmutated)
            target = copy / PACKAGE / module.name
            for check in found:
                target.write_text(disabled(source, check), encoding="utf-8")
                passed = tests_pass(copy, test_file, timeout)
                survivors += passed is True
                verdict = {True: "SURVIVED", False: "killed", None: "killed (timeout)"}[passed]
                condition = " ".join(ast.get_source_segment(source, check.test).split())
                print(f"{module.name}:{check.lineno}: {verdict}: {condition}")
            target.write_text(source, encoding="utf-8")
    print(f"{survivors} surviving check(s); {time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
