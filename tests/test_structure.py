import ast
import importlib.util
from pathlib import Path

import cbmlab

PACKAGE = Path(cbmlab.__file__).parent
MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
# every InvariantViolation cross-check, as (module, message up to its first
# placeholder); dropping or adding one means editing this pin
INVARIANT_CHECKS = [
    ("domains", "certified bounds crossed: lower"),
    ("domains", "commuting-model equality failed: |"),
    ("domains", "order distance"),
    ("norms", "norm closed-form ratios ["),
    ("norms", "stabilization"),
    ("ordered", "Farey bracket"),
    ("ordered", "closed-form rate"),
    ("ordered", "growth-rate product inequality failed:"),
]


def private_sibling_imports(path):
    """(line, module, name) of every underscore name imported from a cbmlab module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cbmlab":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offenders = {path.name: hits for path in modules if (hits := private_sibling_imports(path))}
    assert offenders == {}


def message_prefix(check):
    """The literal text of the InvariantViolation message up to its first placeholder."""
    message = next(stmt.exc.args[0] for stmt in check.body if isinstance(stmt, ast.Raise))
    first = message.values[0] if isinstance(message, ast.JoinedStr) else message
    return first.value.strip()


def test_the_invariant_checks_are_pinned():
    # the checks the mutation audit disables one at a time
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    found = [
        (path.stem, message_prefix(check))
        for path in sorted(PACKAGE.glob("*.py"))
        for check in mutants.checks(path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == INVARIANT_CHECKS
