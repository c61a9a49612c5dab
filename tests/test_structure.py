import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import cbmlab
from cbmlab import acceptance

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cbmlab.__file__).parent
MUTANTS = ROOT / "tools" / "mutants.py"
SPANS = ROOT / "bench" / "spans.py"
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


def load(path):
    """The module at path, executed without entering sys.modules."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_invariant_checks_are_pinned():
    # the checks the mutation audit disables one at a time
    mutants = load(MUTANTS)
    found = [
        (path.stem, message_prefix(check))
        for path in sorted(PACKAGE.glob("*.py"))
        for check in mutants.checks(path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == INVARIANT_CHECKS


def loads(tree, name):
    """How often name is read, bare or as an attribute, outside a def or class of that name."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and tree.name == name:
        return 0
    here = isinstance(getattr(tree, "ctx", None), ast.Load) and name in (
        getattr(tree, "id", None),
        getattr(tree, "attr", None),
    )
    return here + sum(loads(child, name) for child in ast.iter_child_nodes(tree))


def readme_sketch_names():
    """The names the README's library sketch imports from cbmlab."""
    sketch = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "cbmlab"
        for alias in node.names
    }


def test_every_exported_name_has_a_caller():
    # a public name only the tests use is dead code, unless the README shows it to users
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in modules]
    exported = [n for n in cbmlab.__all__ if not isinstance(getattr(cbmlab, n), types.ModuleType)]
    uncalled = {name for name in exported if not any(loads(tree, name) for tree in trees)}
    assert uncalled - readme_sketch_names() == set()


def test_every_traced_name_resolves():
    # bench/spans.py wraps these by name; a rename would break only a traced benchmark run
    spans = load(SPANS)
    for layer, _, owner, attr in spans.TARGETS:
        module = importlib.import_module(f"cbmlab.{layer}")
        if owner:
            assert attr in vars(getattr(module, owner))
        else:
            assert callable(getattr(module, attr, None))
    assert spans.ACCEPTANCE_ITEMS == [name for name, _ in acceptance.ITEMS]
