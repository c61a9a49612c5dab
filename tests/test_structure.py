import ast
import importlib
import importlib.util
import re
import sys
import types
from pathlib import Path

import numpy as np

import cbmlab
from cbmlab import acceptance
from cbmlab.forms import ContactFormRep, ContactMapRep, SampledManifold
from cbmlab.ordered import Element
from cbmlab.starshape import DirectionGrid, RadialSet, SkeletonSpec
from test_acceptance import SEED7_REPORT_SHA256

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cbmlab.__file__).parent
MUTANTS = ROOT / "tools" / "mutants.py"
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
# every InvariantViolation cross-check, as (module, message up to its first
# placeholder); dropping or adding one means editing this pin
INVARIANT_CHECKS = [
    ("domains", "certified bounds crossed: lower"),
    ("domains", "commuting-model equality failed: |"),
    ("domains", "order distance"),
    ("forms", "forms bracket crossed: lower"),
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


def absolute_imports(path):
    """(line, top-level module) of every absolute import in path, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_numpy_is_the_one_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := [(line, m) for line, m in absolute_imports(path) if m not in allowed])
    }
    assert offenders == {}


def test_errors_holds_the_one_integer_rule():
    # every integer parameter goes through errors.checked_int; a module that
    # reads numbers.Integral itself would be a second rule
    readers = [path.name for path in sorted(PACKAGE.glob("*.py")) if "Integral" in path.read_text(encoding="utf-8")]
    assert readers == ["errors.py"]


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


def test_only_ordered_reads_the_model_kind():
    # a model's kind chooses the multiplicative reader in ordered.py and nothing
    # else; an array's dtype.kind is not a model's
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("ordered.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dtype_kinds = sum(
            isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
            for node in ast.walk(tree)
        )
        if reads := loads(tree, "ModelKind") + loads(tree, "kind") - dtype_kinds:
            offenders[path.name] = reads
    assert offenders == {}


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


def test_every_public_module_name_has_a_caller():
    # the rule above, for every public top-level def and class of a module,
    # exported or not; methods stay outside it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    uncalled = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(loads(other, node.name) for other in trees.values())
    }
    assert uncalled == set()


# the public methods and properties that no code in src/ reads, each with its reason
UNREAD_METHODS = {
    "ordered.OrderedModel.ge": "the tests' brute-force reference for the exact order oracle",
    "primes.PrimeTable.first_prime_in": "bench/spans.py traces it by name",
}


def attribute_loads(tree, name):
    """How often name is read as an attribute, outside a def or class of that name."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and tree.name == name:
        return 0
    here = isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load) and tree.attr == name
    return here + sum(attribute_loads(child, name) for child in ast.iter_child_nodes(tree))


def test_every_public_method_has_a_caller():
    # the caller rule for the public methods and properties of every class
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    unread = {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not any(attribute_loads(other, node.name) for other in trees.values())
    }
    assert unread == set(UNREAD_METHODS)


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


def test_the_benchmark_pins_the_seed7_report(monkeypatch):
    # bench/run.py checks each accept run against its own copy of the pin
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    assert load(BENCH / "run.py").ACCEPT_SEED7 == (1627, SEED7_REPORT_SHA256)


def test_value_objects_keep_read_only_copies_of_the_callers_arrays():
    # building a value object leaves the caller's array writeable and keeps a
    # frozen copy that no later write by the caller can reach
    grid = DirectionGrid.uniform_circle(64)
    manifold = SampledManifold(np.full(4, 0.5), half_dim=2)
    builders = {
        "Element": (lambda a: Element(a).data, np.array([1.0, 2.0])),
        "DirectionGrid": (lambda a: DirectionGrid(a).directions, grid.directions.copy()),
        "RadialSet": (lambda a: RadialSet(grid, a).radii, np.ones(64)),
        "SkeletonSpec": (lambda a: SkeletonSpec(a, 10.0).v, np.array([0.5, 1.0, 0.0, 2.0, 0.3, 1.1])),
        "SampledManifold": (lambda a: SampledManifold(a, half_dim=2).weights, np.full(4, 0.5)),
        "ContactFormRep": (lambda a: ContactFormRep(manifold, a).f, np.zeros(4)),
        "ContactMapRep": (lambda a: ContactMapRep(manifold, a).perm, np.array([1, 0, 3, 2])),
    }
    for name, (kept_of, arr) in builders.items():
        kept = kept_of(arr)
        assert arr.flags.writeable, name
        assert not kept.flags.writeable, name
        assert not np.shares_memory(arr, kept), name
