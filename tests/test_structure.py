import ast
import importlib
import importlib.util
import inspect
import math
import re
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import cbmlab
from cbmlab import acceptance, cli, errors, serialize
from test_acceptance import SEED7_REPORT_SHA256
from test_errors import ARRAYS, ENTRIES, SCALARS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(cbmlab.__file__).parent
SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
TREES = {module: ast.parse(source) for module, source in SOURCES.items()}
MUTANTS = ROOT / "tools" / "mutants.py"
COVERAGE = ROOT / "tools" / "coverage.py"
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
# every InvariantViolation cross-check, as (module, message up to its first
# placeholder); dropping or adding one means editing this pin
INVARIANT_CHECKS = [
    ("domains", "certified bounds crossed: lower"),
    ("domains", "order bracket ["),
    ("forms", "forms bracket crossed: lower"),
    ("norms", "stabilization norm"),
    ("ordered", "Farey bracket"),
    ("ordered", "closed-form rate"),
    ("ordered", "growth-rate product inequality failed:"),
]


# every tolerance in src/ written as a number literal over l_max, as (module,
# function, literal); 1/l_max, the Farey gap 1/n that a bracket at n
# certifies, is derived and not listed; adding or dropping one means editing this pin
L_MAX_TOLERANCES = []

# every float literal in a comparison in src/ whose decimal spelling is no double, a
# picked decimal tolerance, spelt out or through a module-level name, and every literal
# power of two in a comparison outside errors.py (2.0**-50, 2**48), a picked binary one,
# as (module, function, literal); a derived bound is computed, by errors.rounding_bound
# for a rounding, and an exact literal (0.0, 0.5, 2.0) an anchor or a factor; adding or
# dropping one means editing this pin
FLOAT_TOLERANCES = [
    ("acceptance", "item_qi_harness", 1e-9),
    ("acceptance", "item_qi_harness", 1e-9),
]


def private_sibling_imports(tree):
    """(line, module, name) of every underscore name imported from a cbmlab module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cbmlab":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert len(TREES) > 1
    offenders = {module: hits for module, tree in TREES.items() if (hits := private_sibling_imports(tree))}
    assert offenders == {}


def absolute_imports(tree):
    """(line, top-level module) of every absolute import in tree, function bodies included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_numpy_is_the_one_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    offenders = {
        module: hits
        for module, tree in TREES.items()
        if (hits := [(line, m) for line, m in absolute_imports(tree) if m not in allowed])
    }
    assert offenders == {}


def test_errors_holds_the_one_integer_rule():
    # every integer parameter goes through errors.checked_int, and every other
    # number through errors.checked_number or errors.checked_array; a module
    # that reads numbers.Integral, imports numbers or scans entries for bools
    # itself would be a second rule
    assert [module for module, text in SOURCES.items() if "Integral" in text] == ["errors"]
    importers = [module for module, tree in TREES.items() if any(m == "numbers" for _, m in absolute_imports(tree))]
    assert importers == ["errors"]
    bool_scan = re.compile(r"type\([^()]*\) (?:is|in) \(?(?:np\.)?bool|isinstance\([^()]*\bbool\b")
    assert [module for module, text in SOURCES.items() if bool_scan.search(text)] == ["errors"]
    assert not {"_array", "_number"} & set(vars(serialize))


def float_parameters():
    """'owner.parameter' of every parameter annotated float of a function, or
    of a public method of a class, that cbmlab.__all__ exports: the package's
    API, whose callers pass the values."""
    found = set()
    for name in cbmlab.__all__:
        obj = getattr(cbmlab, name)
        owners = [(name, obj)] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            owners += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj) if not attr.startswith("_")]
        for owner, fn in owners:
            if inspect.isfunction(fn):
                params = inspect.signature(fn, eval_str=True).parameters.values()
                found |= {f"{owner}.{p.name}" for p in params if p.annotation is float}
    return found


def test_every_real_parameter_takes_the_scalar_rule():
    # a new real parameter joins the scalar table of test_errors.py, which
    # holds it to errors.checked_number's rule; these four show no float in
    # a signature
    unannotated = {
        "SkeletonSpec.c0",  # dataclass fields, checked in __post_init__
        "SkeletonSpec.target_volume",
        "OrderedModel.element.value",  # a number in the multiplicative model, an array in the additive
        "domain_from_dict.liouville_weight",  # a JSON payload field
    }
    assert float_parameters() | unannotated == set(SCALARS)

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
    found = [(module, message_prefix(check)) for module, source in SOURCES.items() for check in mutants.checks(source)]
    assert sorted(found) == INVARIANT_CHECKS


def subclasses(cls):
    """Every class below cls, at any depth."""
    return {sub for direct in cls.__subclasses__() for sub in {direct} | subclasses(direct)}


def test_one_error_class_per_exit_code():
    # a class the CLI cannot tell apart from another by its exit code is one concept too many
    package = {cls for cls in subclasses(errors.CbmlabError) if cls.__module__.startswith("cbmlab")}
    assert {cls: cli._exit_code(cls.__name__) for cls in package} == {errors.InvalidInputError: 2, errors.InvariantViolation: 1}


def picked_decimal(node):
    """Whether node is a finite float literal whose decimal value no double equals, such as 1e-9."""
    value = getattr(node, "value", None)  # a float only on an ast.Constant
    return type(value) is float and math.isfinite(value) and Fraction(repr(value)) != value


def power_of_two(node):
    """The value of node if it is a literal power of two, such as 2.0**-50 or 2**48, else None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Constant)):
        return None
    negative = isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
    exponent = node.right.operand if negative else node.right
    if node.left.value != 2 or not isinstance(exponent, ast.Constant) or type(exponent.value) is not int:
        return None
    return node.left.value ** (-exponent.value if negative else exponent.value)


def picked_bounds(tree):
    """{kind: [(function, value), ...]} of the picked bounds in tree, in source order, from one
    walk: "l_max" and "float" as the pins above describe them, and "roundoff", the source of
    every float_info.epsilon or finfo(...).eps read and literal power of two below 1."""
    named = {  # module-level names assigned a picked decimal
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and picked_decimal(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = {"l_max": [], "float": [], "roundoff": []}

    def visit(node, function, compared):
        power = power_of_two(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            right, numerator = node.right, getattr(node.left, "value", None)
            subscript = getattr(getattr(right, "slice", None), "value", None)  # cfg["l_max"]
            over = getattr(right, "id", None) or getattr(right, "attr", None) or subscript
            l_max = isinstance(over, str) and over.lower().endswith("l_max")
            if l_max and type(numerator) in (int, float) and numerator != 1:
                found["l_max"].append((function, numerator))
        if compared:
            picked = node.value if picked_decimal(node) else named.get(getattr(node, "id", None), power)
            if picked is not None:
                found["float"].append((function, picked))
        epsilon = isinstance(node, ast.Attribute) and node.attr == "epsilon" and "float_info" in ast.unparse(node)
        eps = isinstance(node, ast.Attribute) and node.attr == "eps" and "finfo(" in ast.unparse(node.value)
        if epsilon or eps or (power is not None and power < 1):
            found["roundoff"].append((function, ast.unparse(node)))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        for child in ast.iter_child_nodes(node):
            visit(child, inner, compared or isinstance(node, ast.Compare))

    visit(tree, None, False)
    return found


BOUNDS = {module: picked_bounds(tree) for module, tree in TREES.items()}


def test_the_l_max_tolerances_are_pinned():
    # report.nu / l_max and ceil(l_max*p/q) / l_max divide no literal, and are no tolerance
    found = [(module, function, literal) for module, bounds in BOUNDS.items() for function, literal in bounds["l_max"]]
    assert sorted(found) == L_MAX_TOLERANCES
    probe = "def f(cfg, r, l):\n    return 2 / cfg['l_max'] + 0.5 / r.l_max + 1.0 / DEFAULT_L_MAX + 3 / l"
    assert picked_bounds(ast.parse(probe))["l_max"] == [("f", 2), ("f", 0.5)]


def test_the_float_tolerances_are_pinned():
    # the bounds of dcbm_forms, of the direction grid's unit check, of the bridge and of
    # acceptance items 01 to 06, 09 and 10 are derived; errors.py's powers of two are the
    # rounding rule itself and the int64 range
    found = [
        (module, function, literal)
        for module, bounds in BOUNDS.items()
        for function, literal in bounds["float"]
        if module != "errors" or math.frexp(literal)[0] != 0.5  # a power of two there is no pick
    ]
    assert sorted(found) == FLOAT_TOLERANCES
    probe = "def f(x, l):\n    y = 1e-9\n    return x <= 0.05 + 1e-3 / l and x == 0.5 and 2.0**-50 >= x - 0.1"
    assert picked_bounds(ast.parse(probe))["float"] == [("f", 0.05), ("f", 1e-3), ("f", 2.0**-50), ("f", 0.1)]
    widened = "def g(n, d, w):\n    k = 2**-53\n    return n * 2**48 <= d * (2**48 + 1) and n < 3**2"
    assert picked_bounds(ast.parse(widened))["float"] == [("g", 2**48), ("g", 2**48)]
    named = "TOL = 1e-12\nEXACT = 0.5\nUNUSED = 0.6\ndef f(x):\n    return abs(x - 1.0) > TOL or x < EXACT < 1e999"
    assert picked_bounds(ast.parse(named))["float"] == [("f", 1e-12)]


def test_every_rounding_bound_comes_from_errors():
    # a unit roundoff outside errors.py would be a rounding bound beside errors.rounding_bound;
    # the one power of two below 1 left is acceptance.QUANTUM, a sampling step and no bound
    found = [(m, text) for m, bounds in BOUNDS.items() if m != "errors" for _, text in bounds["roundoff"]]
    assert found == [("acceptance", "2.0 ** (-20)")]
    assert acceptance.QUANTUM == 2.0**-20
    probe = "u = sys.float_info.epsilon / 2\nv = np.finfo(float).eps\nk = (d + 4) * 2.0**-53\nw = 2**48 + 2**-1"
    assert [text for _, text in picked_bounds(ast.parse(probe))["roundoff"]] == [
        "sys.float_info.epsilon", "np.finfo(float).eps", "2.0 ** (-53)", "2 ** (-1)"
    ]


def test_a_mutant_run_past_its_time_limit_is_stopped(tmp_path):
    # a mutant that makes its tests hang is stopped at its limit and reported as such
    mutants = load(MUTANTS)
    (tmp_path / "src").mkdir()
    (tmp_path / "test_hangs.py").write_text("import time\n\ndef test_hangs():\n    time.sleep(600)\n")
    (tmp_path / "test_passes.py").write_text("def test_passes():\n    pass\n")
    assert mutants.tests_pass(tmp_path, tmp_path / "test_hangs.py", timeout=0.5) is None
    assert mutants.tests_pass(tmp_path, tmp_path / "test_passes.py", timeout=60) is True


def test_the_coverage_tool_flags_an_if_whose_false_side_never_runs(tmp_path):
    coverage = load(COVERAGE)
    source = "def f(x):\n    if x > 0:\n        x = -x\n    return x\n"
    module = tmp_path / "synthetic.py"
    module.write_text(source)
    for xs, found in (([1.0], [(2, "one-sided (its false side never runs)")]), ([1.0, -1.0], [])):
        _, arcs = coverage.record(lambda: [load(module).f(x) for x in xs], tmp_path)
        assert [(stmt.lineno, kind) for stmt, kind, _ in coverage.findings(source, arcs[str(module)])] == found


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
    for module, tree in TREES.items():
        if module in ("ordered", "__init__"):
            continue
        dtype_kinds = sum(
            isinstance(node, ast.Attribute) and node.attr == "kind"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
            for node in ast.walk(tree)
        )
        if reads := loads(tree, "ModelKind") + loads(tree, "kind") - dtype_kinds:
            offenders[module] = reads
    assert offenders == {}


def test_every_exported_name_has_a_caller():
    # a public name only the tests use is dead code, even one the README shows to users
    trees = [tree for module, tree in TREES.items() if module != "__init__"]
    exported = [n for n in cbmlab.__all__ if not isinstance(getattr(cbmlab, n), types.ModuleType)]
    uncalled = {name for name in exported if not any(loads(tree, name) for tree in trees)}
    assert uncalled == set()


def test_every_public_module_name_has_a_caller():
    # the rule above, for every public top-level def and class of a module,
    # exported or not; methods stay outside it
    uncalled = {
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(loads(other, node.name) for other in TREES.values())
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
    unread = {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in TREES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not any(attribute_loads(other, node.name) for other in TREES.values())
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


# the array entries whose build returns no array that a value object keeps
KEEP_NO_ARRAY = {
    "lshape_array": "returns a new embedding",
    "rgr_vs_cbm-h1": "returns a report",
    "rgr_vs_cbm-h2": "returns a report",
}


def test_value_objects_keep_read_only_copies_of_the_callers_arrays():
    # every array entry of test_errors.py leaves the caller's array writeable
    # and keeps a frozen copy that no later write by the caller can reach
    assert set(KEEP_NO_ARRAY) < set(ARRAYS)
    for entry in ARRAYS.keys() - KEEP_NO_ARRAY.keys():
        _, build, good, integer = ENTRIES[entry]
        arr = np.array(good, dtype=np.int64 if integer else float)
        kept = build(arr)
        assert arr.flags.writeable, entry
        assert not kept.flags.writeable, entry
        assert not np.shares_memory(arr, kept), entry


def checks_an_array(node):
    return any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "checked_array"
               for call in ast.walk(node))


def array_contract_checks(tree):
    """(line, name) of every finiteness or sign test, in the condition of an
    ``if`` that raises, of a name or ``self`` field the module binds to a
    checked_array result."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and checks_an_array(node.value):
            read |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        elif (  # object.__setattr__(self, "field", checked_array(...))
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__setattr__"
            and len(node.args) == 3 and checks_an_array(node.args[2])
        ):
            read.add(node.args[1].value)

    def is_read(node):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
            return node.attr in read
        return isinstance(node, ast.Name) and node.id in read

    def is_bound(node):  # 0, or another number, or inf
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) or (
            isinstance(node, ast.Attribute) and node.attr == "inf"
        )

    found = []
    for check in ast.walk(tree):
        if not (isinstance(check, ast.If) and any(isinstance(stmt, ast.Raise) for stmt in check.body)):
            continue
        for node in ast.walk(check.test):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite":
                found += [(node.lineno, ast.unparse(arg)) for arg in node.args if is_read(arg)]
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(is_bound, sides)):
                    found += [(node.lineno, ast.unparse(side)) for side in sides if is_read(side)]
    return found


def test_serialize_holds_the_one_payload_rule():
    # a reader hands its payload to _payload and reads fields only from what
    # that returns, so no lookup can throw a KeyError or TypeError to translate
    tree = TREES["serialize"]
    readers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_dict")]
    assert len(readers) == 4
    for reader in readers:
        data = reader.args.args[0].arg
        passed = [
            call for call in ast.walk(reader)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_payload"
            and getattr(call.args[0], "id", None) == data
        ]
        assert len(passed) == 1 and loads(reader, data) == 1, reader.name
    caught = {
        name.id
        for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler) and handler.type
        for name in ast.walk(handler.type) if isinstance(name, ast.Name)
    }
    assert not caught & {"KeyError", "TypeError"}


def test_errors_holds_the_one_array_rule():
    # an input array's finiteness and sign are its contract, stated in the one
    # errors.checked_array call; a test of them after that call is a second rule
    offenders = {
        module: hits for module, tree in TREES.items() if module != "errors" and (hits := array_contract_checks(tree))
    }
    assert offenders == {}
