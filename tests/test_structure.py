import ast
from pathlib import Path

import cbmlab

PACKAGE = Path(cbmlab.__file__).parent


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
