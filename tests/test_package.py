"""Packaging rules that no behavioural test sees."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quivergrass"


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module;
    relative imports stay inside the package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name}: import {name}"


# top-level definitions that no line of the package calls, each kept for a
# reason outside the package
UNCALLED = {
    "hom_basis": "perfbench traces it as a layer, and the tests' vertex-wise Hom reference uses it",
    "ideal_generators": "the tests read the generator memo of chart_ideal through it",
}


def test_every_definition_is_used_in_the_package():
    """Every top-level function and class of the package is named somewhere
    in the package outside its own body and outside __init__.py, so the
    library keeps only what it or the command line runs."""
    defs = []
    names = []  # (module, line, name) of every name and attribute read
    for source in sorted(PACKAGE.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((source.name, node.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((source.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((source.name, node.lineno, node.attr))
    assert defs
    unused = [
        f"{module}: {name}"
        for module, name, first, last in defs
        if name not in UNCALLED
        and not any(n == name and not (m == module and first <= line <= last) for m, line, n in names)
    ]
    assert unused == []
    assert set(UNCALLED) <= {name for _, name, _, _ in defs}
