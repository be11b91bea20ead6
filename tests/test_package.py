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


# definitions, top-level or methods of top-level classes, that no line of
# the package calls, each kept for a reason outside the package
UNCALLED = {
    "hom_basis": "perfbench traces it as a layer, and the tests' vertex-wise Hom reference uses it",
    "ideal_generators": "the tests read the generator memo of chart_ideal through it",
    "_Parser.error": "argparse calls it on a bad command line",
    "SubmodulePoint.from_rows": "the library's checked constructor of a point from raw rows, which raises "
    "NotSubmoduleError; the package builds points only from rows it reduced itself",
}


def _trees():
    for source in sorted(PACKAGE.glob("*.py")):
        yield source.name, ast.parse(source.read_text(), filename=str(source))


def test_every_definition_is_used_in_the_package():
    """Every top-level function and class of the package, and every method
    and property of such a class but the dunders, is named somewhere in the
    package outside its own body and outside __init__.py, so the library
    keeps only what it or the command line runs."""
    defs = []  # (module, key, name, first line, last line)
    names = []  # (module, line, name) of every name and attribute read
    for module, tree in _trees():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defs.append((module, f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((module, node.lineno, node.attr))
    assert defs
    unused = [
        f"{module}: {key}"
        for module, key, name, first, last in defs
        if key not in UNCALLED
        and not any(n == name and not (m == module and first <= line <= last) for m, line, n in names)
    ]
    assert unused == []
    assert set(UNCALLED) <= {key for _, key, _, _, _ in defs}


# functions that assign attributes of an object other than self, each with
# its reason
FOREIGN_WRITES = {
    "Echelon.of_reduced": "a factory: it fills the new Echelon it returns",
    "_new_path": "a factory: it fills the new Path it returns",
    "build_algebra": "a factory: it fills the new AlgebraPresentation it returns",
    "chart_ideal": "it fills ChartContext.ideal; the context holds no algebra, because the algebra holds the context",
}


def _attribute_targets(target):
    if isinstance(target, ast.Attribute):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _attribute_targets(elt)
    elif isinstance(target, ast.Starred):
        yield from _attribute_targets(target.value)


def _foreign_writers(node, scope=()):
    """Qualified names of the functions under node that assign an attribute
    of an object other than self."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _foreign_writers(child, scope + (child.name,))
            continue
        if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                for attr in _attribute_targets(target):
                    if not (isinstance(attr.value, ast.Name) and attr.value.id == "self"):
                        yield ".".join(scope)
        yield from _foreign_writers(child, scope)


def test_functions_write_only_their_own_attributes():
    """No package function assigns an attribute of an object other than
    self: a value derived from an object is kept on that object, by the
    object itself."""
    writers = {name for _, tree in _trees() for name in _foreign_writers(tree)}
    assert sorted(writers - set(FOREIGN_WRITES)) == []
    assert set(FOREIGN_WRITES) <= writers
