"""No module-level private helper outlives its last caller."""

import ast
from pathlib import Path

import conicrect

SOURCES = sorted(Path(conicrect.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if _private(name)}


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _definitions(tree) - used
    )
    assert unused == []
