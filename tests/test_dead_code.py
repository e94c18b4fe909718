"""No module-level private helper outlives its last caller, and no
function accepts a parameter that it never reads."""

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


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> list[str]:
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [arg.arg for arg in named if arg is not None]


def _reads(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    # a read anywhere in the body counts, nested closures included
    body = [node.body] if isinstance(node, ast.Lambda) else node.body
    return {
        sub.id
        for stmt in body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def test_no_parameter_is_accepted_and_then_ignored():
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                reads = _reads(node)
                name = getattr(node, "name", "<lambda>")
                unread.extend(
                    f"{path.name}:{node.lineno} {name}({param})"
                    for param in _parameters(node)
                    if param not in reads
                )
    assert unread == []
