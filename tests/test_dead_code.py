"""No module-level private helper outlives its last caller, no function
accepts a parameter that it never reads, no private default goes unused, and
every public definition is exported."""

import ast
import importlib
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


def test_every_public_definition_is_exported():
    # cli.py is the command line, not the library; __init__.py defines
    # nothing and exports the union of the modules' lists
    missing = []
    for path in SOURCES:
        if path.name in ("cli.py", "__init__.py"):
            continue
        exported = set(importlib.import_module(f"conicrect.{path.stem}").__all__)
        missing.extend(
            f"{path.name}:{node.name}"
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not (node.name in exported and node.name in conicrect.__all__)
        )
    assert missing == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_default_of_a_private_function_is_overridden_somewhere():
    # a default that no call in the package overrides is a constant in
    # disguise; a call passes the parameter by keyword or by position
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    passed = set()
    for tree in trees:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = _callee(call)
            passed.update((name, i) for i, arg in enumerate(call.args) if not isinstance(arg, ast.Starred))
            passed.update((name, kw.arg) for kw in call.keywords)
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
                passed.add((name, "*"))
    unpassed = []
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [
                (arg.arg, index)
                for index, arg in enumerate(positional)
                if index >= len(positional) - len(args.defaults)
            ] + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            unpassed.extend(
                f"{node.name}({param})"
                for param, index in defaulted
                if not {(node.name, param), (node.name, index), (node.name, "*")} & passed
            )
    assert unpassed == []
