"""No module-level private helper outlives its last caller, no function
accepts a parameter that it never reads, no private default goes unused,
every public definition is exported, every public name has a route, and no
module imports a name that it never reads."""

import ast
import importlib
import types
from pathlib import Path

import conicrect

SOURCES = sorted(Path(conicrect.__file__).parent.glob("*.py"))
BENCHMARKS = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py"))

# Public names that nothing in the package or the benchmarks calls, and why
# each stays: a reference that tests hold another route against, or a map of
# the paper that is yet to be put on a route.
ALLOWED = {
    "ellipse_arc": "closed-form twin of the oracle's ellipse arcs",
    "lagrange_substitution": "the paper's change of variable for one AGM step",
    "series_KE": "the hypergeometric twin that tests hold the Legendre walk against",
}


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


def _public_members(cls: type) -> set[str]:
    """Public methods and properties of a package class, fields excluded."""
    return {
        name
        for klass in cls.__mro__
        if klass.__module__.startswith("conicrect")
        for name, value in vars(klass).items()
        if not name.startswith("_")
        and name not in getattr(cls, "_fields", ())
        and isinstance(value, (property, types.FunctionType, classmethod, staticmethod))
    }


class _Loads(ast.NodeVisitor):
    """Names and attributes loaded in a module, annotations not counted.

    An attribute of a parameter annotated with a class, or of ``self`` in a
    method, is found as ``Class.attr``; any other attribute as ``attr``.  A
    load inside the definition of the name it loads is not counted."""

    def __init__(self) -> None:
        self.found: set[str] = set()
        self.scope: list[tuple[str, dict[str, str]]] = []  # (definition, parameter types)
        self.cls: str | None = None

    def _load(self, name: str) -> None:
        if all(name != definition for definition, _ in self.scope):
            self.found.add(name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expr in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(expr)
        outer, self.cls = self.cls, node.name
        for stmt in node.body:
            self.visit(stmt)
        self.cls = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        annotated = {arg.arg: arg.annotation.id for arg in params if isinstance(arg.annotation, ast.Name)}
        if self.cls is not None and params:
            annotated[params[0].arg] = self.cls
        for expr in (*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults)):
            self.visit(expr)
        name = node.name if self.cls is None else f"{self.cls}.{node.name}"
        outer, self.cls = self.cls, None
        self.scope.append((name, annotated))
        for stmt in node.body:
            self.visit(stmt)
        self.scope.pop()
        self.cls = outer

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = node.value
        owner = None
        if isinstance(receiver, ast.Name):
            owner = next((known[receiver.id] for _, known in reversed(self.scope) if receiver.id in known), None)
        self._load(node.attr if owner is None else f"{owner}.{node.attr}")
        self.visit(receiver)


def _routed() -> set[str]:
    """Names with a route: loaded in the package or in the benchmarks.  A
    string is not a route: the benchmarks' layer tracer names what it wraps
    as strings, whether a workload calls it or not."""
    found = set()
    for path in SOURCES:
        loads = _Loads()
        loads.visit(ast.parse(path.read_text(), str(path)))
        found |= loads.found
    for path in BENCHMARKS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _public_surface() -> set[str]:
    """Each exported name, and ``Class.member`` for each public method or
    property of an exported class."""
    names = set(conicrect.__all__)
    for name in conicrect.__all__:
        obj = getattr(conicrect, name)
        if isinstance(obj, type):
            names |= {f"{name}.{member}" for member in _public_members(obj)}
    return names


def test_every_public_name_has_a_route():
    assert BENCHMARKS
    routed = _routed()
    surface = _public_surface()
    unrouted = sorted(
        name
        for name in surface - set(ALLOWED)
        if name not in routed and name.rpartition(".")[2] not in routed
    )
    assert unrouted == []
    # the allow-list holds only public names that still have no route
    assert sorted(set(ALLOWED) - surface) == []
    assert sorted(set(ALLOWED) & routed) == []


def test_every_import_is_read():
    # star imports re-export; __future__ imports are compiler directives
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
            else:
                continue
            unread.extend(f"{path.name}:{name}" for name in names if name not in reads)
    assert unread == []
