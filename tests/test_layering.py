"""The kernels and the quadrature oracle share no code: the AGM module does
not import the oracle, and the oracle imports nothing of the package but its
errors.  No module imports ``dataclasses``."""

import ast
from pathlib import Path

import conicrect

PACKAGE = Path(conicrect.__file__).parent
AGM = PACKAGE / "agm.py"
QUADRATURE = PACKAGE / "quadrature.py"


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def test_agm_does_not_import_quadrature():
    imported = _imported_modules(ast.parse(AGM.read_text(), str(AGM)))
    assert not [name for name in imported if "quadrature" in name.split(".")]


def test_quadrature_imports_only_errors_from_the_package():
    tree = ast.parse(QUADRATURE.read_text(), str(QUADRATURE))
    relative = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == ["errors"]
    assert not [name for name in _imported_modules(tree) if name.split(".")[0] == "conicrect"]


def test_no_module_imports_dataclasses():
    # the records are named tuples; dataclasses, with the inspect, ast and
    # dis it imports, was about half of ``import conicrect``
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in {name.split(".")[0] for name in _imported_modules(ast.parse(path.read_text(), str(path)))}
    ]
    assert importers == []
