"""The kernels and the quadrature oracle share no code: the AGM module does
not import the oracle, and the oracle imports nothing of the package but its
errors."""

import ast
from pathlib import Path

import conicrect

AGM = Path(conicrect.__file__).parent / "agm.py"
QUADRATURE = Path(conicrect.__file__).parent / "quadrature.py"


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
