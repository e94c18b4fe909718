"""Kernels never reach the quadrature oracle: the AGM module does not import it."""

import ast
from pathlib import Path

import conicrect

AGM = Path(conicrect.__file__).parent / "agm.py"


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
