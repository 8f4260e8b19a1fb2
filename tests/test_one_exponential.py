"""scipy's matrix exponential is reached from one function: every exp(tA) of
the package goes through ``stoqlift._arrays.semigroup``, which checks it."""

import ast
from pathlib import Path

from stoqlift import _arrays

SRC = Path(_arrays.__file__).resolve().parent


def _exponential_uses(path: Path) -> list[str]:
    """Each import from ``scipy.linalg`` and each name ``expm`` in a module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.startswith("scipy.linalg") or (module == "scipy"
                                                     and "linalg" in names):
                uses.append(f"line {node.lineno}: from {module} import")
        elif isinstance(node, ast.Import):
            uses += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                     if alias.name.startswith("scipy.linalg")]
        if "expm" in {getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "name", None), getattr(node, "asname", None)}:
            uses.append(f"line {getattr(node, 'lineno', '?')}: expm")
    return uses


def test_only_the_arrays_module_reaches_scipy_expm():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if path.name != "_arrays.py" and (uses := _exponential_uses(path))}
    assert found == {}


def test_the_scan_sees_the_one_call():
    assert _exponential_uses(SRC / "_arrays.py")
