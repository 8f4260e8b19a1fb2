"""The package's one exponential is in ``_arrays``: every exp(tA) goes through
``stoqlift._arrays.semigroup``, which checks it, and its numpy ``expm``. No
module imports ``scipy.linalg``, whose import costs a CLI process 150-250 ms."""

import ast
from pathlib import Path

import pytest

from stoqlift import _arrays

SRC = Path(_arrays.__file__).resolve().parent


def _scipy_linalg_imports(source: str) -> list[str]:
    """Each import of ``scipy.linalg`` or of anything from it in a module."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.startswith("scipy.linalg") or (module == "scipy"
                                                     and "linalg" in names):
                uses.append(f"line {node.lineno}: from {module} import")
        elif isinstance(node, ast.Import):
            uses += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                     if alias.name.startswith("scipy.linalg")]
    return uses


def _expm_names(source: str) -> list[str]:
    """Each name, attribute, definition or alias ``expm`` in a module."""
    return [f"line {getattr(node, 'lineno', '?')}: expm"
            for node in ast.walk(ast.parse(source))
            if "expm" in {getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None), getattr(node, "asname", None)}]


def _modules():
    return sorted(SRC.glob("*.py"))


def test_no_module_imports_scipy_linalg():
    found = {path.name: uses for path in _modules()
             if (uses := _scipy_linalg_imports(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "from scipy.linalg import expm", "import scipy.linalg",
    "from scipy import linalg", "def f():\n    from scipy.linalg import expm as e\n"])
def test_the_import_scan_sees_scipy_linalg(source):
    assert _scipy_linalg_imports(source)


def test_only_the_arrays_module_names_expm():
    found = {path.name: uses for path in _modules()
             if path.name != "_arrays.py" and (uses := _expm_names(path.read_text()))}
    assert found == {}


def test_the_name_scan_sees_the_one_exponential():
    assert _expm_names((SRC / "_arrays.py").read_text())
