"""The JSON formats have one reader and one writer: only
``stoqlift.serialization`` imports ``json``, so every report and every file
is encoded by its ``_dumps``, which refuses NaN and infinity."""

import ast
from pathlib import Path

from stoqlift import serialization

SRC = Path(serialization.__file__).resolve().parent


def _json_imports(path: Path) -> list[str]:
    """Each import of ``json`` (or a submodule of it) in a module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            uses += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                     if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                (node.module or "").split(".")[0] == "json"):
            uses.append(f"line {node.lineno}: from {node.module} import")
    return uses


def test_only_the_serialization_module_imports_json():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if path.name != "serialization.py" and (uses := _json_imports(path))}
    assert found == {}


def test_the_scan_sees_the_one_import():
    assert _json_imports(SRC / "serialization.py")
