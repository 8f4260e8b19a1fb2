"""``lifts`` reaches each map representation through its own private method
(``_superoperator``, ``_tp_residual``, ``_induced``), not through ``isinstance``
chains: only ``_supported``, the type gate, tests the map types."""

import ast
from pathlib import Path

from stoqlift import lifts

MAP_TYPES = {"KrausMap", "LeftRightMap", "SuperOperator"}


def _map_type_checks(source: str) -> list[str]:
    """Each ``isinstance`` call naming a map type, with its enclosing function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            if names & MAP_TYPES and owner != "_supported":
                found.append(f"line {node.lineno} in {owner}: "
                             f"{', '.join(sorted(names & MAP_TYPES))}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_lifts_holds_no_isinstance_on_map_types():
    assert _map_type_checks(Path(lifts.__file__).read_text()) == []


def test_the_scan_sees_a_branch_on_a_map_type():
    source = ("def to_superoperator(map_):\n"
              "    if isinstance(map_, (KrausMap, int)):\n"
              "        pass\n"
              "def _supported(map_):\n"
              "    return isinstance(map_, SuperOperator)\n")
    assert _map_type_checks(source) == ["line 2 in to_superoperator: KrausMap"]
