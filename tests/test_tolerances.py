"""The tolerance table in ``stoqlift._arrays`` is the one place a default
tolerance is written down; the modules re-export its entries."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

from stoqlift import _arrays

SRC = Path(_arrays.__file__).resolve().parent

#: Float literals of the form ``1e-9`` that are not tolerances: the floor
#: nudge in ``dtmc_to_ctmc_scaling``.
NOT_TOLERANCES = {"kernels.py": ["1e-9"]}

#: Module-level names that existed before the table and must keep importing.
REEXPORTS = {
    "kernels": ["TOL_PROB", "TOL_STOCH", "TOL_DIV"],
    "lifts": ["TOL_HERM", "TOL_PSD", "TOL_TP", "PINV_RCOND", "KRAUS_DROP_NORM",
              "TOL_PROB", "TOL_STOCH", "TOL_DIV"],
    "dynamics": ["FD_STEP", "CK_TOLERANCE", "TOL_HERM"],
    "division": ["RECORD_FORM_TOL", "TOL_DIV", "TOL_PROB", "TOL_STOCH",
                 "TOL_PSD", "TOL_TP"],
    "memory": ["TOL_UNITARY", "TOL_HERM", "TOL_PSD", "TOL_TP"],
}


def _exponent_literals(path: Path) -> list[str]:
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [tok.string for tok in tokens if tok.type == tokenize.NUMBER
            and re.search(r"\de-\d+", tok.string.lower())]


def test_no_tolerance_literal_outside_the_table():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_arrays.py" and (literals := _exponent_literals(path)):
            found[path.name] = literals
    assert found == NOT_TOLERANCES


def test_float_constants_are_assigned_only_in_the_table():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)):
                for target in node.targets:
                    owners.setdefault(target.id, []).append(path.name)
    assert owners and all(files == ["_arrays.py"] for files in owners.values())


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REEXPORTS.items()
                                          for n in names])
def test_module_names_are_the_table_entries(module, name):
    value = getattr(importlib.import_module(f"stoqlift.{module}"), name)
    assert value is getattr(_arrays, name)
