"""The tolerance table in ``stoqlift._arrays`` is the one place a default
tolerance is written down; the modules re-export its entries. A tolerance
passed to a divisibility check must be a finite nonnegative number, as
``--tol`` must."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from stoqlift import (ProbabilityVector, StochasticKernel, SuperOperator, _arrays,
                      c_divisibility_check, environment_division_scenario,
                      q_divisibility_check, theorem1_check)

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


I2 = StochasticKernel(np.eye(2))
I4 = SuperOperator.identity(2)
REFUSED = "tolerance must be a finite nonnegative number"


def test_negative_classical_tolerance_is_refused():
    # It read "not divisible" for the identity over itself.
    with pytest.raises(ValueError, match=REFUSED):
        c_divisibility_check(I2, I2, -1e-12)


def test_nan_quantum_tolerance_is_refused():
    # It read "indivisible": "no linear factorization exists (residual 1.000e+00)".
    with pytest.raises(ValueError, match=REFUSED):
        q_divisibility_check(I4, I4, np.nan)


def test_infinite_quantum_tolerance_is_refused():
    # It read "divisible", with the zero map as witness.
    with pytest.raises(ValueError, match=REFUSED):
        q_divisibility_check(I4, I4, np.inf)


def test_negative_theorem1_tolerance_is_refused():
    # It read q_divisible=True beside c_divisible=False.
    with pytest.raises(ValueError, match=REFUSED):
        theorem1_check(I4, I4, -1.0)


@pytest.mark.parametrize("tolerance", [-1e-300, -np.inf, np.inf, np.nan])
def test_every_check_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tolerance):
    for check, args in ((c_divisibility_check, (I2, I2)),
                        (q_divisibility_check, (I4, I4)),
                        (theorem1_check, (I4, I4)),
                        (environment_division_scenario,
                         (ProbabilityVector([1.0, 0.0]), SuperOperator.identity(4),
                          I4, I4))):
        with pytest.raises(ValueError, match=REFUSED):
            check(*args, tolerance)


def test_zero_tolerance_is_kept():
    assert c_divisibility_check(I2, I2, 0.0).divisible
    assert q_divisibility_check(I4, I4, 0.0).verdict == "divisible"
    assert theorem1_check(I4, I4, 0.0).theorem_applies
    report = environment_division_scenario(ProbabilityVector([1.0, 0.0]),
                                           SuperOperator.identity(4), I4, I4, 0.0)
    assert report.record_form and report.c_divisible
