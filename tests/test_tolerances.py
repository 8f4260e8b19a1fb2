"""The tolerance table in ``stoqlift._arrays`` is the one place a default
tolerance is written down; the modules re-export its entries. A tolerance
passed to a divisibility check, or to any other public function, must be a
finite nonnegative number, as ``--tol`` must."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from stoqlift import (DensityOperator, GkslGenerator, KernelFamily, KrausMap,
                      PovmEffects, ProbabilityVector, RateMatrix,
                      StochasticKernel, SuperOperator, SuperOperatorFamily, _arrays,
                      c_divisibility_check, check_ck_family, check_cptp,
                      choi_from_superoperator, ck_checklist, compatibility_check,
                      diagonal_preservation_check, dictionary_kernel,
                      environment_division_scenario, one_step_indistinguishable,
                      povm_from_channel, q_divisibility_check, theorem1_check,
                      theta_conjugation_lift, theta_markov_triviality_demo,
                      three_time_freedom, validate_kernel)

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


# Every other public tolerance, each the one argument of a call on inputs
# whose answer at in-range tolerances is known.
E2 = np.eye(2)
IDENTITY_MAP = KrausMap([E2])
GRID = [0.0, 0.5, 1.0]
RATE = [[-1.0, 2.0], [1.0, -2.0]]

TOLERANCE_CALLS = {
    "check_cptp(tol_tp)": (lambda t: check_cptp(I4, tol_tp=t).passed, True),
    "check_cptp(tol_psd)": (lambda t: check_cptp(I4, tol_psd=t).passed, True),
    "KrausMap(tol_tp)": (lambda t: KrausMap([E2], tol_tp=t).trace_preserving, True),
    "ChoiMatrix.is_completely_positive": (
        lambda t: choi_from_superoperator(I4).is_completely_positive(t), True),
    "compatibility_check": (
        lambda t: compatibility_check(IDENTITY_MAP, I2, tol=t).passed, True),
    "theta_conjugation_lift": (
        lambda t: theta_conjugation_lift(E2, tol_tp=t).trace_preserving, True),
    "dictionary_kernel": (
        lambda t: dictionary_kernel(IDENTITY_MAP, tol_tp=t).matrix.tolist(),
        E2.tolist()),
    "povm_from_channel": (
        lambda t: len(povm_from_channel(IDENTITY_MAP, tol_tp=t).effects), 2),
    "check_ck_family": (
        lambda t: check_ck_family(KernelFamily.from_rate_matrix(RATE, GRID), t).passed,
        True),
    "ck_checklist": (
        lambda t: ck_checklist(SuperOperatorFamily.from_generator(
            GkslGenerator.zero(2), GRID), t).passed, True),
    "diagonal_preservation_check": (
        lambda t: diagonal_preservation_check(GkslGenerator.zero(2), t), True),
    "one_step_indistinguishable": (lambda t: one_step_indistinguishable(E2, E2, t), True),
    "theta_markov_triviality_demo": (
        lambda t: theta_markov_triviality_demo(lambda h: E2, 1.0, [1, 2],
                                               tol_identity=t)[1].product_distance, 0.0),
    "three_time_freedom": (
        lambda t: three_time_freedom(StochasticKernel(np.full((2, 2), 0.5)),
                                     StochasticKernel(np.full((2, 2), 0.5)),
                                     t).strictly_positive, True),
    # The validating constructors and their shared intake checks.
    "validate_kernel(tol_entry)": (lambda t: validate_kernel(E2, tol_entry=t).passed, True),
    "validate_kernel(tol_colsum)": (
        lambda t: validate_kernel(E2, tol_colsum=t).passed, True),
    "StochasticKernel(tol_entry)": (
        lambda t: StochasticKernel(E2, tol_entry=t).matrix.tolist(), E2.tolist()),
    "StochasticKernel(tol_colsum)": (
        lambda t: StochasticKernel(E2, tol_colsum=t).matrix.tolist(), E2.tolist()),
    "ProbabilityVector(tol)": (
        lambda t: ProbabilityVector([1.0, 0.0], tol=t).entries.tolist(), [1.0, 0.0]),
    "ProbabilityVector(tol_sum)": (
        lambda t: ProbabilityVector([1.0, 0.0], tol_sum=t).entries.tolist(), [1.0, 0.0]),
    "RateMatrix(tol)": (lambda t: RateMatrix(RATE, tol=t).matrix.tolist(), RATE),
    "KernelFamily(tol_identity)": (
        lambda t: KernelFamily(GRID, lambda t_, s: E2, tol_identity=t).grid.tolist(), GRID),
    "DensityOperator(tol_herm)": (
        lambda t: DensityOperator(E2 / 2, tol_herm=t).matrix.tolist(), (E2 / 2).tolist()),
    "DensityOperator(tol_psd)": (
        lambda t: DensityOperator(E2 / 2, tol_psd=t).matrix.tolist(), (E2 / 2).tolist()),
    "GkslGenerator(tol_herm)": (lambda t: GkslGenerator(E2, tol_herm=t).n, 2),
    "PovmEffects(tol_herm)": (lambda t: len(PovmEffects([E2], tol_herm=t).effects), 1),
    "PovmEffects(tol_psd)": (lambda t: len(PovmEffects([E2], tol_psd=t).effects), 1),
    "PovmEffects(tol_sum)": (lambda t: len(PovmEffects([E2], tol_sum=t).effects), 1),
}


@pytest.mark.parametrize("name", TOLERANCE_CALLS)
@pytest.mark.parametrize("tolerance", [np.nan, -1.0, np.inf, -1e-300, -np.inf])
def test_every_public_tolerance_is_refused_unless_finite_and_nonnegative(
        name, tolerance):
    # Each answered before: check_cptp(identity) read passed=False at NaN
    # and -1, one_step_indistinguishable(I, I) False, and
    # three_time_freedom(I, I, -1) strictly_positive=True; each constructor
    # refused its valid input at NaN and -1 and built it at inf.
    call, _ = TOLERANCE_CALLS[name]
    with pytest.raises(ValueError, match=REFUSED):
        call(tolerance)


@pytest.mark.parametrize("name", TOLERANCE_CALLS)
def test_every_public_tolerance_keeps_its_answers_in_range(name):
    call, expected = TOLERANCE_CALLS[name]
    for tolerance in (1e-9, 1e-3, 0.1):
        assert call(tolerance) == expected


def test_default_tolerances_keep_their_answers():
    assert check_cptp(I4).passed and IDENTITY_MAP.trace_preserving
    assert compatibility_check(IDENTITY_MAP, I2).passed
    assert one_step_indistinguishable(E2, E2)
    assert not three_time_freedom(I2, I2).strictly_positive
    assert three_time_freedom(I2, I2, 0.0).min_entry == 0.0
    assert check_ck_family(KernelFamily.from_rate_matrix(RATE, GRID)).passed
    assert ck_checklist(SuperOperatorFamily.from_generator(GkslGenerator.zero(2),
                                                           GRID)).passed


def test_constructors_keep_their_answers_at_the_defaults():
    assert DensityOperator(E2 / 2).matrix.tolist() == (E2 / 2).tolist()
    assert StochasticKernel(E2).matrix.tolist() == E2.tolist()
    assert validate_kernel([[1.0, 0.0], [1e-11, 1.0]]).passed
    assert ProbabilityVector([1.0 + 1e-13, -1e-13]).entries.tolist() == [1.0 + 1e-13, 0.0]
    assert RateMatrix(RATE).matrix.tolist() == RATE
    assert KernelFamily.from_rate_matrix(RATE, GRID).identity_residuals == {
        0.0: 0.0, 0.5: 0.0, 1.0: 0.0}
    assert GkslGenerator(E2).n == 2
    assert len(PovmEffects([E2 / 2, E2 / 2]).effects) == 2


@pytest.mark.parametrize("build", [
    lambda: DensityOperator(np.diag([2.0, -1.0]), tol_psd=np.inf),
    lambda: StochasticKernel([[2.0, 0.0], [0.0, 2.0]], tol_colsum=np.inf),
])
def test_an_infinite_tolerance_no_longer_builds_an_invalid_value(build):
    # These built a state with eigenvalue -1 and a kernel whose columns sum to 2.
    with pytest.raises(ValueError, match=REFUSED):
        build()
