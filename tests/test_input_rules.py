"""Four input rules, each stated in one place and called from every site:
a step or scale is positive and finite (``_arrays.require_positive``), a
basis index is in range (``_arrays.require_index``), a Kraus map is trace
preserving (``KrausMap._require_trace_preserving``) and a kernel is
column-stochastic (``kernels._require_stochastic``). Each site refuses a bad
input with the home's exception and wording, and accepts one at the edge of
the rule; an AST scan keeps the first two comparisons out of other modules.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from stoqlift import (DensityOperator, GkslGenerator, KernelFamily,
                      KernelValidationReport, KrausMap, ProbabilityVector, RateMatrix,
                      StochasticKernel, SuperOperatorFamily, ValidationError, _arrays,
                      barandes_column_lift, dictionary_kernel, dtmc_to_ctmc_scaling,
                      generator_from_family, modified_readout_kernel,
                      povm_from_channel, short_time_derivatives, short_time_kraus,
                      theta_markov_triviality_demo, two_step_difference)

SRC = Path(_arrays.__file__).resolve().parent
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
GRID = [0.0, 0.5, 1.0]
FLIP_RATE = RateMatrix([[-1.0, 1.0], [1.0, -1.0]])


def _kernel_family():
    return KernelFamily.from_rate_matrix([[-1.0, 2.0], [1.0, -2.0]], GRID)


def _superop_family():
    return SuperOperatorFamily.from_generator(GkslGenerator.zero(2), GRID)


# --- positive and finite ------------------------------------------------------

#: Each site's name for the value, the call with that value, and a value
#: just above zero that the site accepts.
POSITIVE_SITES = {
    "short_time_kraus": (
        "time step", lambda v: short_time_kraus(GkslGenerator.zero(2), v), 5e-324),
    "generator_from_family": (
        "finite-difference step",
        lambda v: generator_from_family(_superop_family(), 0.0, v), 1e-300),
    "short_time_derivatives": (
        "step size", lambda v: short_time_derivatives(_kernel_family(), 0.0, [v, 1e-3]),
        1e-150),
    "dtmc_to_ctmc_scaling(t_star)": (
        "microscopic time scale",
        lambda v: dtmc_to_ctmc_scaling(FLIP_RATE, v, 1.0, [0.1]), 1e-300),
    "dtmc_to_ctmc_scaling(epsilon)": (
        "epsilon", lambda v: dtmc_to_ctmc_scaling(FLIP_RATE, 1.0, 1.0, [v]), 1e-150),
    "theta_markov_triviality_demo": (
        "time span", lambda v: theta_markov_triviality_demo(lambda h: np.eye(2), v, [1]),
        5e-324),
}


@pytest.mark.parametrize("site", POSITIVE_SITES)
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_positive_and_finite_is_refused_in_one_wording(site, value):
    what, call, _ = POSITIVE_SITES[site]
    with pytest.raises(ValueError,
                       match=f"^{what} must be positive and finite, got {value}$"):
        call(value)


@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_and_finite_accepts_a_value_just_above_zero(site):
    _, call, edge = POSITIVE_SITES[site]
    call(edge)


@pytest.mark.parametrize("steps, product", [([1e-300, 2e-300], 0.0),
                                            ([1e200, 3e200], np.inf)])
def test_short_time_derivatives_refuses_a_step_pair_whose_product_leaves_the_range(
        steps, product):
    # Each step is positive and finite, but h1 * h2, which the stencils
    # divide by, underflows or overflows: it raised ZeroDivisionError.
    with pytest.raises(ValueError, match="^{}$".format(re.escape(
            f"stencil product of the steps {steps[0]} and {steps[1]} "
            f"must be positive and finite, got {product}"))):
        short_time_derivatives(_kernel_family(), 0.0, steps)


# --- basis index --------------------------------------------------------------

INDEX_SITES = {
    "ProbabilityVector.basis": ProbabilityVector.basis,
    "DensityOperator.basis_projector": DensityOperator.basis_projector,
    "two_step_difference": lambda i, n: two_step_difference(
        np.eye(n), np.eye(n), np.eye(n), i),
}


@pytest.mark.parametrize("site", INDEX_SITES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_index_out_of_range_is_refused_in_one_wording(site, n):
    for index in (-1, n):
        with pytest.raises(ValueError,
                           match=f"^basis index {index} out of range for dimension {n}$"):
            INDEX_SITES[site](index, n)


@pytest.mark.parametrize("site", INDEX_SITES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_and_last_basis_index_are_accepted(site, n):
    INDEX_SITES[site](0, n)
    INDEX_SITES[site](n - 1, n)


# --- trace preservation -------------------------------------------------------

TP_REFUSED = r"^{} is not trace preserving \(completeness residual 3\.000e\+00\)$"
DOUBLING = KrausMap([2.0 * np.eye(2)])  # K^dagger K - I = 3 I


@pytest.mark.parametrize("what, call", [
    ("map", lambda: dictionary_kernel(DOUBLING)),
    ("channel", lambda: povm_from_channel(DOUBLING)),
    ("readout channel", lambda: modified_readout_kernel(DOUBLING, KrausMap([HADAMARD]))),
    ("evolution", lambda: modified_readout_kernel(KrausMap([HADAMARD]), DOUBLING)),
])
def test_trace_preservation_is_refused_in_one_wording(what, call):
    with pytest.raises(ValidationError, match=TP_REFUSED.format(what)):
        call()


def _near_channel(n=2, excess=1e-6):
    """A map whose completeness residual is about ``excess``, with its own
    trace-preservation flag set at exactly that residual."""
    ops = [np.sqrt(1.0 + excess) * np.eye(n)]
    residual = KrausMap(ops).completeness_residual
    return KrausMap(ops, tol_tp=residual), residual


@pytest.mark.parametrize("call", [dictionary_kernel, povm_from_channel])
def test_trace_preservation_threshold_is_the_given_tolerance(call):
    kmap, residual = _near_channel()
    call(kmap, tol_tp=residual)
    with pytest.raises(ValidationError, match="is not trace preserving"):
        call(kmap, tol_tp=np.nextafter(residual, 0.0))


def test_modified_readout_reads_each_maps_own_flag():
    kmap, residual = _near_channel()
    assert kmap.trace_preserving and residual > 1e-10
    assert modified_readout_kernel(kmap, kmap).n == 2
    strict = KrausMap(kmap.operators)  # the default tolerance, 1e-10
    for pair in ((strict, kmap), (kmap, strict)):
        with pytest.raises(ValidationError, match="is not trace preserving"):
            modified_readout_kernel(*pair)


# --- column-stochastic --------------------------------------------------------

STOCHASTIC_SITES = {
    "StochasticKernel": ("matrix", lambda: StochasticKernel([[2.0, 0.0], [-1.0, 1.0]])),
    "dtmc_to_ctmc_scaling": (
        "one-step matrix at epsilon=2.0",
        lambda: dtmc_to_ctmc_scaling(FLIP_RATE, 1.0, 1.0, [2.0])),
    "barandes_column_lift": ("|theta|^2", lambda: barandes_column_lift(2.0 * np.eye(2))),
}


@pytest.mark.parametrize("site", STOCHASTIC_SITES)
def test_non_stochastic_kernel_is_refused_with_its_report(site):
    what, call = STOCHASTIC_SITES[site]
    with pytest.raises(ValidationError) as caught:
        call()
    report = caught.value.report
    assert isinstance(report, KernelValidationReport) and not report.passed
    assert str(caught.value) == (
        f"{what} is not column-stochastic "
        f"(worst negative entry {report.max_negative_entry:.3e}, "
        f"worst column-sum error {report.max_column_sum_error:.3e})")


def test_stochastic_threshold_is_each_sites_tolerance():
    # A column-sum error of exactly tol_colsum is accepted.
    m = np.array([[1.0, 0.0], [0.25, 1.0]])
    StochasticKernel(m, tol_colsum=0.25)
    with pytest.raises(ValidationError, match="^matrix is not column-stochastic"):
        StochasticKernel(m, tol_colsum=np.nextafter(0.25, 0.0))
    # epsilon = 1 makes the one-step matrix I + R the flip, exactly stochastic.
    assert dtmc_to_ctmc_scaling(FLIP_RATE, 1.0, 1.0, [1.0])[0].n_steps == 1
    # Column sums of |theta|^2 within TOL_STOCH of one.
    barandes_column_lift(np.sqrt(1.0 + 5e-11) * HADAMARD)


# --- one home each ------------------------------------------------------------

#: The comparison each rule's home makes, and the one function allowed to.
HOMES = {"positive and finite": ("_arrays.py", "require_positive"),
         "basis index": ("_arrays.py", "require_index")}


def _is_inf(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def _rule_of(node) -> str | None:
    """The rule a chained comparison ``0 < x < np.inf`` or ``0 <= i < n``
    states, if any; ``0 <= t < np.inf`` (nonnegative and finite) is neither."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 2
            and isinstance(node.left, ast.Constant) and node.left.value == 0
            and isinstance(node.ops[1], ast.Lt)):
        return None
    if isinstance(node.ops[0], ast.Lt) and _is_inf(node.comparators[1]):
        return "positive and finite"
    if isinstance(node.ops[0], ast.LtE) and not _is_inf(node.comparators[1]):
        return "basis index"
    return None


def _restated_rules(source: str, filename: str) -> list[str]:
    """Each statement of a rule outside its home, with its enclosing function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        rule = _rule_of(node)
        if rule is not None and HOMES[rule] != (filename, owner):
            found.append(f"{filename} line {node.lineno} in {owner}: {rule}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_each_rule_is_stated_only_in_its_home():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _restated_rules(path.read_text(), path.name)
    assert found == []


def test_the_scan_sees_a_restated_rule():
    source = ("def short_time_kraus(gen, dt):\n"
              "    if not 0 < dt < np.inf:\n"
              "        raise ValueError\n"
              "def basis(index, n):\n"
              "    return all(0 <= i < n for i in index)\n"
              "def semigroup(a, t):\n"
              "    return 0 <= t < np.inf\n")
    assert _restated_rules(source, "dynamics.py") == [
        "dynamics.py line 2 in short_time_kraus: positive and finite",
        "dynamics.py line 5 in basis: basis index"]


def test_the_homes_state_their_rules():
    tree = ast.parse((SRC / "_arrays.py").read_text())
    assert {_rule_of(node) for node in ast.walk(tree)} - {None} == set(HOMES)
