"""The feasibility route of ``c_divisibility_check``: the interval
certificate, the norm certificate and the elastic HiGHS program, checked
against the n^2 + n program of ``conftest.loop_feasibility_program``,
solved by scipy. Some test names still speak of a simplex; that solver
was replaced by this route, and the names were kept.
"""

import numpy as np
import pytest

from stoqlift import StochasticKernel, c_divisibility_check
from stoqlift.kernels import TOL_DIV

from conftest import (kernel_of_nullity, lazy_kernel, reference_feasible,
                      signed_factor_pair)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
MIX = np.array([[0.5, 0.5], [0.5, 0.5]])


def _check(g20, g10, tolerance=TOL_DIV):
    return c_divisibility_check(StochasticKernel(g20), StochasticKernel(g10),
                                tolerance)


def test_feasible_square_system():
    result = _check(MIX, MIX)
    assert result.divisible and result.route == "feasibility"
    np.testing.assert_allclose(result.witness.matrix @ MIX, MIX, atol=1e-12)
    assert result.witness.matrix.min() >= 0


def test_unbounded_intervals_spread_the_sum_evenly():
    # gamma_10 = [[1, 1], [0, 0]] has a zero row, so its free direction is
    # that row's basis vector u, with singular value exactly 0. Below the
    # rounding of the inverse (1e-300), the least-squares factor's column
    # sums miss, and every row's interval for y is unbounded above: the sum
    # y must still gain is spread evenly over the rows instead of as
    # inf / inf. The candidate is then finite, its column-sum error that
    # rounding, and the verdict a backward-error "not divisible" with no
    # constraint violated.
    g10 = np.array([[1.0, 1.0], [0.0, 0.0]])
    result = _check(g10, g10, 1e-300)
    report = result.candidate_validation
    assert not result.divisible and result.route == "feasibility"
    assert result.infeasibility == 0.0 and result.violated_constraints == ()
    assert report.max_negative_entry == 0.0
    assert 0 < report.max_column_sum_error <= 4 * np.finfo(float).eps
    assert _check(g10, g10).divisible


def test_zero_singular_value_box_is_all_of_r_at_zero_tolerance():
    # b along the exactly-zero singular value is exactly 0, so its box is
    # all of R, not the NaN interval (0 - 0) / 0 that read every row
    # violated with infinite infeasibility. A zero tolerance still accepts
    # only an exact witness, and the witness misses unit column sums by one
    # rounding.
    g10 = np.array([[1.0, 1.0], [0.0, 0.0]])
    result = _check(g10, g10, 0.0)
    assert not result.divisible and result.route == "feasibility"
    assert result.violated_constraints == () and result.infeasibility == 0.0
    assert 0 < result.candidate_validation.max_column_sum_error <= 4 * np.finfo(float).eps


def test_zero_singular_value_box_is_empty_where_b_is_not_zero():
    # The identity has a component along gamma_10's null direction, which
    # no factor can reach: both rows are violated at any tolerance below it.
    g10 = np.array([[1.0, 1.0], [0.0, 0.0]])
    for tolerance in (0.0, 1e-300, TOL_DIV):
        result = _check(np.eye(2), g10, tolerance)
        assert not result.divisible
        assert result.violated_constraints == ("row[0]", "row[1]")
        assert result.infeasibility == np.inf


def test_infeasible_reports_violated_rows():
    # Any factor acting after the full mix has identical columns.
    result = _check(FLIP, MIX)
    assert not result.divisible
    assert result.infeasibility > 0.5
    assert result.violated_constraints


def test_negativity_requirement_infeasible():
    # gamma_20 = X gamma_10 >= 0 for an X with unit column sums but negative
    # entries; moving X along the free direction cannot fix row 1.
    g20, g10 = signed_factor_pair(64)
    result = _check(g20, g10)
    assert not result.divisible
    assert result.violated_constraints == ("row[1]",)
    assert not reference_feasible(g20, g10, 10 * TOL_DIV)


def test_elastic_program_agrees_with_scipy():
    # Nullity 2 with every row reachable: the linear program decides.
    pairs = [p for p in (signed_factor_pair(s, 4, 2) for s in range(60)) if p]
    verdicts = set()
    for g20, g10 in pairs:
        result = _check(g20, g10)
        assert result.divisible == reference_feasible(g20, g10, TOL_DIV)
        verdicts.add(result.divisible)
    assert verdicts == {True, False}
    result = _check(*signed_factor_pair(24, 4, 2))
    assert result.violated_constraints == ("row[3]",)
    assert result.infeasibility > 0


def test_redundant_rows_are_tolerated():
    # Three equal columns: nullity 2, decided by the linear program, whose
    # n column-sum rows have rank 2.
    rng = np.random.default_rng(0)
    g10 = kernel_of_nullity(rng, 5, 2)
    g20 = rng.dirichlet(np.ones(5), size=5).T @ g10
    result = _check(g20, g10)
    assert result.divisible and result.route == "feasibility"
    np.testing.assert_allclose(result.witness.matrix @ g10, g20, atol=1e-8)


def _nullity_pair(seed):
    """Nullity 1, 2 or 3 at n = 4..6; divisible by construction for odd seeds."""
    rng = np.random.default_rng(seed)
    n, k = 4 + seed % 3, 1 + seed % 3
    g10 = kernel_of_nullity(rng, n, k)
    if seed % 2:
        return rng.dirichlet(np.ones(n), size=n).T @ g10, g10
    return lazy_kernel(rng, n), g10


@pytest.mark.parametrize("seed", range(20))
def test_feasibility_agrees_with_scipy(seed):
    g20, g10 = _nullity_pair(seed)
    result = _check(g20, g10)
    assert result.route == "feasibility"
    assert result.divisible == reference_feasible(g20, g10, TOL_DIV)
    assert result.divisible == bool(seed % 2)
    if result.divisible:
        np.testing.assert_allclose(result.witness.matrix @ g10, g20, atol=1e-8)
    else:
        assert result.violated_constraints


@pytest.mark.parametrize("seed", range(6))
def test_zero_tolerance_does_not_raise(seed):
    g20, g10 = _nullity_pair(seed)
    assert not (_check(g20, g10, 0.0).divisible and not seed % 2)
