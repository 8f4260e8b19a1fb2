import numpy as np
import pytest
from scipy.optimize import linprog

from stoqlift.simplex import solve_lp


def test_feasible_square_system():
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    res = solve_lp(a, b)
    assert res.status == "optimal"
    np.testing.assert_allclose(a @ res.x, b, atol=1e-12)
    assert res.x.min() >= 0


def test_infeasible_reports_violated_rows():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(a, b)
    assert res.status == "infeasible"
    assert res.infeasibility > 0.5
    assert res.violated_rows


def test_negativity_requirement_infeasible():
    # x = -1 with x >= 0.
    res = solve_lp(np.array([[1.0]]), np.array([-1.0]))
    assert res.status == "infeasible"


def test_redundant_rows_are_tolerated():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(a, b)
    assert res.status == "optimal"
    np.testing.assert_allclose(a @ res.x, b, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_feasibility_agrees_with_scipy(seed):
    rng = np.random.default_rng(seed)
    m, n = 5, 8
    a = rng.standard_normal((m, n))
    if seed % 2:
        b = a @ rng.random(n)  # feasible by construction
    else:
        b = rng.standard_normal(m)
    ours = solve_lp(a, b)
    scipy_res = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None),
                        method="highs")
    assert (ours.status == "optimal") == scipy_res.success
    if ours.status == "optimal":
        np.testing.assert_allclose(a @ ours.x, b, atol=1e-8)

