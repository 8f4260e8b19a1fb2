import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=25)
settings.load_profile("ci")

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def loop_feasibility_program(g20, g10):
    """The n^2 + n feasibility program that the hand-written simplex solved
    before ``c_divisibility_check`` moved to one SVD, built row by row and
    kept as the reference: row ``product[i,j]`` is (X g10)[i, j] = g20[i, j]
    and row ``colsum[j]`` is sum_i X[i, j] = 1, over the row-major X."""
    n = g10.shape[0]
    labels, a_rows, b = [], [], []
    for i in range(n):
        for j in range(n):
            row = np.zeros(n * n)
            row[i * n:(i + 1) * n] = g10[:, j]
            a_rows.append(row)
            b.append(g20[i, j])
            labels.append(f"product[{i},{j}]")
    for j in range(n):
        row = np.zeros(n * n)
        row[j::n] = 1.0
        a_rows.append(row)
        b.append(1.0)
        labels.append(f"colsum[{j}]")
    return np.asarray(a_rows), np.asarray(b), labels


def reference_feasible(g20, g10, slack, rows=None):
    """Whether some X >= 0 meets every row of the reference program (or only
    ``rows`` of it) to within ``slack``, decided by scipy's HiGHS."""
    from scipy.optimize import linprog

    a, b, _ = loop_feasibility_program(np.asarray(g20), np.asarray(g10))
    if rows is not None:
        a, b = a[rows], b[rows]
    res = linprog(np.zeros(a.shape[1]), A_ub=np.vstack([a, -a]),
                  b_ub=np.concatenate([b + slack, slack - b]),
                  bounds=(0, None), method="highs")
    return res.status == 0


def lazy_kernel(rng, n, weight=0.3):
    """``(1 - weight) I + weight R`` with Dirichlet columns: well conditioned."""
    return (1.0 - weight) * np.eye(n) + weight * rng.dirichlet(np.ones(n), size=n).T


def kernel_of_nullity(rng, n, k):
    """A lazy kernel whose first k + 1 columns are equal: nullity k."""
    g = lazy_kernel(rng, n)
    g[:, 1:k + 1] = g[:, [0]]
    return g


def signed_factor_pair(seed, n=3, k=1):
    """A nullity-k gamma_10 and gamma_20 = X gamma_10 >= 0 for an X with unit
    column sums but some negative entries, or None when gamma_20 dips below 0."""
    rng = np.random.default_rng(seed)
    g10 = kernel_of_nullity(rng, n, k)
    x = rng.dirichlet(np.ones(n), size=n).T
    shift = rng.normal(size=(n, n)) * 0.3
    x += shift - shift.mean(axis=0)
    g20 = x @ g10
    return None if g20.min() < 0 else (g20, g10)
