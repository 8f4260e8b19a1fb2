"""Dense phase-1 simplex deciding feasibility of small equality-form systems.

Finds ``x >= 0`` with ``A x = b`` by minimizing the total mass of one
artificial variable per row, with Bland's anti-cycling pivot rule (lowest
eligible index, ties broken by lowest basic variable index), which makes
every run deterministic and guarantees termination. Intended for desk-scale
feasibility questions (tens of variables), not performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Entries below this magnitude are not acceptable pivots.
PIVOT_TOL = 1e-9
#: Phase-1 objective above this value means the system is infeasible.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of a feasibility solve.

    ``status`` is ``"optimal"`` (a feasible point was found) or
    ``"infeasible"``. ``x`` is a basic feasible point of the original
    variables when one exists. ``infeasibility`` is the phase-1 optimum
    (total residual mass left in artificial variables); ``violated_rows``
    lists the constraint rows whose artificial variable stayed positive.
    """

    status: str
    x: np.ndarray | None
    infeasibility: float
    violated_rows: tuple[int, ...]


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, basis, cost):
    """Minimize cost over the tableau in place.

    ``tableau`` has shape (m, cost.size + 1) with the right-hand side in the
    last column; ``basis`` maps rows to basic column indices. The cost must
    be bounded below on the feasible set, as the nonnegative phase-1 cost is.
    """
    m, n_cols = tableau.shape[0], cost.size
    while True:
        # Reduced costs relative to the current basis.
        reduced = cost.copy()
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0.0:
                reduced -= cb * tableau[r, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break  # Bland: lowest eligible index
        if entering < 0:
            return
        leaving = -1
        best_ratio = np.inf
        for r in range(m):
            coeff = tableau[r, entering]
            if coeff > PIVOT_TOL:
                ratio = tableau[r, -1] / coeff
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("phase-1 simplex did not converge")
        _pivot(tableau, basis, leaving, entering)


def solve_lp(a_eq, b_eq):
    """Decide whether ``a_eq x = b_eq`` has a solution with ``x >= 0``.

    When it does, ``x`` is a basic feasible point, read from the basic
    original variables. Redundant equality rows are tolerated: their
    artificial variables stay basic and are left out of ``x``.
    """
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ValueError("constraint matrix and right-hand side disagree")
    m, n = a.shape

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Artificial identity basis; minimize the total artificial mass.
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    _run_simplex(tableau, basis, cost)

    infeas = float(sum(tableau[r, -1] for r in range(m) if basis[r] >= n))
    if infeas > FEASIBILITY_TOL:
        violated = tuple(
            r for r in range(m) if basis[r] >= n and tableau[r, -1] > FEASIBILITY_TOL
        )
        return SimplexResult("infeasible", None, infeas, violated)

    # Pivot the artificials left basic onto an original column. Rounding can
    # leave them at levels of either sign that cancel in the sum above; the
    # pivot moves those levels into x instead of dropping them.
    for r in range(m):
        if basis[r] >= n:
            col = next(
                (j for j in range(n) if abs(tableau[r, j]) > PIVOT_TOL), None
            )
            if col is not None:
                _pivot(tableau, basis, r, col)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r, -1]
    return SimplexResult("optimal", np.maximum(x, 0.0), 0.0, ())
