"""Private array helpers shared across modules: the one copy of each intake check.

Every acceptance test is written ``if not residual <= tol`` so that a NaN
residual, which compares false either way, fails it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

EPS = float(np.finfo(float).eps)


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and hand it back (values are immutable)."""
    a.setflags(write=False)
    return a


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential. ``scipy.linalg`` is imported here, on each
    call, so that importing the package does not pay for it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def numerical_rank(s: np.ndarray, tolerance: float) -> int:
    """How many leading singular values (sorted descending) an inverse can use.

    Inverting along direction i has forward error about ``n * eps * sigma_1
    / sigma_i`` (Higham 2002, ch. 7). A direction is kept while that stays
    within ``max(tolerance, n * eps)``, as no computed factor beats n * eps;
    the others, zero singular values among them, are free.
    """
    floor = s.size * EPS
    cutoff = s[0] * floor / max(tolerance, floor)
    return int(np.count_nonzero(s >= cutoff)) if cutoff > 0 else 0


def square(matrix, name: str = "matrix", dtype=complex) -> np.ndarray:
    """``matrix`` as a nonempty square array of ``dtype``."""
    m = np.asarray(matrix, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(
            f"{name} must be a nonempty square matrix, got shape {m.shape}")
    return m


def square_stack(ops, name: str) -> np.ndarray:
    """Square matrices of one dimension as one new ``(r, N, N)`` complex stack.

    The first non-square shape (in input order) is named; mixed dimensions
    raise. An empty input gives shape ``(0, 0, 0)``.
    """
    mats = [np.asarray(op, dtype=complex) for op in ops]
    distinct = {m.shape: m for m in mats}  # first-seen order
    for m in distinct.values():
        square(m, name)
    if len(distinct) > 1:
        raise DimensionMismatchError(f"{name}s must share one dimension")
    return np.stack(mats) if mats else np.empty((0, 0, 0), dtype=complex)


def require_hermitian(m: np.ndarray, tol: float, name: str) -> None:
    """Raise unless the worst entry of ``m - m^dagger`` is at most ``tol``."""
    err = float(np.abs(m - m.conj().T).max())
    if not err <= tol:
        raise ValidationError(f"{name} not Hermitian: worst asymmetry {err:.3e}")


def strict_grid(grid) -> np.ndarray:
    """A read-only copy of a nonempty, finite, strictly increasing time grid."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DimensionMismatchError("grid must be a nonempty 1-d sequence")
    # The infinite ends make a lone or end point that is NaN or infinite fail.
    if not np.all(np.diff(g, prepend=-np.inf, append=np.inf) > 0):
        raise ValidationError("grid times must be finite and strictly increasing")
    return frozen(g.copy())
