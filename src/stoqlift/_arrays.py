"""Private array helpers shared across modules: the table of default
tolerances and the one copy of each intake check.

Every default tolerance of the package is assigned once, in the table below;
the modules that use one import it from here, so ``stoqlift.kernels.TOL_DIV``
and the other module-level names are this table's entries. Every acceptance
test is written ``if not residual <= tol`` so that a NaN residual, which
compares false either way, fails it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

EPS = float(np.finfo(float).eps)

# The tolerance table: each default is a bound on a residual, stated once.
# Kernels.
TOL_PROB = 1e-12  #: Negative probability entry; smaller ones clamp to zero.
TOL_STOCH = 1e-10  #: Column-sum error of a stochastic matrix; family identity test.
TOL_DIV = 1e-9  #: Default of the classical and quantum divisibility checks.
# Lifts.
TOL_HERM = 1e-10  #: Hermiticity and trace error; off-diagonal mass left on a diagonal.
TOL_PSD = 1e-9  #: Eigenvalue floor of PSD tests (scale-aware, see ChoiMatrix).
TOL_TP = 1e-10  #: Completeness residual (trace preservation), relative for generators.
PINV_RCOND = 1e-12  #: Relative cutoff of zero Choi eigenvalues in Kraus extraction.
KRAUS_DROP_NORM = 1e-14  #: Frobenius norm below which a Kraus operator is dropped.
# Dynamics.
FD_STEP = 1e-4  #: Default finite-difference step for generator extraction.
CK_TOLERANCE = 1e-6  #: Identity and composition residuals of the CK checklist.
# Division and memory.
RECORD_FORM_TOL = 1e-9  #: Cross-block mass of a classical record at the division time.
TOL_UNITARY = 1e-10  #: Max-norm deviation of U^dagger U from the identity.
TOL_COMPOSE = 1e-14  #: Rounding added to two completeness residuals when composing.
TOL_INTERIOR = 1e-9  #: Smallest entry of a strictly positive three-time conditional.
# Demo verdict thresholds, which ``--tol`` does not change.
DEMO_SAME_GAP = 1e-12  #: Largest one-step kernel gap that reads as indistinguishable.
DEMO_DISTINCT_GAP = 1e-6  #: Smallest two-step kernel gap that reads as distinguishable.
DEMO_CLOSE_GAP = 1e-10  #: Largest lifted-vs-classical deviation closing the square.


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and hand it back (values are immutable)."""
    a.setflags(write=False)
    return a


def semigroup(a: np.ndarray, t: float, conserved: np.ndarray | None = None,
              tol: float = TOL_STOCH) -> np.ndarray:
    """``exp(t a)``, refusing a ``t`` that is not nonnegative and finite or
    that makes ``t a`` overflow, a non-finite result, or one whose column sums
    weighted by ``conserved`` (a row with ``conserved @ a = 0``) miss that row
    by more than ``tol``, as rounding grows with ``t |a|`` (Higham 2002, ch.
    10). The package's one scipy ``expm`` call, imported per call so the
    package imports without it."""
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if not t * float(np.abs(a).max()) < np.inf:  # so t * a cannot overflow
        raise ValueError(f"t={t} is too large for the generator: t|A| is not finite")
    from scipy.linalg import expm
    out = expm(t * a)
    err = 0.0 if conserved is None else float(np.abs(conserved @ out - conserved).max())
    if not (err <= tol and np.isfinite(out).all()):
        raise ValueError(f"t={t} is too large for the generator: exp(tA) is not finite "
                         f"or loses what it conserves (column-sum error {err:.3e})")
    return out


def numerical_rank(s: np.ndarray, tolerance: float) -> int:
    """How many leading singular values (sorted descending) an inverse can use.

    Inverting along direction i has forward error about ``n * eps * sigma_1
    / sigma_i`` (Higham 2002, ch. 7). A direction is kept while that stays
    within ``max(tolerance, n * eps)``, as no computed factor beats n * eps;
    the others, zero singular values among them, are free. The test is on
    ``sigma_i / sigma_1``, so a map of subnormal scale keeps the rank of its
    normal-scale multiples: no product of sigma_1 with the small ratio ``1 /
    limit`` is formed to underflow. A zero map, or an infinite or NaN
    tolerance, keeps no direction.
    """
    floor = s.size * EPS
    ratio = floor / max(tolerance, floor)  # 1 / limit
    if not (ratio > 0 and s[0] > 0):
        return 0
    return int(np.count_nonzero(s / s[0] >= ratio))


def inverse_certifies_full_rank(a: np.ndarray, inverse: np.ndarray,
                                tolerance: float) -> bool:
    """Whether ``numerical_rank`` would keep every direction of the square
    ``a``, shown from a computed ``inverse`` without singular values.

    It keeps them all when cond_2(a) <= |a|_F |a^-1|_F is at most its limit
    ``max(tolerance, n eps) / (n eps)``; a computed inverse is within a factor
    2 of |a^-1| while n eps times that product is small (Higham 2002, ch. 14),
    so the computed product must be within a quarter of the limit, capped at
    ``1 / (n eps)``. A NaN or infinite product certifies nothing, nor does a
    zero ``a`` or a limit the rule treats as keeping nothing (``1 / limit``
    zero or NaN).
    """
    n = a.shape[0]
    floor = n * EPS
    scale = floor / max(float(tolerance), floor)  # 1 / limit
    with np.errstate(over="ignore"):  # an overflowing norm is infinite
        norm_a, norm_inv = float(np.linalg.norm(a)), float(np.linalg.norm(inverse))
    # Python floats, so inf * 0 is NaN without a warning.
    return (scale > 0 and norm_a > 0
            and norm_a * norm_inv * max(scale, floor) <= 0.25)


def square(matrix, name: str = "matrix", dtype=complex) -> np.ndarray:
    """``matrix`` as a nonempty square array of ``dtype``."""
    m = np.asarray(matrix, dtype=dtype)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(
            f"{name} must be a nonempty square matrix, got shape {m.shape}")
    return m


def same_dimension(a: int, b: int, name_a: str, name_b: str) -> None:
    """Raise unless two operands act on one dimension; both sizes are named."""
    if a != b:
        raise DimensionMismatchError(
            f"{name_a} dimension {a} does not match {name_b} dimension {b}")


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


def require_hermitian(m: np.ndarray, tol: float, name: str) -> float:
    """The worst entry of ``m - m^dagger``; raise unless it is at most ``tol``."""
    err = float(np.abs(m - m.conj().T).max())
    if not err <= tol:
        raise ValidationError(f"{name} not Hermitian: worst asymmetry {err:.3e}")
    return err


def require_psd(m: np.ndarray, tol: float, name: str) -> None:
    """Raise unless the smallest eigenvalue of the Hermitian part of ``m`` (of
    every matrix, for a stack) is at least ``-tol``."""
    herm = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    min_eig = float(np.linalg.eigvalsh(herm).min())
    if not min_eig >= -tol:
        raise ValidationError(
            f"{name} not positive semidefinite: minimum eigenvalue {min_eig:.3e}")


def strict_grid(grid) -> np.ndarray:
    """A read-only copy of a nonempty, finite, strictly increasing time grid."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DimensionMismatchError("grid must be a nonempty 1-d sequence")
    # The infinite ends make a lone or end point that is NaN or infinite fail.
    if not np.all(np.diff(g, prepend=-np.inf, append=np.inf) > 0):
        raise ValidationError("grid times must be finite and strictly increasing")
    return frozen(g.copy())
