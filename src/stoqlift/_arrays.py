"""Private array helpers shared across modules: the table of default
tolerances, the one copy of each intake check, the matrix exponential and
the base of the four types that hold one square matrix by value.

Every default tolerance of the package is assigned once, in the table below;
the modules that use one import it from here, so ``stoqlift.kernels.TOL_DIV``
and the other module-level names are this table's entries. Every acceptance
test is written ``if not residual <= tol`` so that a NaN residual, which
compares false either way, fails it.
"""

from __future__ import annotations

import math

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
TOL_PSD = 1e-9  #: Eigenvalue floor of PSD tests (scale-aware for Choi spectra).
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


class MatrixValue:
    """A value held as one read-only square array, ``_matrix``, set by the
    subclass: the read-only ``matrix``, its side ``n`` and the ``Name(n=N)``
    repr, each overridable."""

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


def semigroup(a: np.ndarray, t: float, conserved: np.ndarray | None = None,
              tol: float = TOL_STOCH) -> np.ndarray:
    """``exp(t a)`` by ``expm``, refusing a ``t`` that is not nonnegative and
    finite or that makes ``|t a|_1`` overflow, a non-finite result, or one
    whose column sums weighted by ``conserved`` (a row with ``conserved @ a =
    0``) miss that row by more than ``tol``, as rounding grows with ``t |a|``
    (Higham 2002, ch. 10). Every exponential of the package is taken here."""
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    with np.errstate(over="ignore"):  # an overflowing column sum is infinite
        norm = t * float(np.abs(a).sum(axis=0).max())  # |t a|_1, before forming t a
    if not norm < np.inf:  # so t * a cannot overflow; NaN fails too
        raise ValueError(f"t={t} is too large for the generator: t|A| is not finite")
    out = expm(t * a, norm)
    err = 0.0 if conserved is None else float(np.abs(conserved @ out - conserved).max())
    if not (err <= tol and np.isfinite(out).all()):
        raise ValueError(f"t={t} is too large for the generator: exp(tA) is not finite "
                         f"or loses what it conserves (column-sum error {err:.3e})")
    return out


#: Higham (2005), Table 2.3: the largest ``|A|_1`` at which the degree-m
#: diagonal Pade approximant of exp(A) is accurate to unit roundoff, and the
#: coefficients b_0..b_m of its numerator p(A) (the denominator is p(-A)).
_PADE = (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200., 1512.,
                            56., 1.)),
    (2.097847961257068e0, (17643225600., 8821612800., 2075673600., 302702400.,
                           30270240., 2162160., 110880., 3960., 90., 1.)),
    (5.371920351148152e0, (64764752532480000., 32382376266240000., 7771770303897600.,
                           1187353796428800., 129060195264000., 10559470521600.,
                           670442572800., 33522128640., 1323241920., 40840800.,
                           960960., 16380., 182., 1.)),
)


def expm(a: np.ndarray, norm: float) -> np.ndarray:
    """``exp(a)`` of a square float or complex ``a`` with finite ``norm =
    |a|_1``: scaling and squaring with the Pade approximant of degree 3, 5,
    7, 9 or 13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, Algorithm
    2.3). A 1x1 ``a`` gives ``np.exp(a)`` and a zero ``a`` the identity,
    exactly. Squarings that overflow leave a non-finite result, silently."""
    n = a.shape[0]
    if n == 1:
        return np.exp(a)
    eye = np.eye(n, dtype=a.dtype)
    if norm == 0:
        return eye
    for theta, b in _PADE:  # the lowest degree accurate at this norm, else 13
        if norm <= theta:
            break
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    if s:
        a = a * 2.0 ** -s
    a2 = a @ a
    if len(b) == 14:  # degree 13, in six products (Higham 2005, (2.9)-(2.10))
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:  # over the even powers a^2, a^4, ..., summed in place
        u, v, power = b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2, a2
        for k in range(2, len(b) // 2):
            power = power @ a2
            u += b[2 * k + 1] * power
            v += b[2 * k] * power
        u = a @ u
    r = np.linalg.solve(v - u, v + u)  # p(a) = v + u, p(-a) = v - u
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def require_tolerance(tolerance: float) -> None:
    """Raise ``ValueError`` unless ``tolerance`` is a finite nonnegative
    number, the rule ``--tol`` applies."""
    if not 0 <= tolerance < np.inf:  # NaN fails too
        raise ValueError(
            f"tolerance must be a finite nonnegative number, got {tolerance}")


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

    A nonempty square stack (an ``(r, N, N)`` array, or r N x N matrices)
    becomes one C-ordered copy. Otherwise each operator is checked in input
    order: the first non-square shape is named, and mixed dimensions raise.
    An empty input gives shape ``(0, 0, 0)``.
    """
    if not isinstance(ops, (np.ndarray, list, tuple)):
        ops = list(ops)  # an iterator is read once
    try:
        stack = np.array(ops, dtype=complex, order="C")
    except (TypeError, ValueError):  # ragged or not numeric: the checks below say how
        stack = np.empty(0)
    if stack.ndim == 3 and stack.size and stack.shape[1] == stack.shape[2]:
        return stack
    mats = [np.asarray(op, dtype=complex) for op in ops]
    for m in {m.shape: m for m in mats}.values():  # first-seen order
        square(m, name)
    if mats:  # each square, so not all of one dimension
        raise DimensionMismatchError(f"{name}s must share one dimension")
    return np.empty((0, 0, 0), dtype=complex)


def require_hermitian(m: np.ndarray, tol: float, name: str) -> float:
    """The worst entry of ``m - m^dagger``; raise unless it is at most ``tol``."""
    return asymmetry_within(float(np.abs(m - m.conj().T).max()), tol, name)


def asymmetry_within(asymmetry: float, tol: float, name: str) -> float:
    """``asymmetry``, a worst entry of ``m - m^dagger``; raise unless <= ``tol``."""
    if not asymmetry <= tol:
        raise ValidationError(f"{name} not Hermitian: worst asymmetry {asymmetry:.3e}")
    return asymmetry


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dagger) / 2``, bit for bit, of a matrix or each of a stack."""
    herm = m + m.conj().swapaxes(-1, -2)
    herm /= 2.0
    return herm


def require_psd(m: np.ndarray, tol: float, name: str) -> None:
    """Raise unless the smallest eigenvalue of the Hermitian part of ``m`` (of
    every matrix, for a stack) is at least ``-tol``."""
    min_eig = float(np.linalg.eigvalsh(hermitian_part(m)).min())
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
