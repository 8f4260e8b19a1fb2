"""Multi-time memory hiding behind one-step transition statistics.

Two unitaries with identical entrywise squared moduli generate the same
one-step kernel but generally different two-step kernels, because the
squared-moduli map does not respect matrix composition. The distinctions
live in multi-time conditional structure; this module quantifies them:
two-step kernels and their differences, readout through an active channel
(a POVM in disguise), parameter counting, and the affine freedom left in a
three-time conditional law once both two-time kernels are pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .kernels import StochasticKernel
from ._arrays import (TOL_COMPOSE, TOL_HERM, TOL_INTERIOR, TOL_PSD, TOL_TP,
                      TOL_UNITARY, frozen as _frozen,
                      require_hermitian as _require_hermitian,
                      require_psd as _require_psd,
                      same_dimension as _same_dimension, square as _square,
                      square_stack as _square_stack)
from .lifts import KrausMap, dictionary_kernel


class PovmEffects:
    """Positive effects summing to the identity; outcome j has probability Tr(E_j rho)."""

    def __init__(self, effects: Sequence[np.ndarray], tol_herm: float = TOL_HERM,
                 tol_psd: float = TOL_PSD, tol_sum: float = TOL_TP):
        stack = _frozen(_square_stack(effects, "effect"))
        if not len(stack):
            raise ValidationError("a POVM needs at least one effect")
        for idx, e in enumerate(stack):
            _require_hermitian(e, tol_herm, f"effect {idx}")
            _require_psd(e, tol_psd, f"effect {idx}")
        sum_err = float(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max())
        if not sum_err <= tol_sum:
            raise ValidationError(
                f"effects do not sum to the identity (residual {sum_err:.3e})")
        self._stack = stack

    @property
    def effects(self) -> tuple[np.ndarray, ...]:
        """The effects in input order, as read-only views of one ``(m, N, N)`` stack."""
        return tuple(self._stack)

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    def outcome_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Probabilities Tr(E_j rho) = sum_ik E_j[i, k] rho[k, i] for each outcome j."""
        return np.einsum("jik,ki->j", self._stack, rho).real

    def __repr__(self):
        return f"PovmEffects(n={self.n}, outcomes={len(self._stack)})"


def mod_square(u) -> np.ndarray:
    """Entrywise squared moduli of a complex matrix."""
    return np.abs(np.asarray(u, dtype=complex)) ** 2


def _require_unitary(u, name: str = "matrix") -> np.ndarray:
    m = _square(u, name)
    residual = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if not residual <= TOL_UNITARY:
        raise ValidationError(f"{name} is not unitary (residual {residual:.3e})")
    return m


def one_step_indistinguishable(u_x, u_y, tolerance: float = TOL_UNITARY) -> bool:
    """Do two unitaries generate the same one-step kernel?"""
    mx = _require_unitary(u_x, "u_x")
    my = _require_unitary(u_y, "u_y")
    _same_dimension(len(mx), len(my), "u_x", "u_y")
    return bool(np.abs(mod_square(mx) - mod_square(my)).max() <= tolerance)


def two_step_kernel(v, u) -> np.ndarray:
    """Kernel of two consecutive unitary steps: squared moduli of the product.

    Generally different from the product of the one-step kernels; that gap is
    exactly the failure of divisibility at the kernel level.
    """
    mv = _require_unitary(v, "v")
    mu = _require_unitary(u, "u")
    _same_dimension(len(mv), len(mu), "v", "u")
    return mod_square(mv @ mu)


def two_step_difference(v, u_x, u_y, x0: int) -> np.ndarray:
    """Two-step statistics separating one-step-indistinguishable realizations.

    Returns column ``x0`` of the difference of the two two-step kernels. Its
    entries always sum to zero (both kernels are column-stochastic), so a
    nonzero result redistributes probability rather than creating it.
    """
    if not one_step_indistinguishable(u_x, u_y):
        raise ValidationError(
            "u_x and u_y are not one-step indistinguishable; the comparison "
            "is only meaningful for realizations sharing a one-step kernel")
    diff = two_step_kernel(v, u_x) - two_step_kernel(v, u_y)
    if not 0 <= x0 < diff.shape[0]:
        raise ValueError(f"basis index {x0} out of range for dimension {diff.shape[0]}")
    return diff[:, x0]


def povm_from_channel(lambda_ops: KrausMap, tol_tp: float = TOL_TP) -> PovmEffects:
    """Effects of reading out in the configuration basis after a channel.

    Coarse-graining the unobserved Kraus branch of the channel turns the
    projective readout into the POVM ``E_j = sum_b L_b^dagger P_j L_b``,
    whose entry ``[i, k]`` is ``sum_b conj(L_b[j, i]) L_b[j, k]``.
    """
    if not lambda_ops.completeness_residual <= tol_tp:
        raise ValidationError(
            "channel is not trace preserving (residual "
            f"{lambda_ops.completeness_residual:.3e})")
    ops = lambda_ops._stack
    return PovmEffects(np.einsum("bji,bjk->jik", ops.conj(), ops),
                       tol_sum=max(TOL_TP, 2 * lambda_ops.completeness_residual))


def measurement_operators(lambda_ops: KrausMap) -> tuple[tuple[np.ndarray, ...], ...]:
    """Fine-grained operators ``M[j][b] = P_j L_b`` behind the channel POVM.

    Each pair (outcome j, branch b) is a joint event; summing
    ``M^dagger M`` over the unobserved branch index recovers the effects of
    :func:`povm_from_channel`. ``P_j L_b`` is ``L_b`` with only row j kept.
    """
    row_j = np.eye(lambda_ops.n, dtype=bool)[:, None, :, None]
    return tuple(map(tuple, np.where(row_j, lambda_ops._stack, 0)))


def modified_readout_kernel(lambda_ops: KrausMap,
                            evolution: KrausMap) -> StochasticKernel:
    """Kernel of an evolution followed indivisibly by an active readout channel.

    The composed Kraus set ``{L_b K_a}`` is pushed through the squared-moduli
    dictionary in one step; composing the two dictionary kernels instead
    would discard the interference between the branches.
    """
    _same_dimension(lambda_ops.n, evolution.n, "readout channel", "evolution")
    for name, kmap in (("readout channel", lambda_ops), ("evolution", evolution)):
        if not kmap.trace_preserving:
            raise ValidationError(
                f"{name} is not trace preserving "
                f"(residual {kmap.completeness_residual:.3e})")
    # Every L_b K_a, b outer and a inner, as one broadcast product.
    composed = KrausMap((lambda_ops._stack[:, None] @ evolution._stack)
                        .reshape(-1, evolution.n, evolution.n))
    return dictionary_kernel(composed, tol_tp=max(
        TOL_TP, 2 * (lambda_ops.completeness_residual
                     + evolution.completeness_residual + TOL_COMPOSE)))


def dof_counts(n: int, m: int) -> dict[str, int]:
    """Real parameter counts for m steps on n configurations.

    ``path_law``: a general joint law on (m+1)-step paths, ``n**(m+1) - 1``.
    ``unitary_lift``: one unitary per step, ``m * n**2``.
    ``cptp_lift``: one channel per step, ``m * (n**4 - n**2)``.

    The path-law count grows exponentially in m while both lift counts stay
    polynomial: transition data plus a composable lift never pins down the
    full multi-time law.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"configuration count must be an integer >= 2, got {n}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"step count must be an integer >= 1, got {m}")
    n, m = int(n), int(m)
    return {
        "path_law": n ** (m + 1) - 1,
        "unitary_lift": m * n * n,
        "cptp_lift": m * (n ** 4 - n ** 2),
    }


@dataclass(frozen=True)
class ThreeTimeFreedomReport:
    """Freedom left in a three-time conditional law given both two-time kernels.

    ``affine_dimension`` is the dimension of the affine solution set of the
    marginalization and normalization constraints. ``sample_conditional`` is
    a nonnegative solution indexed ``[x2, x1, x0]`` whose smallest entry
    ``min_entry`` is as large as any solution's, so it is strictly positive
    (``strictly_positive``) whenever the constraints admit such a solution,
    in which case the nonnegativity boundary does not cut the affine
    dimension down. Every pair of stochastic kernels is consistent and
    feasible, so no field is ``None``.
    """

    consistent: bool
    feasible: bool
    strictly_positive: bool
    affine_dimension: int
    sample_conditional: np.ndarray
    min_entry: float


def three_time_freedom(gamma_10: StochasticKernel, gamma_20: StochasticKernel,
                       interior_tol: float = TOL_INTERIOR) -> ThreeTimeFreedomReport:
    """Affine freedom in p(x2 | x1, x0) under both two-time kernels.

    The conditional tensor must be normalized over x2 for every (x1, x0) and
    must marginalize through ``gamma_10`` to ``gamma_20``:
    ``sum_x1 p[x2, x1, x0] gamma_10[x1, x0] = gamma_20[x2, x0]``. The report
    follows in closed form:

    - Feasible: the x1-independent conditional
      ``p[x2, x1, x0] = gamma_20[x2, x0]`` is normalized because gamma_20 is
      stochastic, and marginalizes to gamma_20 because the columns of
      gamma_10 sum to one.
    - Affine dimension ``n (n - 1)**2``: the constraints split into one block
      per x0 on disjoint variables. In a block the n normalization rows have
      disjoint supports, and so do the n marginalization rows. A vanishing
      combination ``a[x1] + c[x2] gamma_10[x1, x0] = 0`` forces ``c``
      constant (some ``gamma_10[x1, x0]`` is positive) and
      ``a = -c gamma_10[:, x0]``: the single dependency "gamma_10-weighted
      normalizations = sum of marginalizations". Each block has rank
      ``2n - 1``, so the rank is ``n (2n - 1)`` of ``n**3`` variables.
    - Strict positivity: a solution with every entry at least t gives
      ``gamma_20[x2, x0] = sum_x1 p[x2, x1, x0] gamma_10[x1, x0] >= t``, so no
      solution has a larger minimum entry than the sample, whose minimum is
      ``min gamma_20``.
    """
    _same_dimension(gamma_10.n, gamma_20.n, "gamma_10", "gamma_20")
    n = gamma_10.n
    g20 = gamma_20.matrix
    sample = _frozen(np.repeat(g20[:, None, :], n, axis=1))
    min_entry = float(g20.min())
    return ThreeTimeFreedomReport(
        True, True, min_entry > interior_tol, n * (n - 1) ** 2,
        sample, min_entry)
