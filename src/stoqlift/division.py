"""Division events: when does a lifted factorization descend to the kernels?

The criterion implemented here: if the lifted evolution factors through an
intermediate time as a quantum channel (Q-divisibility) *and* the first leg
keeps every initially diagonal state diagonal, then the underlying kernel
factors through a stochastic matrix at that time (C-divisibility). The
converse fails in general, so when either hypothesis breaks down the
classical question is still decided independently and reported.

A concrete mechanism producing both hypotheses is an initially uncorrelated
environment that acquires a classical record of the system and then
decouples; the scenario evaluator checks the record form and confirms the
induced division event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import (RECORD_FORM_TOL, TOL_DIV, TOL_PROB, TOL_PSD, TOL_STOCH,
                      TOL_TP, require_psd as _require_psd,
                      require_tolerance as _require_tolerance)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (CDivisibilityResult, ProbabilityVector, StochasticKernel,
                      c_divisibility_check)
from .lifts import (QDivisibilityResult, SuperOperator,
                    _diagonal_images_offdiagonal, check_cptp,
                    q_divisibility_check, superop_kernel_extract)


def partial_trace(matrix: np.ndarray, n_sys: int, n_env: int,
                  keep: str = "sys") -> np.ndarray:
    """Trace a system-tensor-environment matrix down to one factor.

    The system index varies slowly: a joint basis ket is ``|x> kron |y>``.
    """
    m = np.asarray(matrix)
    if m.shape != (n_sys * n_env, n_sys * n_env):
        raise DimensionMismatchError(
            f"expected shape {(n_sys * n_env,) * 2}, got {m.shape}")
    t = m.reshape(n_sys, n_env, n_sys, n_env)
    if keep == "sys":
        return np.einsum("iaja->ij", t)
    if keep == "env":
        return np.einsum("iaib->ab", t)
    raise ValueError(f"keep must be 'sys' or 'env', got {keep!r}")


def tensor_superoperator(s_sys: SuperOperator, s_env: SuperOperator) -> SuperOperator:
    """Superoperator of the product map acting on the joint space.

    Index bookkeeping follows column-stacking on the joint space with the
    system index slow-varying, consistent with :func:`partial_trace`.
    """
    ns, ne = s_sys.n, s_env.n
    t_sys = s_sys.matrix.reshape(ns, ns, ns, ns)
    t_env = s_env.matrix.reshape(ne, ne, ne, ne)
    m = ns * ne
    joint = np.empty((m * m, m * m), dtype=complex)
    np.einsum("lkji,dcba->ldkcjbia", t_sys, t_env, out=joint.reshape((ns, ne) * 4))
    return SuperOperator._adopt(joint)


@dataclass(frozen=True)
class DivisionVerdict:
    """Combined quantum/classical divisibility verdict at an intermediate time.

    ``theorem_applies`` is set when both hypotheses hold (quantum
    divisibility and diagonality of the first leg on diagonal inputs), in
    which case the classical witness is extracted from the quantum one and
    the kernel factorization is verified; otherwise the classical question is
    answered independently. ``q_divisible`` is set when the quantum verdict
    is ``divisible``: an ``inconclusive`` one reads False, as ``indivisible``
    does, and ``q_result.verdict`` tells the three apart.
    """

    q_divisible: bool
    q_result: QDivisibilityResult
    all_diagonal_at_t1: bool
    max_offdiagonal_mass: float
    c_divisible: bool
    c_witness: StochasticKernel | None
    theorem_applies: bool
    factorization_residual: float | None
    c_result: CDivisibilityResult | None = None


def _require_cptp(name: str, e: SuperOperator, tol_tp: float = TOL_TP,
                  tol_psd: float = TOL_PSD) -> None:
    try:  # a map whose Choi matrix is not Hermitian (NaN included) raises
        report = check_cptp(e, tol_tp=tol_tp, tol_psd=tol_psd)
    except ValidationError as exc:
        raise ValidationError(f"{name} is not CPTP: {exc}") from exc
    if not report.passed:
        raise ValidationError(
            f"{name} is not CPTP (trace residual {report.tp_residual:.3e}, "
            f"min Choi eigenvalue {report.min_choi_eigenvalue:.3e})")


def theorem1_check(e_10: SuperOperator, e_20: SuperOperator,
                   tolerance: float = TOL_DIV) -> DivisionVerdict:
    """Test the divisibility criterion on a pair of lifted legs.

    ``e_10`` lifts the kernel from the root time to the intermediate time,
    ``e_20`` from the root time to the final time. Both must be quantum
    channels. A ``tolerance`` that is not a finite nonnegative number
    raises ``ValueError`` (from ``q_divisibility_check``).
    """
    for name, e in (("e_10", e_10), ("e_20", e_20)):
        _require_cptp(name, e, max(TOL_TP, tolerance), max(TOL_PSD, tolerance))

    q_result = q_divisibility_check(e_20, e_10, tolerance)
    q_divisible = q_result.verdict == "divisible"

    worst_mass = _diagonal_images_offdiagonal(e_10.matrix, e_10.n)
    all_diagonal = worst_mass <= tolerance

    def kernel_of(e: SuperOperator) -> StochasticKernel:
        return StochasticKernel(superop_kernel_extract(e),
                                tol_entry=max(TOL_PROB, tolerance),
                                tol_colsum=max(TOL_STOCH, tolerance))

    gamma_10 = kernel_of(e_10)
    gamma_20 = kernel_of(e_20)

    if q_divisible and all_diagonal:
        witness_kernel = kernel_of(q_result.witness)
        residual = float(np.abs(
            gamma_20.matrix - witness_kernel.matrix @ gamma_10.matrix).max())
        return DivisionVerdict(True, q_result, True, worst_mass,
                               True, witness_kernel, True, residual)

    c_result = c_divisibility_check(gamma_20, gamma_10, tolerance)
    return DivisionVerdict(q_divisible, q_result, all_diagonal, worst_mass,
                           c_result.divisible, c_result.witness, False, None,
                           c_result=c_result)


@dataclass(frozen=True)
class EnvironmentScenarioReport:
    """Outcome of the uncorrelated-environment division scenario.

    ``record_form`` holds when, for every basis initialization of the system,
    the joint state at the division time is block-diagonal across the system
    basis (a classical record) with a diagonal reduced system state. When the
    form holds and the post-interval evolution is a product map, the induced
    system kernel divides at that time; the stochastic witness is returned.
    """

    record_form: bool
    max_block_offdiagonal: float
    max_reduced_offdiagonal: float
    kernel_t1: np.ndarray
    kernel_t2: np.ndarray
    c_divisible: bool | None
    witness: StochasticKernel | None
    violation: str | None
    c_result: CDivisibilityResult | None = None


def environment_division_scenario(p_env: ProbabilityVector,
                                  record_interaction: SuperOperator,
                                  post_system: SuperOperator,
                                  post_env: SuperOperator,
                                  tolerance: float = RECORD_FORM_TOL
                                  ) -> EnvironmentScenarioReport:
    """Check whether an interaction-then-decouple episode induces a division event.

    The joint state starts as a product of a diagonal system state and the
    fixed environment state ``p_env``; ``record_interaction`` evolves the
    joint up to the division time, after which system and environment evolve
    independently under ``post_system`` and ``post_env``. A failed record
    form is reported, not raised; a ``tolerance`` that is not a finite
    nonnegative number raises ``ValueError``.
    """
    _require_tolerance(tolerance)
    n_env = p_env.n
    m = record_interaction.n
    if m % n_env:
        raise DimensionMismatchError(
            f"joint dimension {m} is not a multiple of the environment "
            f"dimension {n_env}")
    n_sys = m // n_env
    if post_system.n != n_sys or post_env.n != n_env:
        raise DimensionMismatchError(
            "post maps must act on the system and environment factors "
            f"(got {post_system.n} and {post_env.n}, "
            f"expected {n_sys} and {n_env})")
    for name, s in (("record_interaction", record_interaction),
                    ("post_system", post_system), ("post_env", post_env)):
        _require_cptp(name, s)

    # vec(|i><i| kron diag(p_env)) holds p_env[a] at the joint diagonal
    # position j (m + 1), j = i n_env + a, so its image weighs those columns.
    diagonal = np.arange(m).reshape(n_sys, n_env) * (m + 1)
    # joint[i, x, a, y, b]: the joint state at the division time for input i.
    joint = (record_interaction.matrix[:, diagonal] @ p_env.entries).T.reshape(
        n_sys, n_sys, n_env, n_sys, n_env).transpose(0, 3, 4, 1, 2)
    reduced = np.einsum("ixaya->ixy", joint)
    _require_psd(reduced, TOL_PSD, "reduced state")

    off = ~np.eye(n_sys, dtype=bool)
    worst_block = float(np.abs(joint).max(axis=(2, 4))[:, off].max(initial=0.0))
    worst_reduced = float(np.abs(reduced)[:, off].max(initial=0.0))
    kernel_t1 = np.real(np.einsum("ixx->xi", reduced))
    # Tr_env (post_system x post_env) = post_system Tr_env: post_env is TP.
    reduced_vecs = reduced.reshape(n_sys, n_sys * n_sys, order="F").T
    kernel_t2 = np.real((post_system.matrix @ reduced_vecs)[::n_sys + 1])

    record_form = worst_block <= tolerance and worst_reduced <= tolerance
    if not record_form:
        return EnvironmentScenarioReport(
            False, worst_block, worst_reduced, kernel_t1, kernel_t2,
            None, None,
            "joint state at the division time is not of classical-record "
            f"form (cross-block mass {worst_block:.3e}, reduced "
            f"off-diagonal mass {worst_reduced:.3e})")

    gamma_10 = StochasticKernel(kernel_t1, tol_colsum=max(TOL_STOCH, tolerance))
    gamma_20 = StochasticKernel(kernel_t2, tol_colsum=max(TOL_STOCH, tolerance))
    c_result = c_divisibility_check(gamma_20, gamma_10, max(tolerance, TOL_DIV))
    return EnvironmentScenarioReport(
        True, worst_block, worst_reduced, kernel_t1, kernel_t2,
        c_result.divisible, c_result.witness, None, c_result=c_result)
