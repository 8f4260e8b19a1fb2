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

from .errors import DimensionMismatchError, ValidationError
from .kernels import (CDivisibilityResult, ProbabilityVector, StochasticKernel,
                      TOL_PROB, TOL_STOCH, c_divisibility_check)
from .lifts import (QDivisibilityResult, SuperOperator, TOL_PSD, TOL_TP,
                    _diagonal_images_offdiagonal, check_cptp,
                    q_divisibility_check, superop_kernel_extract, unvec, vec)

#: Cross-block mass tolerance for the classical-record form at the division time.
RECORD_FORM_TOL = 1e-9


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
    joint = np.einsum("lkji,dcba->ldkcjbia", t_sys, t_env)
    m = ns * ne
    return SuperOperator(joint.reshape(m * m, m * m))


@dataclass(frozen=True)
class DivisionVerdict:
    """Combined quantum/classical divisibility verdict at an intermediate time.

    ``theorem_applies`` is set when both hypotheses hold (quantum
    divisibility and diagonality of the first leg on diagonal inputs), in
    which case the classical witness is extracted from the quantum one and
    the kernel factorization is verified; otherwise the classical question is
    answered independently.
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


def _offdiagonal_max(matrix: np.ndarray) -> float:
    off = matrix - np.diag(np.diag(matrix))
    return float(np.abs(off).max())


def theorem1_check(e_10: SuperOperator, e_20: SuperOperator,
                   tolerance: float = 1e-9) -> DivisionVerdict:
    """Test the divisibility criterion on a pair of lifted legs.

    ``e_10`` lifts the kernel from the root time to the intermediate time,
    ``e_20`` from the root time to the final time. Both must be quantum
    channels.
    """
    for name, e in (("e_10", e_10), ("e_20", e_20)):
        report = check_cptp(e, tol_tp=max(TOL_TP, tolerance),
                            tol_psd=max(TOL_PSD, tolerance))
        if not report.passed:
            raise ValidationError(
                f"{name} is not CPTP (trace residual {report.tp_residual:.3e}, "
                f"min Choi eigenvalue {report.min_choi_eigenvalue:.3e})")
    if e_10.n != e_20.n:
        raise DimensionMismatchError(
            f"superoperator dimensions differ: {e_10.n} vs {e_20.n}")

    q_result = q_divisibility_check(e_20, e_10, tolerance)
    q_divisible = q_result.verdict == "divisible"

    worst_mass = _diagonal_images_offdiagonal(e_10.matrix, e_10.n)
    all_diagonal = worst_mass <= tolerance

    gamma_10 = StochasticKernel(superop_kernel_extract(e_10),
                                tol_entry=max(TOL_PROB, tolerance),
                                tol_colsum=max(TOL_STOCH, tolerance))
    gamma_20 = StochasticKernel(superop_kernel_extract(e_20),
                                tol_entry=max(TOL_PROB, tolerance),
                                tol_colsum=max(TOL_STOCH, tolerance))

    if q_divisible and all_diagonal:
        witness_kernel = StochasticKernel(
            superop_kernel_extract(q_result.witness),
            tol_entry=max(TOL_PROB, tolerance),
            tol_colsum=max(TOL_STOCH, tolerance))
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


def _block_offdiagonal_mass(joint: np.ndarray, n_sys: int, n_env: int) -> float:
    t = joint.reshape(n_sys, n_env, n_sys, n_env)
    worst = 0.0
    for x in range(n_sys):
        for y in range(n_sys):
            if x != y:
                worst = max(worst, float(np.abs(t[x, :, y, :]).max()))
    return worst


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
    form is reported, not raised.
    """
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
        report = check_cptp(s)
        if not report.passed:
            raise ValidationError(
                f"{name} is not CPTP (trace residual {report.tp_residual:.3e}, "
                f"min Choi eigenvalue {report.min_choi_eigenvalue:.3e})")

    rho_env = np.diag(p_env.entries.astype(complex))

    kernel_t1 = np.empty((n_sys, n_sys))
    kernel_t2 = np.empty((n_sys, n_sys))
    worst_block = 0.0
    worst_reduced = 0.0
    for i in range(n_sys):
        sys0 = np.zeros((n_sys, n_sys), dtype=complex)
        sys0[i, i] = 1.0
        joint0 = np.kron(sys0, rho_env)
        joint1 = unvec(record_interaction.matrix @ vec(joint0))

        reduced1 = partial_trace(joint1, n_sys, n_env, keep="sys")
        trace_err = abs(np.trace(reduced1) - np.trace(joint1))
        min_eig = float(np.linalg.eigvalsh(
            (reduced1 + reduced1.conj().T) / 2.0)[0])
        if trace_err > 1e-10 or min_eig < -TOL_PSD:
            raise ValidationError(
                "partial trace produced an unphysical reduced state "
                f"(trace error {trace_err:.3e}, min eigenvalue {min_eig:.3e})")

        worst_block = max(worst_block,
                          _block_offdiagonal_mass(joint1, n_sys, n_env))
        worst_reduced = max(worst_reduced, _offdiagonal_max(reduced1))
        kernel_t1[:, i] = np.real(np.diag(reduced1))

        # Tr_env (post_system x post_env) = post_system Tr_env: post_env is TP.
        reduced2 = unvec(post_system.matrix @ vec(reduced1))
        kernel_t2[:, i] = np.real(np.diag(reduced2))

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
    c_result = c_divisibility_check(gamma_20, gamma_10, max(tolerance, 1e-9))
    return EnvironmentScenarioReport(
        True, worst_block, worst_reduced, kernel_t1, kernel_t2,
        c_result.divisible, c_result.witness, None, c_result=c_result)
