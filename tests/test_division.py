import numpy as np
import pytest
from scipy.linalg import expm

from stoqlift import (DimensionMismatchError, KrausMap, ProbabilityVector,
                      RateMatrix, StochasticKernel, SuperOperator, ValidationError,
                      canonical_lift, ctmc_embedding, dephasing_projector,
                      environment_division_scenario, gksl_superoperator,
                      partial_trace, tensor_superoperator, theorem1_check,
                      to_superoperator, unvec, vec)

from conftest import HADAMARD
from random_ops import (random_cptp_superoperator, random_density,
                        random_rate_matrix, random_unitary)

MIX = np.array([[0.5, 0.5], [0.5, 0.5]])
IDENTITY_2 = SuperOperator.identity(2)


def hadamard_superop():
    return to_superoperator(KrausMap([HADAMARD]))


def controlled_flip_superop():
    # System controls a flip of the environment (4x4 permutation unitary).
    u = np.zeros((4, 4))
    u[0, 0] = u[1, 1] = 1.0
    u[2, 3] = u[3, 2] = 1.0
    return SuperOperator(np.kron(u.conj(), u))


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        joint = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "sys"), a,
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "env"), b,
                                   atol=1e-12)

    def test_trace_preservation(self, rng):
        joint = random_density(rng, 6)
        reduced = partial_trace(joint, 2, 3, "sys")
        assert np.trace(reduced) == pytest.approx(np.trace(joint))

    @pytest.mark.parametrize("m, keep, error, message", [
        (np.eye(5), "sys", DimensionMismatchError, r"^expected shape \(6, 6\), got \(5, 5\)$"),
        (np.eye(6), "both", ValueError, "^keep must be 'sys' or 'env', got 'both'$"),
    ], ids=["shape", "keep"])
    def test_refusals(self, m, keep, error, message):
        with pytest.raises(error, match=message):
            partial_trace(m, 2, 3, keep)


class TestTensorSuperoperator:
    def test_matches_kraus_tensor_action(self, rng):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        joint_via_super = tensor_superoperator(
            to_superoperator(KrausMap([u])), to_superoperator(KrausMap([v])))
        joint_via_kraus = to_superoperator(KrausMap([np.kron(u, v)]))
        np.testing.assert_allclose(joint_via_super.matrix,
                                   joint_via_kraus.matrix, atol=1e-12)

    def test_identity_factors(self):
        joint = tensor_superoperator(IDENTITY_2, SuperOperator.identity(3))
        np.testing.assert_allclose(joint.matrix, np.eye(36), atol=1e-15)


class TestTheorem1:
    def test_identity_pair_applies_trivially(self):
        verdict = theorem1_check(IDENTITY_2, IDENTITY_2)
        assert verdict.theorem_applies
        assert verdict.q_divisible and verdict.all_diagonal_at_t1
        assert verdict.c_divisible
        np.testing.assert_allclose(verdict.c_witness.matrix, np.eye(2),
                                   atol=1e-12)

    def test_classical_semigroup_applies(self):
        gen = ctmc_embedding(RateMatrix([[-1.0, 1.0], [1.0, -1.0]]))
        s = gksl_superoperator(gen).matrix
        e_10 = SuperOperator(expm(1.0 * s))
        e_20 = SuperOperator(expm(2.0 * s))
        verdict = theorem1_check(e_10, e_20)
        assert verdict.theorem_applies
        assert verdict.factorization_residual <= 1e-10
        # Oracle from the classical side: the witness is exp(1.0 * R).
        np.testing.assert_allclose(verdict.c_witness.matrix,
                                   expm(np.array([[-1.0, 1.0], [1.0, -1.0]])),
                                   atol=1e-10)

    def test_hadamard_counterexample(self):
        # Unitary first leg is Q-divisible but creates coherences, so the
        # criterion is silent; the independent classical test shows the
        # induced kernels (identity through full mix) do not divide.
        verdict = theorem1_check(hadamard_superop(), IDENTITY_2)
        assert not verdict.theorem_applies
        assert verdict.q_divisible
        assert not verdict.all_diagonal_at_t1
        assert verdict.max_offdiagonal_mass == pytest.approx(0.5, abs=1e-12)
        assert not verdict.c_divisible
        assert verdict.c_result is not None
        assert verdict.c_result.route == "feasibility"

    def test_non_cptp_input_rejected(self):
        bad = SuperOperator(1.3 * np.eye(4))
        with pytest.raises(ValidationError):
            theorem1_check(bad, IDENTITY_2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_inconclusive_quantum_verdict_reads_not_divisible(self, n, rng):
        # Canonical lifts of a kernel of rank n - 1 (a repeated column) and
        # of X after it: divisible by construction, but the quantum check
        # does not search off the earlier map's range. q_divisible reports
        # only a "divisible" verdict; q_result tells the other two apart.
        g10 = rng.random((n, n))
        g10 /= g10.sum(axis=0)
        g10[:, -1] = g10[:, 0]
        x = rng.random((n, n))
        x /= x.sum(axis=0)
        e_10, e_20 = (to_superoperator(canonical_lift(StochasticKernel(g)))
                      for g in (g10, x @ g10))
        verdict = theorem1_check(e_10, e_20)
        assert verdict.q_result.verdict == "inconclusive"
        assert verdict.q_divisible is False
        assert verdict.c_divisible is True
        assert not verdict.theorem_applies

    @pytest.mark.parametrize("seed", range(25))
    def test_diagonal_first_leg_with_random_continuation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        rate = random_rate_matrix(rng, n)
        s = gksl_superoperator(ctmc_embedding(rate)).matrix
        t1 = float(rng.uniform(0.3, 1.5))
        e_10 = SuperOperator(expm(t1 * s))
        continuation = random_cptp_superoperator(rng, n)
        e_20 = SuperOperator(continuation.matrix @ e_10.matrix)
        verdict = theorem1_check(e_10, e_20)
        assert verdict.theorem_applies
        assert verdict.factorization_residual <= 1e-8


class TestEnvironmentScenario:
    def test_trivial_scenario(self):
        report = environment_division_scenario(
            ProbabilityVector([1.0, 0.0]),
            SuperOperator.identity(4), IDENTITY_2, IDENTITY_2)
        assert report.record_form
        assert report.c_divisible
        np.testing.assert_allclose(report.witness.matrix, np.eye(2),
                                   atol=1e-10)

    def test_controlled_flip_writes_a_record(self):
        report = environment_division_scenario(
            ProbabilityVector([1.0, 0.0]), controlled_flip_superop(),
            IDENTITY_2, IDENTITY_2)
        assert report.record_form
        assert report.c_divisible
        np.testing.assert_allclose(report.kernel_t1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(report.witness.matrix, np.eye(2),
                                   atol=1e-10)

    def test_post_rotation_still_divides(self):
        # After the record is written the system may evolve coherently: the
        # kernel over the full interval is the full mix and it factors
        # through the identity with the mix itself as witness.
        report = environment_division_scenario(
            ProbabilityVector([1.0, 0.0]), controlled_flip_superop(),
            hadamard_superop(), IDENTITY_2)
        assert report.record_form
        np.testing.assert_allclose(report.kernel_t2, MIX, atol=1e-12)
        assert report.c_divisible
        np.testing.assert_allclose(report.witness.matrix, MIX, atol=1e-10)

    def test_coherent_interaction_breaks_the_record_form(self):
        # A Hadamard on the system (tensored with the environment identity)
        # leaves system coherences at the division time: scenario violation,
        # reported rather than raised.
        h_sys = tensor_superoperator(hadamard_superop(), IDENTITY_2)
        report = environment_division_scenario(
            ProbabilityVector([1.0, 0.0]), h_sys, IDENTITY_2, IDENTITY_2)
        assert not report.record_form
        assert report.violation is not None
        assert report.c_divisible is None

    def test_decoupled_evolution_always_divides_when_record_holds(self, rng):
        # The criterion's corollary: record form plus product continuation
        # implies a division event, for any post channels.
        for seed in range(10):
            rng_local = np.random.default_rng(seed)
            post_sys = random_cptp_superoperator(rng_local, 2)
            post_env = random_cptp_superoperator(rng_local, 2)
            report = environment_division_scenario(
                ProbabilityVector([0.7, 0.3]), controlled_flip_superop(),
                post_sys, post_env)
            assert report.record_form
            assert report.c_divisible, f"seed {seed}"

    def test_non_cptp_interaction_rejected(self):
        with pytest.raises(ValidationError):
            environment_division_scenario(
                ProbabilityVector([1.0, 0.0]),
                SuperOperator(1.2 * np.eye(16)), IDENTITY_2, IDENTITY_2)

    @pytest.mark.parametrize("p_env, post_env, message", [
        ([1.0, 0.0, 0.0], IDENTITY_2,
         "joint dimension 4 is not a multiple of the environment dimension 3"),
        ([1.0, 0.0], SuperOperator.identity(3),
         r"post maps must act on the system and environment factors "
         r"\(got 2 and 3, expected 2 and 2\)"),
    ], ids=["environment", "post-maps"])
    def test_dimension_mismatch(self, p_env, post_env, message):
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            environment_division_scenario(
                ProbabilityVector(p_env),
                SuperOperator.identity(4), IDENTITY_2, post_env)

    def test_nan_interaction_is_stopped_by_its_cptp_check(self):
        # The reduced and joint traces sum the same joint diagonal entries, so
        # only NaN could make them differ; the CPTP check rejects it first.
        matrix = np.array(controlled_flip_superop().matrix)
        matrix[0, 0] = np.nan
        with pytest.raises(ValidationError, match="record_interaction"):
            environment_division_scenario(
                ProbabilityVector([1.0, 0.0]), SuperOperator(matrix),
                IDENTITY_2, IDENTITY_2)


def _joint_route_kernel_t2(p_env, interaction, post_sys, post_env):
    """kernel_t2 through the product map on the joint space, then the trace."""
    n_env = p_env.n
    n_sys = interaction.n // n_env
    post_joint = tensor_superoperator(post_sys, post_env).matrix
    kernel = np.empty((n_sys, n_sys))
    for i in range(n_sys):
        sys0 = np.zeros((n_sys, n_sys), dtype=complex)
        sys0[i, i] = 1.0
        joint0 = np.kron(sys0, np.diag(p_env.entries.astype(complex)))
        joint2 = post_joint @ interaction.matrix @ vec(joint0)
        reduced2 = partial_trace(unvec(joint2), n_sys, n_env, keep="sys")
        kernel[:, i] = np.real(np.diag(reduced2))
    return kernel


class TestEnvironmentKernelT2:
    @pytest.mark.parametrize("n_sys, n_env", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_system_route_matches_the_joint_route(self, n_sys, n_env):
        for seed in range(5):
            rng = np.random.default_rng([n_sys, n_env, seed])
            p_env = ProbabilityVector(rng.dirichlet(np.ones(n_env)))
            interaction = random_cptp_superoperator(rng, n_sys * n_env)
            post_sys = random_cptp_superoperator(rng, n_sys)
            post_env = random_cptp_superoperator(rng, n_env)
            report = environment_division_scenario(p_env, interaction,
                                                   post_sys, post_env)
            expected = _joint_route_kernel_t2(p_env, interaction,
                                              post_sys, post_env)
            assert np.abs(report.kernel_t2 - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_sys, n_env", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_batched_masses_match_the_loop_over_inputs(self, n_sys, n_env):
        # Reference: one joint state per system basis input, masses taken
        # block by block.
        for seed in range(5):
            rng = np.random.default_rng([n_sys, n_env, seed])
            p_env = ProbabilityVector(rng.dirichlet(np.ones(n_env)))
            interaction = random_cptp_superoperator(rng, n_sys * n_env)
            report = environment_division_scenario(
                p_env, interaction, SuperOperator.identity(n_sys),
                SuperOperator.identity(n_env))
            block = reduced_mass = 0.0
            kernel_t1 = np.empty((n_sys, n_sys))
            for i in range(n_sys):
                sys0 = np.zeros((n_sys, n_sys), dtype=complex)
                sys0[i, i] = 1.0
                joint0 = np.kron(sys0, np.diag(p_env.entries.astype(complex)))
                joint = unvec(interaction.matrix @ vec(joint0))
                t = joint.reshape(n_sys, n_env, n_sys, n_env)
                for x in range(n_sys):
                    for y in range(n_sys):
                        if x != y:
                            block = max(block, np.abs(t[x, :, y, :]).max())
                reduced = partial_trace(joint, n_sys, n_env)
                reduced_mass = max(reduced_mass, np.abs(
                    reduced - np.diag(np.diag(reduced))).max())
                kernel_t1[:, i] = np.real(np.diag(reduced))
            assert report.max_block_offdiagonal == pytest.approx(block, abs=1e-15)
            assert report.max_reduced_offdiagonal == pytest.approx(
                reduced_mass, abs=1e-15)
            assert np.abs(report.kernel_t1 - kernel_t1).max() <= 1e-15


class TestDephasingAsFirstLeg:
    def test_dephasing_first_leg_applies(self):
        # Dephasing keeps diagonal states diagonal and divides through
        # itself, so the criterion applies with the identity witness kernel.
        dephasing = SuperOperator(dephasing_projector(2))
        verdict = theorem1_check(dephasing, dephasing)
        assert verdict.theorem_applies
        np.testing.assert_allclose(verdict.c_witness.matrix, np.eye(2),
                                   atol=1e-10)
