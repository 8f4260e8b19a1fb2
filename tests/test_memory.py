import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from stoqlift import (DimensionMismatchError, KrausMap, PovmEffects,
                      StochasticKernel, ValidationError, compose, dof_counts,
                      mod_square, modified_readout_kernel,
                      one_step_indistinguishable, povm_from_channel,
                      three_time_freedom, two_step_difference,
                      two_step_kernel)

from conftest import HADAMARD
from random_ops import (random_density, random_kraus_map,
                        random_stochastic, random_unitary)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
MIX = np.array([[0.5, 0.5], [0.5, 0.5]])
PHASE = np.diag([1.0, 1j])  # unit-modulus row rescaling of the second row
BITFLIP_OPS = [np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * FLIP]


def _dense(rng, n):
    return random_stochastic(rng, n).matrix


def _sparse(rng, n):
    m = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    m[rng.integers(n, size=n), np.arange(n)] += 1.0  # no empty column
    return m / m.sum(axis=0)


def _permutation(rng, n):
    return np.eye(n)[rng.permutation(n)]


def _singular(rng, n):
    column = rng.random(n)
    return np.repeat((column / column.sum())[:, None], n, axis=1)


def _tiny_entries(rng, n):
    return (1.0 - 1e-13 * n) * _permutation(rng, n) + 1e-13


KERNEL_KINDS = (_dense, _sparse, _permutation, _singular, _tiny_entries)


class TestModSquare:
    def test_identity(self):
        np.testing.assert_array_equal(mod_square(np.eye(2)), np.eye(2))

    def test_hadamard(self):
        np.testing.assert_allclose(mod_square(HADAMARD), MIX, atol=1e-15)

    def test_diagonal_phases_vanish(self):
        np.testing.assert_allclose(
            mod_square(np.diag([1.0, np.exp(1j * np.pi / 3)])), np.eye(2),
            atol=1e-15)

    @given(seed=st.integers(0, 10 ** 6))
    def test_unitary_moduli_are_bistochastic(self, seed):
        u = random_unitary(np.random.default_rng(seed), 3)
        gamma = mod_square(u)
        np.testing.assert_allclose(gamma.sum(axis=0), np.ones(3), atol=1e-10)
        np.testing.assert_allclose(gamma.sum(axis=1), np.ones(3), atol=1e-10)


class TestIndistinguishability:
    def test_equal_unitaries(self):
        assert one_step_indistinguishable(HADAMARD, HADAMARD)

    def test_phase_dressing_is_invisible(self):
        assert one_step_indistinguishable(HADAMARD, PHASE @ HADAMARD)

    def test_different_kernels_distinguish(self):
        assert not one_step_indistinguishable(HADAMARD, np.eye(2))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            one_step_indistinguishable(2 * np.eye(2), np.eye(2))


class TestTwoStep:
    def test_hadamard_squared_is_identity(self):
        np.testing.assert_allclose(two_step_kernel(HADAMARD, HADAMARD),
                                   np.eye(2), atol=1e-12)

    def test_phase_dressing_becomes_visible(self):
        # H (D H) = [[1+i, 1-i], [1-i, 1+i]] / 2: all moduli squared 1/2.
        np.testing.assert_allclose(
            two_step_kernel(HADAMARD, PHASE @ HADAMARD), MIX, atol=1e-12)

    def test_identity_first_step(self, rng):
        u = random_unitary(rng, 3)
        np.testing.assert_allclose(two_step_kernel(np.eye(3), u),
                                   mod_square(u), atol=1e-15)

    def test_difference_column(self):
        diff = two_step_difference(HADAMARD, HADAMARD, PHASE @ HADAMARD, 0)
        np.testing.assert_allclose(diff, [0.5, -0.5], atol=1e-12)

    def test_difference_vanishes_for_equal_realizations(self):
        diff = two_step_difference(HADAMARD, HADAMARD, HADAMARD, 1)
        np.testing.assert_allclose(diff, [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_difference_columns_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 3)
        v = random_unitary(rng, 3)
        dressing = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
        for x0 in range(3):
            diff = two_step_difference(v, u, dressing @ u, x0)
            assert abs(diff.sum()) < 1e-12

    def test_precondition_enforced(self):
        with pytest.raises(ValidationError):
            two_step_difference(HADAMARD, HADAMARD, np.eye(2), 0)

    @pytest.mark.parametrize("x0", [-1, 2])
    def test_basis_index_out_of_range_is_refused_first(self, x0):
        # Refused before the realizations are compared or any kernel formed.
        for u_y in (HADAMARD, np.eye(2)):
            with pytest.raises(ValueError, match="out of range for dimension 2"):
                two_step_difference(HADAMARD, HADAMARD, u_y, x0)

    def test_composition_gap_is_generic(self):
        # The squared-moduli map hardly ever respects composition.
        nonzero = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            gap = np.abs(two_step_kernel(v, u)
                         - mod_square(v) @ mod_square(u)).max()
            if gap > 1e-10:
                nonzero += 1
        assert nonzero >= 95


class TestPovm:
    def test_identity_channel_gives_projective_readout(self):
        povm = povm_from_channel(KrausMap([np.eye(3)]))
        for j, effect in enumerate(povm.effects):
            expected = np.zeros((3, 3))
            expected[j, j] = 1.0
            np.testing.assert_array_equal(effect, expected)

    def test_unitary_channel_rotates_the_basis(self, rng):
        u = random_unitary(rng, 2)
        povm = povm_from_channel(KrausMap([u]))
        for j, effect in enumerate(povm.effects):
            proj = np.zeros((2, 2), dtype=complex)
            proj[j, j] = 1.0
            np.testing.assert_allclose(effect, u.conj().T @ proj @ u,
                                       atol=1e-12)

    def test_bitflip_first_effect(self):
        povm = povm_from_channel(KrausMap(BITFLIP_OPS))
        np.testing.assert_allclose(povm.effects[0], np.diag([0.75, 0.25]),
                                   atol=1e-15)

    def test_non_tp_channel_rejected(self):
        with pytest.raises(ValidationError):
            povm_from_channel(KrausMap([1.1 * np.eye(2)]))

    def test_effects_validation(self):
        with pytest.raises(ValidationError):
            PovmEffects([np.diag([0.5, 0.5])])  # does not sum to identity
        with pytest.raises(ValidationError):
            PovmEffects([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
        with pytest.raises(ValidationError, match="^a POVM needs at least one effect$"):
            PovmEffects([])

    def test_non_positive_effect_is_named_by_index(self):
        with pytest.raises(ValidationError, match="effect 1 not positive"):
            PovmEffects([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_measurement_operators_coarse_grain_to_effects(self, rng):
        from stoqlift import measurement_operators
        channel = random_kraus_map(rng, 3)
        povm = povm_from_channel(channel)
        ops = measurement_operators(channel)
        for j, effect in enumerate(povm.effects):
            recovered = sum(m.conj().T @ m for m in ops[j])
            np.testing.assert_allclose(recovered, effect, atol=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_both_probability_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        channel = random_kraus_map(rng, n)
        rho = random_density(rng, n)
        povm = povm_from_channel(channel)
        via_effects = povm.outcome_probabilities(rho)
        evolved = sum(k @ rho @ k.conj().T for k in channel.operators)
        via_channel = np.real(np.diag(evolved))
        assert np.abs(via_effects - via_channel).max() < 1e-12


class TestModifiedReadout:
    def test_trivial_readout_channel(self):
        evolution = KrausMap(BITFLIP_OPS)
        out = modified_readout_kernel(KrausMap([np.eye(2)]), evolution)
        np.testing.assert_allclose(out.matrix,
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_hadamard_undoes_hadamard(self):
        out = modified_readout_kernel(KrausMap([HADAMARD]),
                                      KrausMap([HADAMARD]))
        np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-12)

    def test_bitflip_readout_of_identity_evolution(self):
        out = modified_readout_kernel(KrausMap(BITFLIP_OPS),
                                      KrausMap([np.eye(2)]))
        np.testing.assert_allclose(out.matrix,
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_unitary_pair_reduces_to_two_step_kernel(self, rng):
        u, w = random_unitary(rng, 3), random_unitary(rng, 3)
        out = modified_readout_kernel(KrausMap([u]), KrausMap([w]))
        np.testing.assert_allclose(out.matrix, mod_square(u @ w), atol=1e-12)

    def test_non_tp_evolution_rejected(self):
        with pytest.raises(ValidationError):
            modified_readout_kernel(KrausMap([np.eye(2)]),
                                    KrausMap([1.1 * np.eye(2)]))


class TestDofCounts:
    @pytest.mark.parametrize("n,m,expected", [
        (2, 1, {"path_law": 3, "unitary_lift": 4, "cptp_lift": 12}),
        (2, 2, {"path_law": 7, "unitary_lift": 8, "cptp_lift": 24}),
        (2, 3, {"path_law": 15, "unitary_lift": 12, "cptp_lift": 36}),
        (3, 1, {"path_law": 8, "unitary_lift": 9, "cptp_lift": 72}),
        (3, 2, {"path_law": 26, "unitary_lift": 18, "cptp_lift": 144}),
        (3, 3, {"path_law": 80, "unitary_lift": 27, "cptp_lift": 216}),
    ])
    def test_closed_forms(self, n, m, expected):
        assert dof_counts(n, m) == expected

    def test_path_law_outgrows_channel_lifts(self):
        for n in (2, 3, 4):
            crossed = False
            for m in range(1, 13):
                counts = dof_counts(n, m)
                if counts["path_law"] > counts["cptp_lift"]:
                    crossed = True
                elif crossed:
                    pytest.fail("path-law count fell back below the lift count")
            assert crossed

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dof_counts(1, 1)
        with pytest.raises(ValueError):
            dof_counts(2, 0)


def _three_time_constraints(g10, g20):
    """Normalization and marginalization rows over p[x2, x1, x0], row-major."""
    n = g10.shape[0]

    def var(x2, x1, x0):
        return (x2 * n + x1) * n + x0

    rows, rhs = [], []
    for x1 in range(n):
        for x0 in range(n):
            row = np.zeros(n ** 3)
            for x2 in range(n):
                row[var(x2, x1, x0)] = 1.0
            rows.append(row)
            rhs.append(1.0)
    for x2 in range(n):
        for x0 in range(n):
            row = np.zeros(n ** 3)
            for x1 in range(n):
                row[var(x2, x1, x0)] = g10[x1, x0]
            rows.append(row)
            rhs.append(g20[x2, x0])
    return np.asarray(rows), np.asarray(rhs)


class TestThreeTimeFreedom:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("kind", range(len(KERNEL_KINDS)))
    def test_closed_form_against_explicit_constraints(self, n, kind):
        rng = np.random.default_rng(n)
        g10 = KERNEL_KINDS[kind](rng, n)
        g20 = KERNEL_KINDS[(kind + 1) % len(KERNEL_KINDS)](rng, n)
        report = three_time_freedom(StochasticKernel(g10), StochasticKernel(g20))
        a, b = _three_time_constraints(g10, g20)
        assert report.affine_dimension == n ** 3 - np.linalg.matrix_rank(a)
        sample = report.sample_conditional.reshape(-1)
        np.testing.assert_allclose(a @ sample, b, rtol=0, atol=1e-12)
        # Max-min slack: p = q + t with q >= 0; maximize t.
        a_slack = np.hstack([a, a.sum(axis=1, keepdims=True)])
        cost = np.zeros(n ** 3 + 1)
        cost[-1] = -1.0
        best = linprog(cost, A_eq=a_slack, b_eq=b,
                       bounds=[(0, None)] * n ** 3 + [(None, None)],
                       method="highs")
        assert best.success
        assert best.x[-1] == pytest.approx(report.min_entry, abs=1e-9)

    def test_identity_chain_forces_deterministic_branches(self):
        eye = StochasticKernel.identity(2)
        report = three_time_freedom(eye, eye)
        assert report.consistent and report.feasible
        assert report.affine_dimension == 2  # off-path branches stay free
        sample = report.sample_conditional
        np.testing.assert_allclose(sample[:, 0, 0], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(sample[:, 1, 1], [0.0, 1.0], atol=1e-9)

    def test_flip_after_identity(self):
        report = three_time_freedom(StochasticKernel.identity(2),
                                    StochasticKernel(FLIP))
        assert report.feasible
        assert not report.strictly_positive  # on-path branches contain zeros
        assert report.affine_dimension == 2
        np.testing.assert_allclose(report.sample_conditional[:, 0, 0],
                                   [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(report.sample_conditional[:, 1, 1],
                                   [1.0, 0.0], atol=1e-9)

    def test_constraint_rank_oracle_for_identity_first_leg(self):
        # Brute-force rank: marginal rows pin the 4 on-path variables, and
        # the 2 on-path normalizations are sums of those rows, leaving
        # rank 6 of 8 variables.
        report = three_time_freedom(StochasticKernel.identity(2),
                                    StochasticKernel(FLIP))
        assert report.affine_dimension == 8 - 6

    @pytest.mark.parametrize("seed", range(20))
    def test_positive_kernels_leave_full_freedom(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        gamma_10 = random_stochastic(rng, n)
        # A compatible later kernel: an arbitrary second step applied on top.
        gamma_20 = compose(random_stochastic(rng, n), gamma_10)
        report = three_time_freedom(gamma_10, gamma_20)
        assert report.consistent and report.feasible
        assert report.strictly_positive
        assert report.affine_dimension >= n * (n - 1) ** 2
        # The sample really satisfies the marginalization constraint.
        sample = report.sample_conditional
        recon = np.einsum("abc,bc->ac", sample, gamma_10.matrix)
        assert np.abs(recon - gamma_20.matrix).max() < 1e-8

    def test_every_stochastic_pair_is_feasible(self):
        # Memory makes any pair compatible: p(x2|x1,x0) = gamma_20[x2,x0],
        # independent of x1, always satisfies the marginalization constraint.
        # The indivisible pair (full mix, flip) is the sharpest case: no
        # x1-independent *kernel* factorization exists, yet the x0-remembering
        # conditional does.
        report = three_time_freedom(StochasticKernel(MIX),
                                    StochasticKernel(FLIP))
        assert report.consistent and report.feasible
        sample = report.sample_conditional
        recon = np.einsum("abc,bc->ac", sample, MIX)
        assert np.abs(recon - FLIP).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            three_time_freedom(StochasticKernel.identity(2),
                               StochasticKernel.identity(3))
