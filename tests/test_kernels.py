import math

import numpy as np
import pytest
from scipy.linalg import expm

from stoqlift import (DimensionMismatchError, KernelFamily, ProbabilityVector,
                      RateMatrix, StochasticKernel, ValidationError,
                      c_divisibility_check, check_ck_family, compose,
                      ctmc_propagate, dtmc_to_ctmc_scaling,
                      short_time_derivatives, theta_markov_triviality_demo,
                      validate_kernel)
from stoqlift.random_ops import random_stochastic

from conftest import PAULI_X

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
MIX = np.array([[0.5, 0.5], [0.5, 0.5]])
SYM_RATE = np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestValidation:
    def test_identity_passes_with_zero_residuals(self):
        report = validate_kernel(np.eye(2))
        assert report.passed
        assert report.max_negative_entry == 0.0
        assert report.max_column_sum_error == 0.0

    def test_bistochastic_mix_passes(self):
        assert validate_kernel(MIX).passed

    def test_constructed_violation_fails_with_residual(self):
        report = validate_kernel([[1.2, 0.0], [-0.2, 1.0]])
        assert not report.passed
        assert report.max_negative_entry == pytest.approx(0.2)
        assert report.max_column_sum_error == pytest.approx(0.0)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            validate_kernel(np.ones((2, 3)))

    def test_kernel_clamps_roundoff_negativity(self):
        k = StochasticKernel([[1.0 + 1e-13, 0.0], [-1e-13, 1.0]])
        assert k.matrix.min() == 0.0

    def test_equal_times_must_be_identity(self):
        with pytest.raises(ValidationError):
            StochasticKernel(MIX, from_time=1.0, to_time=1.0)
        StochasticKernel(np.eye(2), from_time=1.0, to_time=1.0)


class TestProbabilityVector:
    def test_basis_and_clamping(self):
        p = ProbabilityVector([1.0 + 1e-13, -1e-13])
        assert p.entries[1] == 0.0
        assert ProbabilityVector.basis(1, 3).entries.tolist() == [0.0, 1.0, 0.0]

    def test_hard_negativity_rejected(self):
        with pytest.raises(ValidationError):
            ProbabilityVector([1.5, -0.5])

    def test_sum_violation_rejected(self):
        with pytest.raises(ValidationError):
            ProbabilityVector([0.6, 0.6])


class TestCompose:
    def test_identity_is_neutral(self):
        out = compose(StochasticKernel.identity(2), StochasticKernel(MIX))
        np.testing.assert_allclose(out.matrix, MIX)

    def test_flip_is_an_involution(self):
        flip = StochasticKernel(FLIP)
        np.testing.assert_allclose(compose(flip, flip).matrix, np.eye(2))

    def test_mix_absorbs_flip(self):
        out = compose(StochasticKernel(MIX), StochasticKernel(FLIP))
        np.testing.assert_allclose(out.matrix, MIX)  # direct product, frozen

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(StochasticKernel.identity(2), StochasticKernel.identity(3))

    def test_time_chain_mismatch(self):
        early = StochasticKernel(MIX, from_time=0.0, to_time=1.0)
        late = StochasticKernel(MIX, from_time=2.0, to_time=3.0)
        with pytest.raises(ValidationError):
            compose(late, early)

    def test_stochasticity_survives_long_products(self, rng):
        kernel = random_stochastic(rng, 4)
        for _ in range(30):
            kernel = compose(random_stochastic(rng, 4), kernel)
        assert validate_kernel(kernel.matrix, tol_colsum=4e-10).passed


class TestCkFamily:
    def test_semigroup_family_composes(self):
        family = KernelFamily.from_rate_matrix(SYM_RATE, [0.0, 0.5, 1.0])
        report = check_ck_family(family, 1e-10)
        assert report.passed
        # Oracle: both routes are products of matrix exponentials.
        direct = expm(1.0 * SYM_RATE)
        chained = expm(0.5 * SYM_RATE) @ expm(0.5 * SYM_RATE)
        assert np.abs(direct - chained).max() < 1e-12

    def test_constant_identity_family(self):
        family = KernelFamily([0.0, 1.0, 2.0], lambda t, s: np.eye(3))
        assert check_ck_family(family, 1e-12).passed

    def test_squared_moduli_of_rotation_fails(self):
        family = KernelFamily.from_theta(
            lambda t, s: expm(-1j * PAULI_X * (t - s)), [0.0, 0.4, 1.0])
        report = check_ck_family(family, 1e-10)
        assert not report.passed
        # Brute-force both sides for the generic triple.
        s, u, t = 0.0, 0.4, 1.0
        direct = np.abs(expm(-1j * PAULI_X * (t - s))) ** 2
        chained = (np.abs(expm(-1j * PAULI_X * (t - u))) ** 2
                   @ np.abs(expm(-1j * PAULI_X * (u - s))) ** 2)
        assert np.abs(direct - chained).max() > 1e-2
        assert report.max_residual == pytest.approx(
            np.abs(direct - chained).max(), abs=1e-12)

    def test_grid_too_small(self):
        family = KernelFamily([0.0, 1.0], lambda t, s: np.eye(2))
        with pytest.raises(ValueError):
            check_ck_family(family, 1e-10)

    def test_family_requires_identity_at_coincidence(self):
        with pytest.raises(ValidationError):
            KernelFamily([0.0, 1.0], lambda t, s: MIX)


class TestCDivisibility:
    def test_identity_pair(self):
        eye = StochasticKernel.identity(2)
        result = c_divisibility_check(eye, eye, 1e-10)
        assert result.divisible
        np.testing.assert_allclose(result.witness.matrix, np.eye(2))

    def test_flip_through_mix_is_indivisible(self):
        # Any factor acting after the full mix has identical columns.
        result = c_divisibility_check(StochasticKernel(FLIP),
                                      StochasticKernel(MIX), 1e-9)
        assert not result.divisible
        assert result.route == "feasibility"
        assert result.violated_constraints

    def test_mix_through_flip_divides(self):
        result = c_divisibility_check(StochasticKernel(MIX),
                                      StochasticKernel(FLIP), 1e-9)
        assert result.divisible
        assert result.route == "inverse"
        # flip is its own inverse, so the witness is mix @ flip = mix.
        np.testing.assert_allclose(result.witness.matrix, MIX, atol=1e-12)

    def test_invertible_route_rejects_nonstochastic_factor(self):
        gamma_10 = StochasticKernel([[0.9, 0.1], [0.1, 0.9]])
        result = c_divisibility_check(StochasticKernel(FLIP), gamma_10, 1e-9)
        assert not result.divisible
        assert result.route == "inverse"
        assert result.candidate_validation is not None
        assert not result.candidate_validation.passed

    @pytest.mark.parametrize("seed", range(100))
    def test_random_products_divide_with_correct_witness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        factor = random_stochastic(rng, n)
        gamma_10 = random_stochastic(rng, n, diagonal_boost=0.5)
        gamma_20 = compose(factor, gamma_10)
        result = c_divisibility_check(gamma_20, gamma_10, 1e-9)
        assert result.divisible
        assert np.abs(result.witness.matrix - factor.matrix).max() < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_singular_first_leg_takes_the_feasibility_route(self, seed):
        rng = np.random.default_rng(seed)
        base = random_stochastic(rng, 4).matrix.copy()
        base[:, -1] = base[:, -2]  # two equal columns: rank-deficient
        gamma_10 = StochasticKernel(base)
        gamma_20 = compose(random_stochastic(rng, 4), gamma_10)
        result = c_divisibility_check(gamma_20, gamma_10, 1e-9)
        assert result.divisible
        assert result.route == "feasibility"
        recon = result.witness.matrix @ gamma_10.matrix
        assert np.abs(recon - gamma_20.matrix).max() < 1e-8

    def test_every_interior_time_of_a_ck_family_divides(self):
        family = KernelFamily.from_rate_matrix(SYM_RATE, [0.0, 0.3, 0.7, 1.2])
        assert check_ck_family(family, 1e-10).passed
        for u in (0.3, 0.7):
            result = c_divisibility_check(family.kernel(1.2, 0.0),
                                          family.kernel(u, 0.0), 1e-9)
            assert result.divisible


class TestShortTime:
    def test_ctmc_family_recovers_rate_and_curvature(self):
        family = KernelFamily.from_rate_matrix(SYM_RATE, [0.0, 1.0])
        report = short_time_derivatives(family, 0.0, [1e-4, 2e-4])
        assert np.abs(report.first_derivative - SYM_RATE).max() < 1e-6
        # Constant rate: curvature equals the squared rate matrix.
        assert np.abs(report.second_derivative - SYM_RATE @ SYM_RATE).max() < 1e-3
        assert report.step_used == 1e-4

    def test_rate_estimate_improves_quadratically(self):
        family = KernelFamily.from_rate_matrix(SYM_RATE, [0.0, 1.0])
        err = {}
        for h in (1e-2, 5e-3):
            report = short_time_derivatives(family, 0.0, [h, 2 * h])
            err[h] = np.abs(report.first_derivative - SYM_RATE).max()
        assert err[1e-2] / err[5e-3] == pytest.approx(4.0, rel=0.2)

    def test_identity_family_has_zero_structure(self):
        family = KernelFamily([0.0, 1.0], lambda t, s: np.eye(2))
        report = short_time_derivatives(family, 0.0, [1e-3, 2e-3, 4e-3])
        # Stencil coefficients cancel only to round-off on the identity.
        assert np.abs(report.first_derivative).max() < 1e-9
        assert np.abs(report.second_derivative).max() < 1e-6
        assert report.leakage_masses == (0.0, 0.0, 0.0)
        assert np.isfinite(report.leakage_exponent)

    def test_rotation_moduli_leak_quadratically(self):
        family = KernelFamily.from_theta(
            lambda t, s: expm(-1j * PAULI_X * (t - s)), [0.0, 1.0])
        steps = [1e-1, 1e-2, 1e-3, 1e-4]
        report = short_time_derivatives(family, 0.0, steps)
        # Oracle: off-diagonal mass is exactly 2 sin(h)^2; fit its logs.
        oracle = [2.0 * math.sin(h) ** 2 for h in steps]
        slope = np.polyfit(np.log(steps), np.log(oracle), 1)[0]
        assert report.leakage_exponent == pytest.approx(slope, abs=1e-9)
        assert abs(report.leakage_exponent - 2.0) < 0.05

    def test_too_few_steps(self):
        family = KernelFamily([0.0, 1.0], lambda t, s: np.eye(2))
        with pytest.raises(ValueError):
            short_time_derivatives(family, 0.0, [1e-4])


class TestCtmcPropagate:
    def test_zero_time_is_identity(self):
        p0 = ProbabilityVector([0.3, 0.7])
        out = ctmc_propagate(RateMatrix(SYM_RATE), p0, 0.0)
        np.testing.assert_allclose(out.entries, p0.entries)

    def test_long_time_reaches_uniform(self):
        out = ctmc_propagate(RateMatrix(SYM_RATE),
                             ProbabilityVector.basis(0, 2), 20.0)
        np.testing.assert_allclose(out.entries, [0.5, 0.5], atol=1e-8)

    def test_half_time_matches_eigendecomposition_oracle(self):
        out = ctmc_propagate(RateMatrix(SYM_RATE),
                             ProbabilityVector.basis(0, 2), 0.5)
        # Eigenvalues 0 and -2: p(t) = (1,1)/2 + exp(-2t) (1,-1)/2.
        oracle = [0.5 * (1 + math.exp(-1.0)), 0.5 * (1 - math.exp(-1.0))]
        np.testing.assert_allclose(out.entries, oracle, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ctmc_propagate(RateMatrix(SYM_RATE),
                           ProbabilityVector.basis(0, 2), -1.0)

    def test_rate_matrix_validation(self):
        with pytest.raises(ValidationError):
            RateMatrix([[-1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError):
            RateMatrix([[-1.0, 0.5], [1.0, -0.5 + 1e-3]])


class TestScaling:
    def test_zero_rate_is_exact(self):
        rows = dtmc_to_ctmc_scaling(RateMatrix(np.zeros((2, 2))), 1.0, 1.0,
                                    [0.1, 0.05])
        assert all(r.sup_error == 0.0 for r in rows)

    def test_zero_time_is_exact(self):
        rows = dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 0.0, [0.1])
        assert rows[0].n_steps == 0
        assert rows[0].sup_error == 0.0

    def test_quadratic_error_decay_with_closed_form_oracle(self):
        rows = dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 1.0,
                                    [0.1, 0.05])
        for row in rows:
            # Symmetric two-state chain diagonalizes: the step matrix has
            # eigenvalue 1 - 2 eps^2 on (1, -1), the target exp(-2).
            lam = 1.0 - 2.0 * row.epsilon ** 2
            oracle = 0.5 * abs(lam ** row.n_steps - math.exp(-2.0))
            assert row.sup_error == pytest.approx(oracle, abs=1e-12)
        ratio = rows[0].sup_error / rows[1].sup_error
        assert ratio == pytest.approx(4.0, abs=1.5)

    def test_errors_strictly_decrease(self):
        rows = dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 1.0,
                                    [0.2, 0.1, 0.05, 0.025])
        errors = [r.sup_error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_step_counts_hit_exact_divisions(self):
        rows = dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 1.0,
                                    [0.1, 0.05, 0.025])
        assert [r.n_steps for r in rows] == [100, 400, 1600]

    def test_too_large_epsilon_is_a_step_size_error(self):
        with pytest.raises(ValidationError):
            dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 1.0, [1.5])


class TestThetaTriviality:
    def test_identity_family_is_exactly_trivial(self):
        rows = theta_markov_triviality_demo(lambda h: np.eye(2), 1.0, [5, 50])
        assert all(r.bound == 0.0 and r.product_distance == 0.0 for r in rows)

    def test_rotation_bound_and_product_shrink(self):
        rows = theta_markov_triviality_demo(
            lambda h: expm(-1j * PAULI_X * h), 1.0, [10, 100, 1000])
        for row in rows:
            # alpha(h) = sin(h)^2 exactly for this rotation.
            assert row.alpha == pytest.approx(math.sin(row.step) ** 2, abs=1e-12)
            # Product distance oracle: 0.5 (1 - cos(2h)^n).
            oracle = 0.5 * (1.0 - math.cos(2 * row.step) ** row.n_subdivisions)
            assert row.product_distance == pytest.approx(oracle, abs=1e-12)
            assert row.product_distance <= row.bound + 1e-12
        bounds = [r.bound for r in rows]
        assert bounds[0] / bounds[1] == pytest.approx(10.0, abs=1.0)
        assert bounds[1] / bounds[2] == pytest.approx(10.0, abs=1.0)
        dists = [r.product_distance for r in rows]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_bound_log_log_slope_is_minus_one(self):
        rows = theta_markov_triviality_demo(
            lambda h: expm(-1j * PAULI_X * h), 1.0, [10, 100, 1000])
        slope = np.polyfit(np.log([r.n_subdivisions for r in rows]),
                           np.log([r.bound for r in rows]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_nonidentity_at_zero_rejected(self):
        with pytest.raises(ValidationError):
            theta_markov_triviality_demo(lambda h: 2 * np.eye(2), 1.0, [10])

    def test_nonstochastic_step_rejected(self):
        with pytest.raises(ValidationError):
            theta_markov_triviality_demo(
                lambda h: np.eye(2) + h * np.eye(2), 1.0, [10])


def _loop_feasibility_program(g20, g10):
    """The row-by-row build of the feasibility LP, kept as the reference."""
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


class TestFeasibilityProgram:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_program_and_labels_match_the_loop(self, monkeypatch, n):
        import stoqlift.kernels as kernels
        from stoqlift.simplex import SimplexResult

        rng = np.random.default_rng(n)
        gamma_10, gamma_20 = random_stochastic(rng, n), random_stochastic(rng, n)
        seen = {}

        def infeasible_everywhere(a_eq, b_eq):
            seen.update(a=a_eq, b=b_eq)
            return SimplexResult("infeasible", None, 1.0, tuple(range(b_eq.size)))

        # Force the feasibility route whatever the conditioning.
        monkeypatch.setattr(kernels, "CONDITION_CAP", 0.0)
        monkeypatch.setattr(kernels, "solve_lp", infeasible_everywhere)
        result = c_divisibility_check(gamma_20, gamma_10)
        a_ref, b_ref, labels_ref = _loop_feasibility_program(
            gamma_20.matrix, gamma_10.matrix)
        np.testing.assert_array_equal(seen["a"], a_ref)
        np.testing.assert_array_equal(seen["b"], b_ref)
        assert result.route == "feasibility" and not result.divisible
        assert result.violated_constraints == tuple(labels_ref)

    def test_labels_name_only_the_violated_rows(self, monkeypatch):
        import stoqlift.kernels as kernels
        from stoqlift.simplex import SimplexResult

        monkeypatch.setattr(kernels, "CONDITION_CAP", 0.0)
        monkeypatch.setattr(kernels, "solve_lp", lambda a, b: SimplexResult(
            "infeasible", None, 0.5, (1, 2, 5)))
        result = c_divisibility_check(StochasticKernel(FLIP), StochasticKernel(MIX))
        assert result.violated_constraints == ("product[0,1]", "product[1,0]",
                                               "colsum[1]")
