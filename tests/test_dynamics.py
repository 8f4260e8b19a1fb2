import math

import numpy as np
import pytest
from scipy.linalg import expm

from stoqlift import (DensityOperator, DimensionMismatchError, GkslGenerator,
                      KernelFamily, ProbabilityVector, RateMatrix,
                      SuperOperator, SuperOperatorFamily,
                      ValidationError, check_cptp,
                      ck_checklist, ctmc_embedding, ctmc_propagate,
                      diagonal_preservation_check, embed_diagonal,
                      generator_from_family, gksl_superoperator, propagate,
                      propagate_piecewise, readout, short_time_kraus, unvec,
                      vec)
from stoqlift.random_ops import random_rate_matrix

from conftest import PAULI_X

PAULI_Z = np.diag([1.0, -1.0])
DECAY = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
SYM_RATE = np.array([[-1.0, 1.0], [1.0, -1.0]])


def decay_generator():
    return GkslGenerator(np.zeros((2, 2)), [DECAY])


class TestGenerator:
    def test_zero_generator_gives_zero_superoperator(self):
        s = gksl_superoperator(GkslGenerator.zero(2))
        assert np.abs(s.matrix).max() == 0.0

    def test_decay_action_on_excited_state(self):
        s = gksl_superoperator(decay_generator())
        excited = np.diag([0.0, 1.0]).astype(complex)
        image = unvec(s.matrix @ vec(excited))
        np.testing.assert_allclose(image, np.diag([1.0, -1.0]), atol=1e-15)

    def test_commutator_action_on_plus_state(self):
        s = gksl_superoperator(GkslGenerator(PAULI_Z))
        plus = np.full((2, 2), 0.5, dtype=complex)
        image = unvec(s.matrix @ vec(plus))
        # -i[Z, |+><+|] has zero diagonal and off-diagonals -/+ i.
        np.testing.assert_allclose(np.diag(image), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(image[0, 1], -1j, atol=1e-15)
        np.testing.assert_allclose(image[1, 0], 1j, atol=1e-15)

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValidationError):
            GkslGenerator([[0.0, 1.0], [0.0, 0.0]])

    def test_trace_annihilation_on_matrix_units(self, rng):
        jump = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = rng.standard_normal((3, 3))
        gen = GkslGenerator(h + h.T, [jump])
        s = gksl_superoperator(gen).matrix
        for i in range(3):
            for j in range(3):
                x = np.zeros((3, 3), dtype=complex)
                x[i, j] = 1.0
                assert abs(np.trace(unvec(s @ vec(x)))) < 1e-12


class TestShortTimeKraus:
    def test_zero_generator_gives_identity(self):
        kmap = short_time_kraus(GkslGenerator.zero(2), 0.5)
        assert kmap.rank == 1
        np.testing.assert_array_equal(kmap.operators[0], np.eye(2))

    def test_first_order_consistency_with_generator(self):
        gen = decay_generator()
        s = gksl_superoperator(gen).matrix
        rho = np.diag([0.0, 1.0]).astype(complex)
        dt = 1e-3
        kmap = short_time_kraus(gen, dt)
        stepped = sum(k @ rho @ k.conj().T for k in kmap.operators)
        residual = np.abs(stepped - rho - dt * unvec(s @ vec(rho))).max()
        assert residual <= 1e-5

    def test_residual_scales_quadratically(self):
        gen = decay_generator()
        s = gksl_superoperator(gen).matrix
        rho = np.diag([0.0, 1.0]).astype(complex)
        residuals = []
        steps = [1e-2, 1e-3, 1e-4]
        for dt in steps:
            kmap = short_time_kraus(gen, dt)
            stepped = sum(k @ rho @ k.conj().T for k in kmap.operators)
            residuals.append(np.abs(stepped - rho - dt * unvec(s @ vec(rho))).max())
        slope = np.polyfit(np.log(steps), np.log(residuals), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_completeness_defect_is_second_order(self):
        gen = decay_generator()
        for dt in (1e-2, 1e-3):
            kmap = short_time_kraus(gen, dt)
            assert kmap.completeness_residual <= 1.01 * dt ** 2

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            short_time_kraus(decay_generator(), 0.0)


class TestPropagate:
    def test_zero_time_returns_state(self, rng):
        rho0 = DensityOperator.basis_projector(1, 2)
        out = propagate(decay_generator(), rho0, 0.0)
        np.testing.assert_allclose(out.matrix, rho0.matrix, atol=1e-15)

    def test_decay_reaches_ground_state(self):
        out = propagate(decay_generator(),
                        DensityOperator.basis_projector(1, 2), 30.0)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_decay_matches_closed_form_populations(self):
        out = propagate(decay_generator(),
                        DensityOperator.basis_projector(1, 2), 1.0)
        expected = np.diag([1.0 - math.exp(-1.0), math.exp(-1.0)])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(decay_generator(),
                      DensityOperator.basis_projector(1, 2), -0.1)

    def test_finite_time_maps_are_cptp(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 4))
            h = rng.standard_normal((n, n))
            jump = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gen = GkslGenerator(h + h.T, [jump])
            s = gksl_superoperator(gen).matrix
            for t in (0.1, 1.0, 10.0):
                report = check_cptp(SuperOperator(expm(t * s)),
                                    tol_tp=1e-8, tol_psd=1e-8)
                assert report.passed, (seed, t)

    def test_piecewise_propagation_chains_segments(self):
        gen = decay_generator()
        rho0 = DensityOperator.basis_projector(1, 2)
        direct = propagate(gen, rho0, 1.0)
        chained = propagate_piecewise([(gen, 0.25), (gen, 0.75)], rho0)
        np.testing.assert_allclose(chained.matrix, direct.matrix, atol=1e-12)


class TestCtmcEmbedding:
    def test_zero_rate_zero_hamiltonian(self):
        gen = ctmc_embedding(RateMatrix(np.zeros((2, 2))))
        assert not gen.jump_ops
        assert np.abs(gen.hamiltonian).max() == 0.0

    def test_populations_match_classical_propagation(self):
        rate = RateMatrix(SYM_RATE)
        gen = ctmc_embedding(rate)
        p0 = ProbabilityVector.basis(0, 2)
        lifted = readout(propagate(gen, embed_diagonal(p0), 0.5))
        oracle = [0.5 * (1 + math.exp(-1.0)), 0.5 * (1 - math.exp(-1.0))]
        np.testing.assert_allclose(lifted.entries, oracle, atol=1e-12)

    def test_diagonal_hamiltonian_leaves_populations_alone(self):
        rate = RateMatrix(SYM_RATE)
        p0 = ProbabilityVector.basis(0, 2)
        plain = readout(propagate(ctmc_embedding(rate),
                                  embed_diagonal(p0), 0.7))
        dressed = readout(propagate(ctmc_embedding(rate, [1.0, 2.0]),
                                    embed_diagonal(p0), 0.7))
        np.testing.assert_allclose(dressed.entries, plain.entries, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_square_closes_for_random_rates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        rate = random_rate_matrix(rng, n)
        p0 = ProbabilityVector(rng.dirichlet(np.ones(n)))
        t = float(rng.uniform(0.0, 2.0))
        classical = ctmc_propagate(rate, p0, t)
        lifted = readout(propagate(ctmc_embedding(rate),
                                   embed_diagonal(p0), t))
        assert np.abs(classical.entries - lifted.entries).max() < 1e-10

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            ctmc_embedding(np.array([[-1.0, -0.5], [1.0, 0.5]]))

    def test_wrong_hamiltonian_length(self):
        with pytest.raises(DimensionMismatchError):
            ctmc_embedding(RateMatrix(SYM_RATE), [1.0, 2.0, 3.0])


class TestDiagonalPreservation:
    def test_embedding_preserves_diagonality(self):
        assert diagonal_preservation_check(ctmc_embedding(RateMatrix(SYM_RATE)))

    def test_transverse_hamiltonian_does_not(self):
        assert not diagonal_preservation_check(GkslGenerator(PAULI_X))

    def test_zero_generator_does(self):
        assert diagonal_preservation_check(GkslGenerator.zero(3))


class TestFamilies:
    def test_semigroup_family_passes_checklist(self):
        family = SuperOperatorFamily.from_generator(decay_generator(),
                                                    [0.0, 0.4, 1.0])
        report = ck_checklist(family)
        assert report.passed
        assert report.max_identity_residual <= 1e-12
        assert report.max_forward_residual <= 1e-6
        assert report.tolerance_dominates_stencil

    def test_unitary_family_passes_checklist_with_constant_generator(self):
        family = SuperOperatorFamily.from_hamiltonian(PAULI_X, [0.0, 0.4, 1.0])
        report = ck_checklist(family)
        assert report.passed
        gens = list(report.generators.values())
        for g in gens[1:]:
            assert np.abs(g - gens[0]).max() < 1e-6

    def test_constant_identity_family(self):
        family = SuperOperatorFamily([0.0, 0.5, 1.0],
                                     lambda t, s: np.eye(4, dtype=complex))
        report = ck_checklist(family)
        assert report.passed
        for g in report.generators.values():
            assert np.abs(g).max() < 1e-9

    def test_pairwise_lift_of_rotation_moduli_fails_forward_equation(self):
        kfam = KernelFamily.from_theta(
            lambda t, s: expm(-1j * PAULI_X * (t - s)), [0.0, 0.4, 1.0])
        family = SuperOperatorFamily.from_kernel_family(kfam)
        report = ck_checklist(family)
        assert not report.passed
        assert report.max_forward_residual >= 1e-2
        # The same defect shows up at coincidence: the pairwise lift of the
        # identity kernel is the dephasing map, not the identity map.
        assert report.max_identity_residual == pytest.approx(1.0)

    def test_forward_equation_residual_against_brute_force(self):
        # Oracle for one pair: central difference and generator both built
        # directly from the family callable, independent of ck_checklist.
        kfam = KernelFamily.from_theta(
            lambda t, s: expm(-1j * PAULI_X * (t - s)), [0.0, 0.4, 1.0])
        family = SuperOperatorFamily.from_kernel_family(kfam)
        h = 1e-4
        s_val, t_val = 0.0, 0.4
        dsdt = (family.superop(t_val + h, s_val).matrix
                - family.superop(t_val - h, s_val).matrix) / (2 * h)
        gen = (-3.0 * family.superop(t_val, t_val).matrix
               + 4.0 * family.superop(t_val + h, t_val).matrix
               - family.superop(t_val + 2 * h, t_val).matrix) / (2 * h)
        brute = np.abs(dsdt - gen @ family.superop(t_val, s_val).matrix).max()
        report = ck_checklist(family)
        assert report.forward_residuals[(s_val, t_val)] == pytest.approx(
            brute, rel=1e-9)

    def test_generator_extraction_matches_known_generator(self):
        gen = decay_generator()
        family = SuperOperatorFamily.from_generator(gen, [0.0, 1.0])
        estimate = generator_from_family(family, 0.3, 1e-4)
        assert np.abs(estimate.matrix
                      - gksl_superoperator(gen).matrix).max() < 1e-6

    def test_generator_extraction_for_unitary_family(self):
        family = SuperOperatorFamily.from_hamiltonian(PAULI_X, [0.0, 1.0])
        estimate = generator_from_family(family, 0.0, 1e-4)
        commutator = gksl_superoperator(GkslGenerator(PAULI_X)).matrix
        assert np.abs(estimate.matrix - commutator).max() < 1e-6

    def test_constant_family_has_zero_generator(self):
        family = SuperOperatorFamily([0.0, 1.0],
                                     lambda t, s: np.eye(4, dtype=complex))
        estimate = generator_from_family(family, 0.5, 1e-4)
        assert np.abs(estimate.matrix).max() < 1e-9

    def test_stencil_refinement_ratio_is_quadratic(self):
        gen = decay_generator()
        family = SuperOperatorFamily.from_generator(gen, [0.0, 1.0])
        target = gksl_superoperator(gen).matrix
        errs = []
        for h in (2e-3, 1e-3):
            est = generator_from_family(family, 0.0, h).matrix
            errs.append(np.abs(est - target).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_checklist_grid_requirement(self):
        family = SuperOperatorFamily([0.0],
                                     lambda t, s: np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            ck_checklist(family)


EPS = np.finfo(complex).eps
DIMS = (1, 2, 3, 5)
JUMP_COUNTS = ("0", "1", "N^2+1")


def _loop_gksl(h, jumps):
    """The per-jump kron sum the generator was built with before it became a
    left-right map; kept as the reference."""
    n = h.shape[0]
    eye = np.eye(n)
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for jump in jumps:
        jj = jump.conj().T @ jump
        s += np.kron(jump.conj(), jump)
        s -= 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    return s


def _loop_ctmc_jumps(rate):
    """The double loop ctmc_embedding used before index assignment."""
    n = rate.shape[0]
    jumps = []
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            w = rate[i, j]
            if w > 0:
                op = np.zeros((n, n), dtype=complex)
                op[i, j] = np.sqrt(w)
                jumps.append(op)
    return jumps


def _nearly_hermitian_generator_inputs(n, count):
    """A Hamiltonian Hermitian only to within 1e-11, non-normal jumps, and the
    comparison tolerance fixed from their sizes."""
    r = {"0": 0, "1": 1, "N^2+1": n * n + 1}[count]
    rng = np.random.default_rng([n, r, 3])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2 + 1e-11 * (skew - skew.conj().T) / np.abs(skew).max() / 4
    jumps = rng.standard_normal((r, n, n)) + 1j * rng.standard_normal((r, n, n))
    scale = max(1.0, np.abs(h).max(), np.abs(jumps).max(initial=0.0))
    tol = 1e2 * EPS * n ** 2 * (r + 2) * scale ** 2
    return h, jumps, tol


class TestLiouvilleAgainstLoops:
    @pytest.mark.parametrize("count", JUMP_COUNTS)
    @pytest.mark.parametrize("n", DIMS)
    def test_generator_is_the_kron_sum(self, n, count):
        h, jumps, tol = _nearly_hermitian_generator_inputs(n, count)
        assert 0 < np.abs(h - h.conj().T).max() <= 1e-11
        gen = GkslGenerator(h, list(jumps))
        expected = _loop_gksl(h, list(jumps))
        assert np.abs(gen.superoperator.matrix - expected).max() <= tol
        assert gksl_superoperator(gen) is gen.superoperator

    @pytest.mark.parametrize("count", JUMP_COUNTS)
    @pytest.mark.parametrize("n", DIMS)
    def test_trace_is_annihilated_for_nearly_hermitian_h(self, n, count):
        h, jumps, tol = _nearly_hermitian_generator_inputs(n, count)
        s = GkslGenerator(h, list(jumps)).superoperator.matrix
        assert np.abs(vec(np.eye(n)) @ s).max() <= tol

    @pytest.mark.parametrize("count", JUMP_COUNTS)
    @pytest.mark.parametrize("n", DIMS)
    def test_jump_ops_keep_input_order_and_values(self, n, count):
        h, jumps, _ = _nearly_hermitian_generator_inputs(n, count)
        gen = GkslGenerator(h, list(jumps))
        assert len(gen.jump_ops) == len(jumps)
        for got, given in zip(gen.jump_ops, jumps):
            assert np.array_equal(got, given)
            assert not got.flags.writeable

    @pytest.mark.parametrize("n", DIMS)
    def test_unitary_family_is_the_conjugate_kron(self, n):
        rng = np.random.default_rng([n, 5])
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        family = SuperOperatorFamily.from_hamiltonian(h, [0.0, 0.5])
        for t, s in ((0.5, 0.0), (0.7, 0.5), (0.5, 0.5)):
            u = expm(-1j * (t - s) * h)
            tol = 1e2 * EPS * n ** 2 * np.abs(u).max() ** 2
            assert (np.abs(family.superop(t, s).matrix - np.kron(u.conj(), u)).max()
                    <= tol)

    @pytest.mark.parametrize("n", DIMS)
    def test_ctmc_jumps_match_the_double_loop(self, n):
        rng = np.random.default_rng([n, 9])
        rate = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(rate, 0.0)
        rate -= np.diag(rate.sum(axis=0))
        diag_h = rng.standard_normal(n)
        gen = ctmc_embedding(RateMatrix(rate), diag_h)
        expected = _loop_ctmc_jumps(rate)
        assert len(gen.jump_ops) == len(expected)
        for got, want in zip(gen.jump_ops, expected):
            assert np.array_equal(got, want)
        reference = GkslGenerator(np.diag(diag_h), expected)
        assert np.array_equal(gen.superoperator.matrix,
                              reference.superoperator.matrix)


def test_checklist_evaluates_each_superoperator_once():
    # Grid pair (0, 5e-5) is shorter than the step and takes the one-sided
    # rule; the other two pairs take the central rule.
    grid = [0.0, 5e-5, 1.0]
    base = SuperOperatorFamily.from_generator(decay_generator(), grid)
    calls = []
    family = SuperOperatorFamily(
        grid, lambda t, s: calls.append((t, s)) or base.superop(t, s))
    calls.clear()
    ck_checklist(family, fd_step=1e-4)
    # Three stencil points per generator and three per pair, none repeated.
    assert len(calls) == len(set(calls)) == 3 * 3 + 3 * 3
