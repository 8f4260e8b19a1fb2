import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stoqlift import (DensityOperator, DimensionMismatchError, KrausMap,
                      LeftRightMap, ProbabilityVector, StochasticKernel,
                      SuperOperator, ValidationError, apply_kraus,
                      barandes_column_lift, canonical_lift, check_cptp,
                      choi_from_kraus, choi_from_superoperator,
                      compatibility_check, dephase, dephasing_projector,
                      diagonal_injection, dictionary_kernel, embed_diagonal,
                      induced_kernel, kraus_from_choi, q_divisibility_check,
                      readout, superop_kernel_extract, theta_conjugation_lift,
                      to_superoperator, unvec, vec)
from stoqlift.lifts import _reshuffle

from conftest import HADAMARD
from random_ops import (random_density, random_kraus_map,
                        random_probability_vector, random_stochastic,
                        random_unitary)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
MIX = np.array([[0.5, 0.5], [0.5, 0.5]])
PLUS = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
BITFLIP_OPS = [np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * FLIP]


class TestVectorization:
    def test_vec_is_column_stacking(self):
        x = np.array([[1, 2], [3, 4]])
        assert vec(x).tolist() == [1, 3, 2, 4]
        np.testing.assert_array_equal(unvec(vec(x)), x)

    def test_vec_identity_on_products(self, rng):
        a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        np.testing.assert_allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x),
                                   atol=1e-12)

    def test_injection_and_projector_structure(self):
        d = diagonal_injection(2)
        p = dephasing_projector(2)
        np.testing.assert_array_equal(d.T @ d, np.eye(2))
        np.testing.assert_array_equal(p, np.diag([1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(p @ p, p)
        np.testing.assert_array_equal(p @ d, d)
        np.testing.assert_array_equal(vec(np.diag([0.3, 0.7])), d @ [0.3, 0.7])


class TestEmbedDephaseReadout:
    def test_embed_point_mass(self):
        rho = embed_diagonal(ProbabilityVector.basis(0, 2))
        np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_embed_uniform(self):
        rho = embed_diagonal(ProbabilityVector([0.5, 0.5]))
        np.testing.assert_array_equal(rho.matrix, np.diag([0.5, 0.5]))

    def test_embed_keeps_trace_one(self):
        rho = embed_diagonal(ProbabilityVector([0.3, 0.2, 0.5]))
        np.testing.assert_array_equal(np.diag(rho.matrix), [0.3, 0.2, 0.5])
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_dephase_fixes_diagonal_states(self):
        rho = embed_diagonal(ProbabilityVector([0.2, 0.8]))
        np.testing.assert_array_equal(dephase(rho).matrix, rho.matrix)

    def test_dephase_plus_state(self):
        np.testing.assert_allclose(dephase(DensityOperator(PLUS)).matrix,
                                   np.diag([0.5, 0.5]))

    @given(seed=st.integers(0, 10 ** 6))
    def test_dephase_idempotent_and_trace_preserving(self, seed):
        rho = DensityOperator(random_density(np.random.default_rng(seed), 3))
        once = dephase(rho)
        twice = dephase(once)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-15)
        assert np.trace(once.matrix) == pytest.approx(np.trace(rho.matrix))

    def test_readout_diagonal(self):
        p = readout(DensityOperator(np.diag([0.25, 0.75]).astype(complex)))
        np.testing.assert_allclose(p.entries, [0.25, 0.75])

    @given(seed=st.integers(0, 10 ** 6))
    def test_readout_inverts_embedding(self, seed):
        p = random_probability_vector(np.random.default_rng(seed), 4)
        np.testing.assert_array_equal(readout(embed_diagonal(p)).entries,
                                      p.entries)

    def test_readout_rejects_coherences_when_strict(self):
        with pytest.raises(ValidationError):
            readout(DensityOperator(PLUS), require_diagonal=True)
        # Non-strict mode dephases first.
        np.testing.assert_allclose(readout(DensityOperator(PLUS)).entries,
                                   [0.5, 0.5])

    def test_readout_nan_tolerance_rejects_coherences(self):
        with pytest.raises(ValidationError, match="not diagonal"):
            readout(DensityOperator(PLUS), require_diagonal=True, tol=np.nan)
        diagonal = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
        with pytest.raises(ValidationError, match="not diagonal"):
            readout(diagonal, require_diagonal=True, tol=np.nan)


class TestApplyKraus:
    def test_identity_map(self, rng):
        rho = DensityOperator(random_density(rng, 2))
        out = apply_kraus(KrausMap([np.eye(2)]), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix)

    def test_bitflip_on_first_basis_state(self):
        out = apply_kraus(KrausMap(BITFLIP_OPS),
                          DensityOperator.basis_projector(0, 2))
        np.testing.assert_allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-15)

    def test_canonical_flip_lift_swaps_populations(self):
        kmap = canonical_lift(StochasticKernel(FLIP))
        rho = embed_diagonal(ProbabilityVector([0.3, 0.7]))
        out = apply_kraus(kmap, rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_kraus(KrausMap([np.eye(3)]), DensityOperator(PLUS))


class TestKrausMap:
    def test_zero_operators_are_dropped(self):
        kmap = KrausMap([np.eye(2), np.zeros((2, 2))])
        assert kmap.rank == 1

    def test_operators_are_read_only(self):
        source = np.eye(2)
        kmap = KrausMap([source, FLIP])
        with pytest.raises(ValueError):
            kmap.operators[1][0, 0] = 5.0
        source[0, 0] = 5.0
        np.testing.assert_array_equal(kmap.operators[0], np.eye(2))

    def test_trace_preservation_flag(self):
        assert KrausMap([np.eye(2)]).trace_preserving
        scaled = KrausMap([1.1 * np.eye(2)])
        assert not scaled.trace_preserving
        assert scaled.completeness_residual == pytest.approx(0.21)

    def test_canonical_reduction_caps_rank(self, rng):
        a = random_kraus_map(rng, 2, 4)
        b = random_kraus_map(rng, 2, 4)
        composed = KrausMap([x @ y for x in a.operators for y in b.operators])
        assert composed.rank == 16
        reduced = composed.canonical_reduction()
        assert reduced.rank <= 4
        probe = random_density(rng, 2)
        before = sum(k @ probe @ k.conj().T for k in composed.operators)
        after = sum(k @ probe @ k.conj().T for k in reduced.operators)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_mixed_shapes_raise_even_with_a_zero_operator(self):
        with pytest.raises(DimensionMismatchError, match="share one dimension"):
            KrausMap([np.eye(2), np.zeros((3, 3))])

    def test_first_non_square_shape_is_named(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"Kraus operator must be a nonempty square "
                                 r"matrix, got shape \(2, 3\)"):
            KrausMap([np.eye(2), np.ones((2, 3)), np.ones((3, 4))])

    @pytest.mark.parametrize("ops", [[], [np.zeros((2, 2)), 1e-15 * np.eye(2)]])
    def test_no_nonzero_operator_is_rejected(self, ops):
        with pytest.raises(ValidationError, match="at least one nonzero operator"):
            KrausMap(ops)

    def test_choi_product_is_formed_once_and_read_only(self, rng):
        kmap = random_kraus_map(rng, 3, 4)
        s = to_superoperator(kmap)
        assert to_superoperator(kmap) is s and not s.matrix.flags.writeable
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 1.0

    def test_cached_choi_gives_the_bits_of_a_fresh_map(self, rng):
        kmap = random_kraus_map(rng, 3, 4)
        report = check_cptp(kmap)  # forms the product first here
        fresh = KrausMap(kmap.operators)
        assert (to_superoperator(kmap).matrix.tobytes()
                == to_superoperator(fresh).matrix.tobytes())
        assert check_cptp(fresh) == report == check_cptp(kmap)

    def test_choi_from_kraus_is_an_independent_copy(self, rng):
        kmap = random_kraus_map(rng, 3, 4)
        first, second = choi_from_kraus(kmap), choi_from_kraus(kmap)
        s = to_superoperator(kmap)
        np.testing.assert_array_equal(first.matrix, _reshuffle(s.matrix, kmap.n))
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert not np.shares_memory(first.matrix, s.matrix)
        assert not np.shares_memory(first.matrix, second.matrix)


class TestLeftRightMap:
    def test_operators_are_read_only_views_in_input_order(self):
        left = [np.eye(2), FLIP]
        right = [FLIP, 2 * np.eye(2)]
        lr = LeftRightMap(left, right)
        for got, given in zip(lr.left_ops + lr.right_ops, left + right):
            np.testing.assert_array_equal(got, given)
            assert not got.flags.writeable
        assert len(lr.left_ops) == len(lr.right_ops) == 2

    @pytest.mark.parametrize("left, right, error, message", [
        ([np.eye(2)], [], DimensionMismatchError, "left/right operator counts differ: 1 vs 0"),
        ([], [], ValidationError, "left-right map needs at least one term"),
    ], ids=["unequal", "empty"])
    def test_refusals(self, left, right, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            LeftRightMap(left, right)


class TestCptp:
    def test_identity_kraus(self):
        report = check_cptp(KrausMap([np.eye(2)]))
        assert report.passed
        assert report.tp_residual == 0.0

    def test_unitary_conjugation(self):
        assert check_cptp(KrausMap([HADAMARD])).passed

    def test_bare_matrix_is_not_a_map(self):
        with pytest.raises(TypeError, match="^unsupported map type ndarray$"):
            check_cptp(np.eye(4))

    def test_scaled_identity_fails_tp(self):
        report = check_cptp(KrausMap([1.1 * np.eye(2)]))
        assert not report.trace_preserving
        assert report.tp_residual == pytest.approx(0.21)
        assert report.completely_positive  # Kraus form is always CP

    def test_superoperator_route_matches_kraus_route(self, rng):
        kmap = random_kraus_map(rng, 3)
        s_report = check_cptp(to_superoperator(kmap))
        k_report = check_cptp(kmap)
        assert s_report.passed and k_report.passed
        assert s_report.min_choi_eigenvalue == pytest.approx(
            k_report.min_choi_eigenvalue, abs=1e-10)

    def test_transpose_map_is_not_cp(self):
        # The transpose is trace preserving and positive but not completely
        # positive; its Choi matrix has a -1 eigenvalue. On vectorized 2x2
        # matrices the transpose is the swap of the middle components.
        s = np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=float)
        report = check_cptp(SuperOperator(s))
        assert report.trace_preserving
        assert not report.completely_positive
        assert report.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)


class TestInducedAndDictionary:
    def test_identity_map_induces_identity(self):
        report = induced_kernel(KrausMap([np.eye(2)]))
        np.testing.assert_array_equal(report.kernel, np.eye(2))
        assert report.validation.passed

    def test_hadamard_conjugation_induces_mix(self):
        report = induced_kernel(KrausMap([HADAMARD]))
        np.testing.assert_allclose(report.kernel, MIX, atol=1e-15)
        assert report.dictionary_residual < 1e-15

    def test_left_right_identity(self):
        report = induced_kernel(LeftRightMap([np.eye(2)], [np.eye(2)]))
        np.testing.assert_array_equal(report.kernel, np.eye(2))
        assert report.trace_condition_residual == 0.0
        assert not report.has_negative_entries

    def test_left_right_negativity_is_flagged(self):
        # A = diag(1, -1), B = I: induced kernel has a -1 entry and the map
        # is not trace preserving.
        report = induced_kernel(LeftRightMap([np.diag([1.0, -1.0])],
                                             [np.eye(2)]))
        assert report.has_negative_entries
        assert report.trace_condition_residual == pytest.approx(2.0)
        assert not report.validation.passed

    def test_dictionary_identity(self):
        out = dictionary_kernel(KrausMap([np.eye(2)]))
        np.testing.assert_array_equal(out.matrix, np.eye(2))

    def test_dictionary_bitflip(self):
        out = dictionary_kernel(KrausMap(BITFLIP_OPS))
        np.testing.assert_allclose(out.matrix,
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_dictionary_hadamard(self):
        np.testing.assert_allclose(dictionary_kernel(KrausMap([HADAMARD])).matrix,
                                   MIX, atol=1e-15)

    def test_dictionary_rejects_non_tp(self):
        with pytest.raises(ValidationError):
            dictionary_kernel(KrausMap([1.1 * np.eye(2)]))

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_preservation_iff_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        tp = random_kraus_map(rng, n)
        report = induced_kernel(tp)
        assert report.validation.passed
        scaled = KrausMap([1.1 * k for k in tp.operators])
        assert not induced_kernel(scaled).validation.passed


class TestCanonicalLift:
    def test_identity_lift_is_the_basis_projectors(self):
        kmap = canonical_lift(StochasticKernel.identity(2))
        assert kmap.rank == 2
        np.testing.assert_array_equal(kmap.operators[0],
                                      np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_array_equal(kmap.operators[1],
                                      np.diag([0.0, 1.0]).astype(complex))

    def test_flip_lift(self):
        kmap = canonical_lift(StochasticKernel(FLIP))
        assert kmap.rank == 2
        expected_first = np.zeros((2, 2))
        expected_first[1, 0] = 1.0
        np.testing.assert_array_equal(kmap.operators[0], expected_first)

    def test_mix_lift_is_complete(self):
        kmap = canonical_lift(StochasticKernel(MIX))
        assert kmap.rank == 4
        completeness = sum(k.conj().T @ k for k in kmap.operators)
        np.testing.assert_allclose(completeness, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_and_trace_preservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gamma = random_stochastic(rng, n)
        kmap = canonical_lift(gamma)
        assert kmap.trace_preserving
        back = dictionary_kernel(kmap)
        assert np.abs(back.matrix - gamma.matrix).max() < 1e-12


class TestThetaLifts:
    def test_identity_theta(self):
        report = theta_conjugation_lift(np.eye(2))
        assert report.trace_preserving
        np.testing.assert_array_equal(report.kernel, np.eye(2))

    def test_hadamard_theta(self):
        report = theta_conjugation_lift(HADAMARD)
        assert report.trace_preserving
        np.testing.assert_allclose(report.kernel, MIX, atol=1e-15)
        assert report.kernel_validation.passed

    def test_scaled_theta_fails_both_checks(self):
        report = theta_conjugation_lift(2.0 * np.eye(2))
        assert not report.trace_preserving
        assert report.tp_residual == pytest.approx(3.0)
        np.testing.assert_array_equal(report.kernel, 4.0 * np.eye(2))
        assert not report.kernel_validation.passed

    def test_column_selectors_of_identity(self):
        kmap = barandes_column_lift(np.eye(2))
        assert kmap.rank == 2
        np.testing.assert_array_equal(kmap.operators[0], np.diag([1.0, 0.0]))

    def test_column_selectors_of_hadamard(self):
        kmap = barandes_column_lift(HADAMARD)
        assert kmap.rank == 2
        assert kmap.trace_preserving
        np.testing.assert_allclose(induced_kernel(kmap).kernel, MIX, atol=1e-15)

    def test_column_lift_rejects_bad_moduli(self):
        with pytest.raises(ValidationError):
            barandes_column_lift(2.0 * np.eye(2))

    def test_agreement_with_conjugation_only_on_diagonals(self, rng):
        kmap = barandes_column_lift(HADAMARD)
        for i in range(2):
            proj = DensityOperator.basis_projector(i, 2)
            via_kraus = apply_kraus(kmap, proj).matrix
            via_conj = HADAMARD @ proj.matrix @ HADAMARD.conj().T
            np.testing.assert_allclose(via_kraus, via_conj, atol=1e-14)
        # Off-diagonal input separates the two lifts.
        via_kraus = sum(k @ PLUS @ k.conj().T for k in kmap.operators)
        via_conj = HADAMARD @ PLUS @ HADAMARD.conj().T
        assert np.abs(via_kraus - via_conj).max() > 0.4

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_on_diagonals_for_random_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        u = random_unitary(rng, n)
        kmap = barandes_column_lift(u)
        for i in range(n):
            proj = np.zeros((n, n), dtype=complex)
            proj[i, i] = 1.0
            via_kraus = sum(k @ proj @ k.conj().T for k in kmap.operators)
            np.testing.assert_allclose(via_kraus, u @ proj @ u.conj().T,
                                       atol=1e-12)


class TestCompatibility:
    def test_identity_pair_passes(self):
        report = compatibility_check(KrausMap([np.eye(2)]),
                                     StochasticKernel.identity(2))
        assert report.passed and report.max_residual == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_canonical_lift_is_compatible(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        gamma = random_stochastic(rng, n)
        report = compatibility_check(canonical_lift(gamma), gamma)
        assert report.passed
        assert len(report.residuals) == n

    def test_wrong_kernel_fails_with_half_residual(self):
        report = compatibility_check(KrausMap([HADAMARD]),
                                     StochasticKernel(FLIP))
        assert not report.passed
        assert report.max_residual == pytest.approx(0.5, abs=1e-12)

    def test_explicit_probes(self):
        gamma = StochasticKernel(MIX)
        report = compatibility_check(canonical_lift(gamma), gamma,
                                     probes=[ProbabilityVector([0.2, 0.8])])
        assert report.passed

    @pytest.mark.parametrize("probes, message", [
        ([], "compatibility check needs at least one probe"),
        ("random", "unknown probe specification 'random'"),
    ], ids=["empty", "unknown"])
    def test_empty_or_unknown_probes_are_rejected(self, probes, message):
        gamma = StochasticKernel(MIX)
        with pytest.raises(ValueError, match=f"^{message}$"):
            compatibility_check(canonical_lift(gamma), gamma, probes=probes)

    def test_wrong_dimension_probe_names_both_sizes(self):
        gamma = StochasticKernel(MIX)
        probe = ProbabilityVector([0.2, 0.3, 0.5])
        with pytest.raises(DimensionMismatchError, match="dimension 3 .* dimension 2"):
            compatibility_check(canonical_lift(gamma), gamma, probes=[probe])


class TestSuperOperator:
    def test_identity_kraus_gives_identity_superop(self):
        s = to_superoperator(KrausMap([np.eye(2)]))
        np.testing.assert_array_equal(s.matrix, np.eye(4))

    def test_unitary_conjugation_is_conjugate_kron(self, rng):
        u = random_unitary(rng, 3)
        s = to_superoperator(KrausMap([u]))
        np.testing.assert_allclose(s.matrix, np.kron(u.conj(), u), atol=1e-15)

    def test_dephasing_superop_is_diagonal_projector(self):
        proj_ops = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        s = to_superoperator(KrausMap(proj_ops))
        np.testing.assert_array_equal(s.matrix, np.diag([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_action_matches_on_matrix_units(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        kmap = random_kraus_map(rng, n)
        s = to_superoperator(kmap)
        for i in range(n):
            for j in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j] = 1.0
                direct = sum(k @ x @ k.conj().T for k in kmap.operators)
                np.testing.assert_allclose(unvec(s.matrix @ vec(x)), direct,
                                           atol=1e-12)

    def test_left_right_superoperator(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = to_superoperator(LeftRightMap([a], [b]))
        x = rng.standard_normal((2, 2))
        np.testing.assert_allclose(unvec(s.matrix @ vec(x)), a @ x @ b,
                                   atol=1e-12)

    def test_choi_reshuffle_is_an_involution(self, rng):
        kmap = random_kraus_map(rng, 2)
        s = to_superoperator(kmap)
        choi = choi_from_superoperator(s)
        np.testing.assert_allclose(choi.matrix, choi_from_kraus(kmap).matrix,
                                   atol=1e-12)
        # Kraus recovery from the Choi spectrum reproduces the action.
        recovered = kraus_from_choi(choi)
        x = random_density(rng, 2)
        before = sum(k @ x @ k.conj().T for k in kmap.operators)
        after = sum(k @ x @ k.conj().T for k in recovered.operators)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_zero_choi_has_no_kraus_operators(self):
        choi = choi_from_superoperator(SuperOperator(np.zeros((4, 4))))
        with pytest.raises(ValidationError,
                           match="^Choi matrix has no positive spectral weight$"):
            kraus_from_choi(choi)


class TestKernelExtract:
    def test_identity(self):
        np.testing.assert_array_equal(
            superop_kernel_extract(SuperOperator.identity(2)), np.eye(2))

    def test_hadamard_conjugation(self):
        s = to_superoperator(KrausMap([HADAMARD]))
        np.testing.assert_allclose(superop_kernel_extract(s), MIX, atol=1e-15)

    def test_canonical_flip_lift(self):
        s = to_superoperator(canonical_lift(StochasticKernel(FLIP)))
        np.testing.assert_allclose(superop_kernel_extract(s), FLIP, atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_induced_kernel_for_all_map_kinds(self, seed):
        rng = np.random.default_rng(seed)
        kmap = random_kraus_map(rng, 3)
        via_superop = superop_kernel_extract(to_superoperator(kmap))
        via_trace = induced_kernel(kmap).kernel
        assert np.abs(via_superop - via_trace).max() < 1e-12
        lr = LeftRightMap([k for k in kmap.operators],
                          [k.conj().T for k in kmap.operators])
        assert np.abs(superop_kernel_extract(to_superoperator(lr))
                      - induced_kernel(lr).kernel).max() < 1e-12


class TestQDivisibility:
    def test_unitary_pair_divides_with_unitary_witness(self):
        had = to_superoperator(KrausMap([HADAMARD]))
        result = q_divisibility_check(SuperOperator.identity(2), had)
        assert result.verdict == "divisible"
        np.testing.assert_allclose(result.witness.matrix, had.matrix,
                                   atol=1e-12)
        assert result.cptp_report.passed

    def test_rank_obstruction(self):
        dephasing = SuperOperator(dephasing_projector(2))
        had = to_superoperator(KrausMap([HADAMARD]))
        result = q_divisibility_check(had, dephasing)
        assert result.verdict == "indivisible"
        assert "rank" in result.reason

    def test_dephasing_through_itself(self):
        dephasing = SuperOperator(dephasing_projector(2))
        result = q_divisibility_check(dephasing, dephasing)
        assert result.verdict == "divisible"
        np.testing.assert_allclose(result.witness.matrix,
                                   dephasing_projector(2), atol=1e-12)

    def test_invertible_non_cptp_factor_is_indivisible(self):
        # Hadamard conjugation through the bit-flip channel: the unique
        # factor exists linearly but is not completely positive.
        had = to_superoperator(KrausMap([HADAMARD]))
        bitflip = to_superoperator(KrausMap(BITFLIP_OPS))
        result = q_divisibility_check(had, bitflip)
        assert result.verdict == "indivisible"
        assert result.cptp_report is not None
        assert not result.cptp_report.completely_positive

    def test_singular_inconsistent_pair_is_indivisible(self):
        dephasing = SuperOperator(dephasing_projector(2))
        trace_killer = SuperOperator(np.diag([1.0, 0.0, 0.0, 1.0]) * 0)
        result = q_divisibility_check(dephasing, trace_killer)
        assert result.verdict == "indivisible"

    def test_singular_non_cptp_factor_is_inconclusive(self):
        # Later map reweights the populations of the dephased state in a
        # trace-breaking way on the range, so the candidate is not CPTP but
        # a completion off the range is not searched.
        dephasing = dephasing_projector(2)
        later = SuperOperator(np.diag([1.5, 0.0, 0.0, 0.5]) @ dephasing)
        result = q_divisibility_check(later, SuperOperator(dephasing))
        assert result.verdict == "inconclusive"
        assert result.cptp_report is not None

    @pytest.mark.parametrize("seed", range(20))
    def test_unitary_products_divide(self, seed):
        rng = np.random.default_rng(seed)
        s0 = to_superoperator(KrausMap([random_unitary(rng, 2)]))
        s1 = to_superoperator(KrausMap([random_unitary(rng, 2)]))
        composed = SuperOperator(s1.matrix @ s0.matrix)
        result = q_divisibility_check(composed, s0)
        assert result.verdict == "divisible"
        assert np.abs(result.witness.matrix - s1.matrix).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            q_divisibility_check(SuperOperator.identity(2),
                                 SuperOperator.identity(3))

    def test_asymmetric_choi_is_not_cptp_rather_than_an_error(self):
        # rho -> K rho does not preserve Hermiticity: its Choi matrix is far
        # from Hermitian, so the unique factor is not CPTP.
        k = np.array([[1.0, 0.5], [0.0, 1.0]])
        later = SuperOperator(np.kron(np.eye(2), k))
        result = q_divisibility_check(later, SuperOperator.identity(2))
        assert result.verdict == "indivisible"
        assert result.cptp_report is None

    def test_choi_asymmetry_within_tolerance_is_symmetrized(self):
        had = to_superoperator(KrausMap([HADAMARD])).matrix
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 3], skew[3, 0] = 4e-10, -4e-10  # Choi asymmetry 8e-10 > TOL_HERM
        later = SuperOperator(had + _reshuffle(skew, 2))
        result = q_divisibility_check(later, SuperOperator.identity(2), 1e-9)
        assert result.verdict == "divisible"
        choi = _reshuffle(result.witness.matrix, 2)
        np.testing.assert_array_equal(choi, choi.conj().T)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("index, n", [(-1, 2), (2, 2), (0, 0)])
    def test_basis_projector_index_out_of_range(self, index, n):
        with pytest.raises(ValueError,
                           match=rf"^basis index {index} out of range for dimension {n}$"):
            DensityOperator.basis_projector(index, n)


# --- Reference loops for the array paths --------------------------------------
#
# Each array expression in ``lifts`` is compared with the plain loop it
# replaced. The sums run in another order, so results agree to a tolerance
# fixed from the dtype before the comparison: 1e2 * eps * N^2 * r times the
# largest product of two input entries.

EPS = np.finfo(complex).eps
DIMS = (1, 2, 3, 5)
RANKS = ("1", "N", "N^2+1")
PAIRS = [(n, rank) for n in DIMS for rank in RANKS]


def _rank(n, rank):
    return {"1": 1, "N": n, "N^2+1": n * n + 1}[rank]


def _random_ops(rng, r, n):
    return rng.standard_normal((r, n, n)) + 1j * rng.standard_normal((r, n, n))


def _random_pairs(n, rank, kind):
    """(map, left operators, right operators, tolerance) for ``rho -> sum A rho B``."""
    rng = np.random.default_rng([n, _rank(n, rank), kind == "kraus"])
    left = _random_ops(rng, _rank(n, rank), n)
    if kind == "kraus":
        right = left.conj().transpose(0, 2, 1)
        map_ = KrausMap(left)
    else:
        right = _random_ops(rng, len(left), n)
        map_ = LeftRightMap(left, right)
    tol = 1e2 * EPS * n ** 2 * len(left) * np.abs(left).max() * np.abs(right).max()
    return map_, list(left), list(right), tol


def _random_superoperator(n):
    rng = np.random.default_rng([n, 7])
    s = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return SuperOperator(s), 1e2 * EPS * n ** 2 * np.abs(s).max()


def _loop_kernel(apply, n):
    kernel = np.empty((n, n))
    for i in range(n):
        proj = np.zeros((n, n), dtype=complex)
        proj[i, i] = 1.0
        kernel[:, i] = np.real(np.diag(apply(proj)))
    return kernel


def _loop_map(map_, left, right):
    if isinstance(map_, SuperOperator):
        return lambda x: unvec(map_.matrix @ vec(x))
    return lambda x: sum(a @ x @ b for a, b in zip(left, right))


def _maps(n, rank):
    for kind in ("kraus", "left-right"):
        yield _random_pairs(n, rank, kind)
    s, tol = _random_superoperator(n)
    yield s, None, None, tol


class TestArrayPathsAgainstLoops:
    @pytest.mark.parametrize("kind", ["kraus", "left-right"])
    @pytest.mark.parametrize("n, rank", PAIRS)
    def test_superoperator_is_the_kron_sum(self, n, rank, kind):
        map_, left, right, tol = _random_pairs(n, rank, kind)
        expected = np.zeros((n * n, n * n), dtype=complex)
        for a, b in zip(left, right):
            expected += np.kron(b.T, a)
        assert np.abs(to_superoperator(map_).matrix - expected).max() <= tol

    @pytest.mark.parametrize("n, rank", PAIRS)
    def test_choi_is_the_outer_product_sum(self, n, rank):
        kmap, left, _, tol = _random_pairs(n, rank, "kraus")
        expected = np.zeros((n * n, n * n), dtype=complex)
        for k in left:
            expected += np.outer(vec(k), vec(k).conj())
        assert np.abs(choi_from_kraus(kmap).matrix - expected).max() <= tol

    @pytest.mark.parametrize("n, rank", PAIRS)
    def test_induced_kernel_is_the_probed_diagonal(self, n, rank):
        for map_, left, right, tol in _maps(n, rank):
            expected = _loop_kernel(_loop_map(map_, left, right), n)
            assert np.abs(induced_kernel(map_).kernel - expected).max() <= tol

    @pytest.mark.parametrize("n, rank", PAIRS)
    def test_compatibility_residuals_are_the_probed_ones(self, n, rank):
        rng = np.random.default_rng([n, 11])
        gamma = random_stochastic(rng, n)
        probes = [ProbabilityVector.basis(0, n), random_probability_vector(rng, n),
                  random_probability_vector(rng, n)]
        for map_, left, right, tol in _maps(n, rank):
            apply = _loop_map(map_, left, right)
            expected = [np.abs(np.real(np.diag(apply(np.diag(p.entries.astype(complex)))))
                               - gamma.matrix @ p.entries).max() for p in probes]
            report = compatibility_check(map_, gamma, probes=probes)
            np.testing.assert_allclose(report.residuals, expected, rtol=0, atol=tol)
            basis = compatibility_check(map_, gamma)
            expected_basis = np.abs(_loop_kernel(apply, n) - gamma.matrix).max(axis=0)
            np.testing.assert_allclose(basis.residuals, expected_basis, rtol=0, atol=tol)

    @pytest.mark.parametrize("n", DIMS)
    def test_kernel_extract_is_the_projector_product(self, n):
        s, tol = _random_superoperator(n)
        d = diagonal_injection(n)
        expected = np.real(d.T @ dephasing_projector(n) @ s.matrix @ d)
        assert np.abs(superop_kernel_extract(s) - expected).max() <= tol
