"""Stack and index-lookup paths against the loops they replaced.

Each function below that reads a Kraus set, a generator or a joint state
through one array expression is compared with the loop over operator tuples,
0/1 projectors or dense inputs that it replaced; the loops are kept here as
the reference. Where both compute the same products in the same order the
results must be bit-identical; where the sums run in another order they
agree to a tolerance fixed from the dtype and the sizes before comparing.
"""

import itertools
import math

import numpy as np
import pytest

from stoqlift import (DensityOperator, DimensionMismatchError, GkslGenerator,
                      KernelFamily, KrausMap, ProbabilityVector, RateMatrix,
                      StochasticKernel, SuperOperator, apply_kraus,
                      c_divisibility_check, canonical_lift, check_ck_family,
                      compatibility_check, compose, dictionary_kernel,
                      environment_division_scenario, measurement_operators,
                      modified_readout_kernel, one_step_indistinguishable,
                      partial_trace, povm_from_channel, propagate,
                      q_divisibility_check, readout, short_time_kraus,
                      theorem1_check, three_time_freedom, to_superoperator,
                      two_step_kernel, unvec, vec)
from stoqlift._arrays import KRAUS_DROP_NORM, MatrixValue

from random_ops import (random_density, random_kraus_map,
                        random_probability_vector, random_stochastic)

EPS = np.finfo(float).eps
DIMS = (1, 2, 3, 5)
#: (N, Kraus rank) for ranks 1, N and N^2 + 1.
CHANNELS = [(n, r) for n in DIMS for r in sorted({1, n, n * n + 1})]


def _channel(n, rank, salt):
    return random_kraus_map(np.random.default_rng([n, rank, salt]), n, rank)


def _projector(j, n):
    proj = np.zeros((n, n), dtype=complex)
    proj[j, j] = 1.0
    return proj


# --- memory ---------------------------------------------------------------------

class TestMemoryStacksAgainstLoops:
    @pytest.mark.parametrize("n, rank", CHANNELS)
    def test_povm_is_the_projector_product_sum(self, n, rank):
        channel = _channel(n, rank, 1)
        effects = povm_from_channel(channel).effects
        assert len(effects) == n
        for j in range(n):
            expected = sum(op.conj().T @ _projector(j, n) @ op
                           for op in channel.operators)
            assert np.abs(effects[j] - expected).max() <= 1e2 * EPS * (rank + 1)

    @pytest.mark.parametrize("n, rank", CHANNELS)
    def test_measurement_operators_are_the_projector_products(self, n, rank):
        channel = _channel(n, rank, 2)
        ops = measurement_operators(channel)
        assert isinstance(ops, tuple) and len(ops) == n
        for j in range(n):
            assert isinstance(ops[j], tuple) and len(ops[j]) == rank
            for got, op in zip(ops[j], channel.operators):
                assert np.array_equal(got, _projector(j, n) @ op)

    @pytest.mark.parametrize("n, rank", CHANNELS)
    def test_readout_composition_is_the_pairwise_list(self, n, rank):
        readout_channel = _channel(n, rank, 3)
        evolution = _channel(n, n, 4)
        listed = KrausMap([lam @ k for lam in readout_channel.operators
                           for k in evolution.operators])
        expected = dictionary_kernel(listed, tol_tp=1.0)
        got = modified_readout_kernel(readout_channel, evolution)
        assert np.array_equal(got.matrix, expected.matrix)

    @pytest.mark.parametrize("n, rank", CHANNELS)
    def test_outcome_probabilities_are_the_trace_loop(self, n, rank):
        povm = povm_from_channel(_channel(n, rank, 5))
        rho = random_density(np.random.default_rng([n, rank, 6]), n)
        expected = [float(np.real(np.trace(e @ rho))) for e in povm.effects]
        np.testing.assert_allclose(povm.outcome_probabilities(rho), expected,
                                   rtol=0, atol=1e2 * EPS * n)

    @pytest.mark.parametrize("n, rank", CHANNELS)
    def test_effects_are_read_only_views_of_one_stack(self, n, rank):
        povm = povm_from_channel(_channel(n, rank, 7))
        first, again = povm.effects, povm.effects
        for a, b in zip(first, again):
            assert not a.flags.writeable
            assert np.shares_memory(a, b)
        assert povm.n == n


# --- dynamics -------------------------------------------------------------------

def _loop_short_time_kraus(h, jumps, dt):
    """short_time_kraus as it was written before it reused the generator's
    drift: the dissipative part summed again over the jump operators."""
    n = h.shape[0]
    drift = 1j * h
    for op in jumps:
        drift = drift + 0.5 * (op.conj().T @ op)
    return [np.eye(n) - dt * drift] + [np.sqrt(dt) * op for op in jumps]


@pytest.mark.parametrize("dt", [1e-3, 0.5])
@pytest.mark.parametrize("n, rank", CHANNELS)
def test_short_time_kraus_is_the_drift_loop(n, rank, dt):
    # Kraus rank = jumps + 1, so rank - 1 jumps give ranks 1, N and N^2 + 1.
    rng = np.random.default_rng([n, rank, 8])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    jumps = list(rng.standard_normal((rank - 1, n, n))
                 + 1j * rng.standard_normal((rank - 1, n, n)))
    scale = max(1.0, np.abs(h).max(), max((np.abs(j).max() for j in jumps), default=0.0))
    tol = 1e2 * EPS * (1.0 + dt * n * rank * scale ** 2)
    got = short_time_kraus(GkslGenerator(h, jumps), dt).operators
    expected = _loop_short_time_kraus(h, jumps, dt)
    assert len(got) == len(expected) == rank
    for g, e in zip(got, expected):
        assert np.abs(g - e).max() <= tol


# --- lifts ----------------------------------------------------------------------

def _loop_canonical_lift(m):
    """One operator sqrt(m[j, i]) |j><i| per entry, written entry by entry."""
    n = m.shape[0]
    ops = []
    for i in range(n):
        for j in range(n):
            weight = np.sqrt(m[j, i])
            if weight >= KRAUS_DROP_NORM:
                op = np.zeros((n, n), dtype=complex)
                op[j, i] = weight
                ops.append(op)
    return ops


def _kernels(n):
    rng = np.random.default_rng([n, 9])
    tiny = (1.0 - 1e-30 * n) * np.eye(n) + 1e-30  # sqrt(1e-30) is dropped
    sparse = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    return [np.eye(n)[rng.permutation(n)], random_stochastic(rng, n).matrix,
            sparse / sparse.sum(axis=0), tiny]


@pytest.mark.parametrize("n", DIMS)
def test_canonical_lift_is_the_per_entry_lift(n):
    for m in _kernels(n):
        got = canonical_lift(StochasticKernel(m)).operators
        expected = _loop_canonical_lift(StochasticKernel(m).matrix)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def test_readout_of_a_one_by_one_state_has_no_off_diagonal_mass():
    p = readout(DensityOperator([[1.0]]), require_diagonal=True, tol=0.0)
    assert p.entries.tolist() == [1.0]


# --- division -------------------------------------------------------------------

def _loop_scenario(p_env, interaction, post_system, n_sys):
    """The scenario's record-form numbers from the dense product of the
    interaction with one m^2 x n_sys input matrix, state by state."""
    n_env = p_env.n
    inputs = np.column_stack([
        vec(np.kron(_projector(i, n_sys), np.diag(p_env.entries)))
        for i in range(n_sys)])
    joints = [unvec(col) for col in (interaction.matrix @ inputs).T]
    worst_block = worst_reduced = 0.0
    kernel_t1 = np.zeros((n_sys, n_sys))
    kernel_t2 = np.zeros((n_sys, n_sys))
    for i, joint in enumerate(joints):
        blocks = joint.reshape(n_sys, n_env, n_sys, n_env)
        reduced = partial_trace(joint, n_sys, n_env, keep="sys")
        for x, y in itertools.permutations(range(n_sys), 2):
            worst_block = max(worst_block, np.abs(blocks[x, :, y, :]).max())
            worst_reduced = max(worst_reduced, abs(reduced[x, y]))
        kernel_t1[:, i] = np.real(np.diag(reduced))
        kernel_t2[:, i] = np.real(np.diag(unvec(post_system.matrix @ vec(reduced))))
    return worst_block, worst_reduced, kernel_t1, kernel_t2


@pytest.mark.parametrize("n_sys", DIMS)
@pytest.mark.parametrize("rank", ["1", "N", "N^2+1"])
def test_environment_scenario_is_the_dense_input_product(n_sys, rank):
    n_env = 2
    m = n_sys * n_env
    r = {"1": 1, "N": m, "N^2+1": m * m + 1}[rank]
    rng = np.random.default_rng([n_sys, r, 10])
    p_env = random_probability_vector(rng, n_env)
    interaction = to_superoperator(random_kraus_map(rng, m, r))
    post_system = to_superoperator(random_kraus_map(rng, n_sys, 2))
    post_env = to_superoperator(random_kraus_map(rng, n_env, 2))
    report = environment_division_scenario(p_env, interaction, post_system, post_env)
    block, reduced, k1, k2 = _loop_scenario(p_env, interaction, post_system, n_sys)
    tol = 1e2 * EPS * m * m
    assert abs(report.max_block_offdiagonal - block) <= tol
    assert abs(report.max_reduced_offdiagonal - reduced) <= tol
    assert np.abs(report.kernel_t1 - k1).max() <= tol
    assert np.abs(report.kernel_t2 - k2).max() <= tol


# --- kernels --------------------------------------------------------------------

@pytest.mark.parametrize("size", [3, 4, 5])
def test_check_ck_family_evaluates_each_grid_pair_once(size):
    grid = [0.0, 0.3, 0.7, 1.2, 2.0][:size]
    base = KernelFamily.from_rate_matrix(RateMatrix([[-1.0, 2.0], [1.0, -2.0]]), grid)
    calls = []
    family = KernelFamily(grid, lambda t, s: calls.append((t, s)) or base.kernel(t, s))
    assert calls == [(t, t) for t in grid]  # the coincidence table, at construction
    calls.clear()
    report = check_ck_family(family)
    assert len(calls) == len(set(calls)) == math.comb(size, 2)
    # The table gives the same residuals as reading each triple directly.
    expected = []
    for s, u, t in itertools.combinations(grid, 3):
        chained = base.kernel(t, u).matrix @ base.kernel(u, s).matrix
        expected.append((s, u, t, float(np.abs(base.kernel(t, s).matrix - chained).max())))
    assert [(r.s, r.u, r.t, r.residual) for r in report.triples] == expected


# --- one matrix-value core -------------------------------------------------------

@pytest.mark.parametrize("value, n, text", [
    (DensityOperator(np.eye(3) / 3), 3, "DensityOperator(n=3)"),
    (StochasticKernel(np.eye(2), 0.0, 1.0), 2,
     "StochasticKernel([[1.0, 0.0], [0.0, 1.0]], from_time=0.0, to_time=1.0)"),
    (RateMatrix([[-1.0, 2.0], [1.0, -2.0]]), 2, "RateMatrix([[-1.0, 2.0], [1.0, -2.0]])"),
    (SuperOperator(np.eye(9)), 3, "SuperOperator(n=3)"),
])
def test_matrix_values_share_one_read_only_matrix(value, n, text):
    assert type(value).matrix is MatrixValue.matrix
    assert not value.matrix.flags.writeable and value.matrix is value.matrix
    assert value.n == n and repr(value) == text


# --- one operand-dimension check ------------------------------------------------

def _kernel(n):
    return StochasticKernel(np.eye(n))


def _kraus(n):
    return KrausMap([np.eye(n)])


def _superop(n):
    return SuperOperator.identity(n)


#: Each two-operand function given a 2- and a 3-dimensional operand, and the
#: message it must raise.
MISMATCHES = {
    "compose": (lambda: compose(_kernel(2), _kernel(3)),
                "later kernel dimension 2 does not match earlier kernel dimension 3"),
    "c_divisibility_check": (lambda: c_divisibility_check(_kernel(2), _kernel(3)),
                             "gamma_20 dimension 2 does not match gamma_10 dimension 3"),
    "q_divisibility_check": (lambda: q_divisibility_check(_superop(2), _superop(3)),
                             "e_20 dimension 2 does not match e_10 dimension 3"),
    "apply_kraus": (lambda: apply_kraus(_kraus(2), DensityOperator(np.eye(3) / 3)),
                    "map dimension 2 does not match state dimension 3"),
    "compatibility_check map": (lambda: compatibility_check(_kraus(2), _kernel(3)),
                                "map dimension 2 does not match kernel dimension 3"),
    "compatibility_check probe": (
        lambda: compatibility_check(_kraus(2), _kernel(2),
                                    probes=[ProbabilityVector(np.ones(3) / 3)]),
        "probe dimension 3 does not match kernel dimension 2"),
    "propagate": (lambda: propagate(GkslGenerator.zero(2),
                                    DensityOperator(np.eye(3) / 3), 1.0),
                  "generator dimension 2 does not match state dimension 3"),
    "modified_readout_kernel": (
        lambda: modified_readout_kernel(_kraus(2), _kraus(3)),
        "readout channel dimension 2 does not match evolution dimension 3"),
    "three_time_freedom": (lambda: three_time_freedom(_kernel(2), _kernel(3)),
                           "gamma_10 dimension 2 does not match gamma_20 dimension 3"),
    "one_step_indistinguishable": (
        lambda: one_step_indistinguishable(np.eye(2), np.eye(3)),
        "u_x dimension 2 does not match u_y dimension 3"),
    "two_step_kernel": (lambda: two_step_kernel(np.eye(2), np.eye(3)),
                        "v dimension 2 does not match u dimension 3"),
    # theorem1_check leaves the check to q_divisibility_check(e_20, e_10).
    "theorem1_check": (lambda: theorem1_check(_superop(2), _superop(3)),
                       "e_20 dimension 3 does not match e_10 dimension 2"),
}


@pytest.mark.parametrize("name", list(MISMATCHES))
def test_operand_dimension_mismatch_names_both_sizes(name):
    call, message = MISMATCHES[name]
    with pytest.raises(DimensionMismatchError) as info:
        call()
    assert str(info.value) == message
