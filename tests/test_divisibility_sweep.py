"""Divisibility verdicts across a condition-number sweep.

Pairs are divisible or indivisible by construction, with the condition
number of the earlier leg swept over 1e2-1e14 plus exactly singular. A
classical pair counts as indivisible only when the reference program of
``conftest`` finds no stochastic factor within 10 times the tolerance. No
verdict may be a false positive, and every divisible pair must be found.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stoqlift
from stoqlift import (StochasticKernel, SuperOperator, c_divisibility_check,
                      q_divisibility_check, theorem1_check)
from stoqlift.kernels import TOL_DIV

from conftest import (depolarizing, kernel_of_nullity, lazy_kernel, outcome, q_bits,
                      random_channel, reference_feasible, svd_rule_q_divisibility)

DECADES = list(range(2, 15)) + [None]  # None: exactly singular


def kernel_with_cond(rng, n, decade):
    """Non-monomial stochastic kernel with cond near 10**decade: ``P B(d) C``
    with C lazy and B(d) the identity whose second column is moved to
    ``(1 - d) e0 + d e1``, singular at d = 0."""
    if decade is None:
        return kernel_of_nullity(rng, n, 1)
    perm = np.eye(n)[rng.permutation(n)]
    c = lazy_kernel(rng, n, 0.2)

    def build(d):
        b = np.eye(n)
        b[:, 1] = 0.0
        b[0, 1], b[1, 1] = 1.0 - d, d
        return perm @ b @ c

    d = 1.0
    for _ in range(3):
        d = min(1.0, d * np.linalg.cond(build(d)) / 10.0 ** decade)
    return build(d)


def classical_pair(decade, seed, divisible):
    rng = np.random.default_rng([seed, 0 if decade is None else decade])
    n = 4 + seed % 9
    g10 = kernel_with_cond(rng, n, decade)
    if divisible:
        return rng.dirichlet(np.ones(n), size=n).T @ g10, g10
    return np.eye(n), g10


def quantum_pair(decade, seed, divisible):
    rng = np.random.default_rng([seed, 0 if decade is None else decade])
    d = 2 + seed % 3
    q = 0.0 if decade is None else 10.0 ** -(decade + rng.uniform())
    e10 = depolarizing(d, q)
    e20 = random_channel(rng, d, 1 + seed % 3) @ e10 if divisible else np.eye(d * d)
    return e20, e10


@pytest.mark.parametrize("decade", DECADES)
@pytest.mark.parametrize("seed", range(3))
class TestConditionSweep:
    def test_classical_divisible(self, decade, seed):
        g20, g10 = classical_pair(decade, seed, True)
        result = c_divisibility_check(StochasticKernel(g20), StochasticKernel(g10))
        assert result.divisible
        assert np.abs(result.witness.matrix @ g10 - g20).max() <= 1e-8

    def test_classical_indivisible(self, decade, seed):
        g20, g10 = classical_pair(decade, seed, False)
        assert not reference_feasible(g20, g10, 10 * TOL_DIV)
        result = c_divisibility_check(StochasticKernel(g20), StochasticKernel(g10))
        assert not result.divisible

    def test_quantum(self, decade, seed):
        for divisible in (True, False):
            e20, e10 = quantum_pair(decade, seed, divisible)
            result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10))
            assert (result.verdict == "divisible") == divisible

    def test_theorem1(self, decade, seed):
        for divisible in (True, False):
            e20, e10 = quantum_pair(decade, seed, divisible)
            verdict = theorem1_check(SuperOperator(e10), SuperOperator(e20))
            assert verdict.q_divisible == divisible
            assert verdict.c_divisible == divisible

    @pytest.mark.parametrize("tolerance", [TOL_DIV, 0.0])
    def test_quantum_matches_svd_rule(self, decade, seed, tolerance):
        for divisible in (True, False):
            e20, e10 = map(SuperOperator, quantum_pair(decade, seed, divisible))
            assert (outcome(q_divisibility_check, e20, e10, tolerance)
                    == outcome(svd_rule_q_divisibility, e20, e10, tolerance))

    @pytest.mark.parametrize("tolerance", [TOL_DIV, 0.0])
    def test_theorem1_matches_svd_rule(self, decade, seed, tolerance, monkeypatch):
        def bits(v):
            return (q_bits(v.q_result), v.q_divisible, v.c_divisible,
                    v.theorem_applies, v.all_diagonal_at_t1, v.max_offdiagonal_mass,
                    v.factorization_residual,
                    None if v.c_witness is None else v.c_witness.matrix.tobytes())

        for divisible in (True, False):
            e20, e10 = map(SuperOperator, quantum_pair(decade, seed, divisible))
            ours = outcome(theorem1_check, e10, e20, tolerance, bits=bits)
            monkeypatch.setattr(stoqlift.division, "q_divisibility_check",
                                svd_rule_q_divisibility)
            assert ours == outcome(theorem1_check, e10, e20, tolerance, bits=bits)
            monkeypatch.undo()

    def test_zero_tolerance_gives_no_false_positive(self, decade, seed):
        g20, g10 = classical_pair(decade, seed, False)
        assert not c_divisibility_check(StochasticKernel(g20),
                                        StochasticKernel(g10), 0.0).divisible
        c_divisibility_check(*(StochasticKernel(m) for m in
                               classical_pair(decade, seed, True)), 0.0)
        e20, e10 = quantum_pair(decade, seed, False)
        result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10), 0.0)
        assert result.verdict != "divisible"
        verdict = theorem1_check(SuperOperator(e10), SuperOperator(e20), 0.0)
        assert not verdict.q_divisible and not verdict.c_divisible
        e20, e10 = quantum_pair(decade, seed, True)
        theorem1_check(SuperOperator(e10), SuperOperator(e20), 0.0)


def test_theorem1_with_three_free_directions_leaves_scipy_optimize_unloaded():
    # Identity over depolarizing at N = 4, q = 1e-10: the classical kernels
    # have three free directions, and the norm certificate decides.
    src = str(Path(stoqlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys, numpy as np, stoqlift as sq\n"
        "v = np.eye(4).reshape(-1, order='F')\n"
        "e10 = sq.SuperOperator(1e-10 * np.eye(16) + (1 - 1e-10) / 4 * np.outer(v, v))\n"
        "r = sq.theorem1_check(e10, sq.SuperOperator(np.eye(16)))\n"
        "print(r.q_divisible, r.c_divisible, 'scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "False"]


def test_zero_tolerance_keeps_exactly_invertible_pairs():
    # Every singular value equals the largest, so no direction is free even
    # at tolerance 0, and the exact factors are found.
    flip, mix = np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((2, 2), 0.5)
    result = c_divisibility_check(StochasticKernel(mix), StochasticKernel(flip), 0.0)
    assert result.divisible and result.route == "inverse"
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    had = SuperOperator(np.kron(hadamard.conj(), hadamard))
    assert q_divisibility_check(had, SuperOperator.identity(2), 0.0).verdict == "divisible"
    assert theorem1_check(SuperOperator.identity(2), had, 0.0).theorem_applies
