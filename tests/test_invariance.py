"""Relations that leave a divisibility verdict unchanged (metamorphic tests).

Relabelling the basis by a permutation P moves every entry of both maps,
exactly, so a pair and its relabelled pair must read alike: ``P G P^T`` for
kernels, ``(P kron P) E (P kron P)^T`` for superoperators (column-stacking).
Conjugating both channels by a diagonal unitary D, whose superoperator is
``W = conj(D) kron D``, maps a factor K to ``W K W^dagger``, CPTP when K is,
so the quantum verdict must not change either. Each relation runs on 200
seeded pairs at N = 2-5, and each test asserts that every verdict class
occurs, so that the sample cannot drift to one answer.
"""

from collections import Counter

import numpy as np
import pytest

from random_ops import random_cptp_superoperator, random_stochastic
from stoqlift import (StochasticKernel, SuperOperator, c_divisibility_check,
                      q_divisibility_check)
from stoqlift.lifts import dephasing_projector

PAIRS = 200


def _permutation(rng, n):
    return np.eye(n)[rng.permutation(n)]


def _transpose_map(n):
    """Superoperator of rho -> rho^T: positive but not completely positive."""
    t = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            t[b + n * a, a + n * b] = 1.0
    return t


def _classical_pairs(rng):
    """Half divisible by construction, X @ G10; a third of G10 singular (two
    equal columns)."""
    for i in range(PAIRS):
        n = int(rng.integers(2, 6))
        g10 = random_stochastic(rng, n).matrix.copy()
        if i % 3 == 0:
            g10[:, -1] = g10[:, 0]
        g20 = random_stochastic(rng, n).matrix
        yield (g20 @ g10 if i % 2 == 0 else g20), g10


def _quantum_pairs(rng):
    """``(1 - p) K @ E10 + p M``: the later map mixed toward the transpose map
    or a unitary channel M by p in [1e-14, 1e-1]. E10 is a random channel,
    dephased before it in a quarter of the pairs (the range route, where a
    CPTP factor off the range is not searched: inconclusive) and after it in
    another quarter."""
    for i in range(PAIRS):
        n = int(rng.integers(2, 6))
        e10 = random_cptp_superoperator(rng, n).matrix
        if i % 4 == 0:
            e10 = e10 @ dephasing_projector(n)
        elif i % 4 == 1:
            e10 = dephasing_projector(n) @ e10
        toward = (_transpose_map(n) if i % 2 else
                  random_cptp_superoperator(rng, n, n_operators=1).matrix)
        p = 10 ** rng.uniform(-14, -1)
        k = random_cptp_superoperator(rng, n).matrix
        yield (1 - p) * k @ e10 + p * toward, e10


def _q_verdict(e20, e10):
    return q_divisibility_check(SuperOperator(e20), SuperOperator(e10)).verdict


def test_relabelling_keeps_the_classical_verdict():
    rng = np.random.default_rng(16)
    seen = Counter()
    for g20, g10 in _classical_pairs(rng):
        p = _permutation(rng, len(g10))
        verdict = c_divisibility_check(StochasticKernel(g20), StochasticKernel(g10)).divisible
        relabelled = c_divisibility_check(StochasticKernel(p @ g20 @ p.T),
                                          StochasticKernel(p @ g10 @ p.T)).divisible
        assert relabelled == verdict
        seen[verdict] += 1
    assert set(seen) == {True, False}, seen


@pytest.mark.parametrize("relation", ["relabelling", "diagonal phase"])
def test_relation_keeps_the_quantum_verdict(relation):
    rng = np.random.default_rng(17)
    seen = Counter()
    for e20, e10 in _quantum_pairs(rng):
        n = round(np.sqrt(len(e10)))
        if relation == "relabelling":
            p = _permutation(rng, n)
            w = np.kron(p, p)
            moved = [w @ e @ w.T for e in (e20, e10)]
        else:
            d = np.exp(2j * np.pi * rng.random(n))
            w = np.kron(d.conj(), d)  # the diagonal of W
            moved = [w[:, None] * e * w.conj() for e in (e20, e10)]
        verdict = _q_verdict(e20, e10)
        assert _q_verdict(*moved) == verdict
        seen[verdict] += 1
    assert set(seen) == {"divisible", "indivisible", "inconclusive"}, seen
