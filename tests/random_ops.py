"""Seeded random test objects: kernels, states, unitaries, channels.

Everything takes an explicit ``numpy.random.Generator`` so that runs are
reproducible bit for bit from a single seed.
"""

from __future__ import annotations

import numpy as np

from stoqlift.kernels import ProbabilityVector, RateMatrix, StochasticKernel
from stoqlift.lifts import KrausMap, SuperOperator, to_superoperator


def random_probability_vector(rng: np.random.Generator, n: int) -> ProbabilityVector:
    p = rng.random(n) + 1e-12
    return ProbabilityVector(p / p.sum())


def random_stochastic(rng: np.random.Generator, n: int,
                      diagonal_boost: float = 0.0) -> StochasticKernel:
    """Random column-stochastic matrix.

    ``diagonal_boost`` mixes in that much of the identity, which keeps the
    matrix well conditioned (handy when a test needs an invertible kernel).
    """
    m = rng.random((n, n)) + 1e-12
    m /= m.sum(axis=0, keepdims=True)
    if diagonal_boost:
        m = (1.0 - diagonal_boost) * m + diagonal_boost * np.eye(n)
    return StochasticKernel(m)


def random_rate_matrix(rng: np.random.Generator, n: int,
                       scale: float = 1.0) -> RateMatrix:
    """Random rate matrix: uniform off-diagonal rates, columns closed to zero."""
    m = scale * rng.random((n, n))
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    return RateMatrix(m)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitary obtained by orthonormalizing a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # Fix the QR phase ambiguity so the draw is a deterministic function of g.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random full-rank density matrix (Wishart normalized to unit trace)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_kraus_map(rng: np.random.Generator, n: int,
                     n_operators: int | None = None) -> KrausMap:
    """Random trace-preserving Kraus set (Gaussian draws, whitened jointly)."""
    r = n * n if n_operators is None else n_operators
    raw = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
           for _ in range(r)]
    gram = sum(g.conj().T @ g for g in raw)
    eigvals, eigvecs = np.linalg.eigh(gram)
    inv_sqrt = eigvecs @ np.diag(eigvals ** -0.5) @ eigvecs.conj().T
    return KrausMap([g @ inv_sqrt for g in raw])


def random_cptp_superoperator(rng: np.random.Generator, n: int,
                              n_operators: int | None = None) -> SuperOperator:
    return to_superoperator(random_kraus_map(rng, n, n_operators))
