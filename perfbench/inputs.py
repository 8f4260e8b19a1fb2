"""Seeded input generators, built on numpy alone.

Every workload draws its inputs here from ``numpy.random.default_rng(seed)``
and never from ``stoqlift.random_ops``, so no change to the library can alter
what the benchmark feeds it. The constructions fix the answer each input has
(divisible or not, passes or fails), which the workloads use as the oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


class Digest:
    """Running SHA-256 over every generated array, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(str((a.dtype.str, a.shape)).encode())
            self._h.update(a.tobytes())
        return arrays[0] if len(arrays) == 1 else arrays

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def stochastic(rng, n, alpha=1.0):
    """Column-stochastic matrix with Dirichlet(alpha) columns."""
    return rng.dirichlet(np.full(n, alpha), size=n).T


def lazy_stochastic(rng, n, weight):
    """``(1 - weight) I + weight R``: stochastic, non-monomial, well conditioned."""
    return (1.0 - weight) * np.eye(n) + weight * stochastic(rng, n)


def unitary(rng, n):
    """Haar-random unitary (QR of a Ginibre matrix with the phases fixed)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def hermitian(rng, n, norm=1.0):
    """Random Hermitian matrix with spectral norm ``norm``."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    return h * (norm / np.abs(np.linalg.eigvalsh(h)).max())


def rate_matrix(rng, n, max_exit=0.8):
    """Rate matrix whose columns leave each state at total rate <= max_exit."""
    r = rng.uniform(0.1, 1.0, size=(n, n)) * (max_exit / (n - 1))
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def channel_kraus(rng, n, rank=2):
    """Kraus operators of a random channel: Ginibre operators made complete."""
    g = rng.normal(size=(rank, n, n)) + 1j * rng.normal(size=(rank, n, n))
    total = np.einsum("bji,bjk->ik", g.conj(), g)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return g @ inv_sqrt


def superop(kraus_ops):
    """Column-stacking Liouville matrix ``sum_b conj(K_b) kron K_b``.

    Summed term by term, as users and the library build it; an einsum gives
    other round-off, and with it ``q_divisibility_check`` returns wrong
    verdicts where on these inputs it raises.
    """
    return sum(np.kron(k.conj(), k) for k in kraus_ops)


def depolarizing(n, q):
    """Superoperator of ``rho -> q rho + (1 - q) tr(rho) I / n`` (cond ~ 1/q)."""
    v = np.eye(n).reshape(-1, order="F")
    return q * np.eye(n * n) + (1.0 - q) / n * np.outer(v, v)


def kernel_extract(s):
    """Diagonal-to-diagonal block of a superoperator: its induced kernel."""
    n = round(s.shape[0] ** 0.5)
    idx = np.arange(n) * (n + 1)
    return np.real(s[np.ix_(idx, idx)])


def kernel_with_cond(rng, n, target):
    """Non-monomial stochastic kernel with condition number near ``target``.

    ``P B(d) C`` with P a permutation, C a well-conditioned stochastic matrix
    and B(d) the identity with its second column moved to
    ``(1 - d) e0 + d e1``: singular at d = 0, so cond grows like 1/d.
    Returns the kernel and its condition number.
    """
    perm = np.eye(n)[rng.permutation(n)]
    c = lazy_stochastic(rng, n, 0.2)

    def build(d):
        b = np.eye(n)
        b[:, 1] = 0.0
        b[0, 1], b[1, 1] = 1.0 - d, d
        return perm @ b @ c

    d, cond = 1.0, np.linalg.cond(build(1.0))
    for _ in range(3):
        d = min(1.0, d * cond / target)
        cond = np.linalg.cond(build(d))
    return build(d), cond


def singular_kernel(rng, n):
    """Stochastic kernel whose first two columns are identical (rank n - 1)."""
    g = lazy_stochastic(rng, n, 0.3)
    g[:, 1] = g[:, 0]
    return g


def complex_from_json(obj):
    raw = np.array(obj["rows"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def superop_from_json(obj):
    """Superoperator matrix from a complex-matrix or Kraus JSON object."""
    if "ops" in obj:
        return superop([complex_from_json(op) for op in obj["ops"]])
    return complex_from_json(obj)


def load_scenario(path):
    """The environment-division scenario file as raw arrays, parsed here
    rather than by ``stoqlift.serialization`` for the same reason."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return (np.array(obj["p_env"]["rows"], dtype=float)[:, 0],
            superop_from_json(obj["interaction"]),
            superop_from_json(obj["post_sys"]),
            superop_from_json(obj["post_env"]))


def record_scenario(rng, n_sys, n_env, record=True):
    """Interaction-then-decouple scenario on a system and an environment.

    With ``record`` the interaction moves the system by a well-conditioned
    kernel gamma and writes a classical record into the environment (Kraus
    operators ``sqrt(gamma[j, i]) |j><i| kron V_ij``); the system kernel then
    divides at the division time, with the post-system channel's kernel as
    the witness. Without it a unitary on the system creates coherence and the
    record form fails. Returns (p_env, interaction, post_sys, post_env, gamma).
    """
    p_env = rng.dirichlet(np.ones(n_env))
    gamma = lazy_stochastic(rng, n_sys, rng.uniform(0.2, 0.5))
    if record:
        ops = []
        for i in range(n_sys):
            for j in range(n_sys):
                jump = np.zeros((n_sys, n_sys))
                jump[j, i] = np.sqrt(gamma[j, i])
                ops.append(np.kron(jump, unitary(rng, n_env)))
    else:
        ops = [np.kron(unitary(rng, n_sys), np.eye(n_env))]
    return (p_env, superop(ops), superop(channel_kraus(rng, n_sys)),
            superop(channel_kraus(rng, n_env)), gamma)


def five_time_grid(rng):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.15, 0.4, size=4))])
