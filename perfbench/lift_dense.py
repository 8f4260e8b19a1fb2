"""lift-dense: one N=16 kernel taken through the whole lift pipeline per op.

Nearly all the time goes to the N^4-N^6 dense paths in ``lifts``
(superoperator and Choi construction, the CPTP check, basis probing);
``simplex`` and ``dynamics`` are never called.
"""

from __future__ import annotations

import numpy as np

import stoqlift as sq

import inputs
from ops import Op, close, first_failure

N = 16
#: Distinct inputs generated per run; the ops cycle over them.
POOL = 8


def canonical_superop(gamma):
    """Superoperator of the canonical lift: gamma on the diagonal-to-diagonal block."""
    n = gamma.shape[0]
    s = np.zeros((n * n, n * n), dtype=complex)
    idx = np.arange(n) * (n + 1)
    s[np.ix_(idx, idx)] = gamma
    return s


def _op(gamma, u, e10, e20):
    s_expected = canonical_superop(gamma)
    rank = int(np.count_nonzero(np.sqrt(gamma) >= 1e-14))

    def run():
        kernel = sq.StochasticKernel(gamma)
        kmap = sq.canonical_lift(kernel)
        column = sq.barandes_column_lift(u)
        s = sq.to_superoperator(kmap)
        return (kmap, column, s, sq.check_cptp(kmap), sq.check_cptp(s),
                sq.compatibility_check(kmap, kernel), sq.induced_kernel(kmap),
                sq.dictionary_kernel(kmap), sq.superop_kernel_extract(s),
                sq.q_divisibility_check(sq.SuperOperator(e20),
                                        sq.SuperOperator(e10)))

    def check(out):
        kmap, column, s, cptp_k, cptp_s, compat, ind, dic, ext, qdiv = out
        return first_failure([
            ("lifts.canonical_lift", kmap.rank == rank and kmap.trace_preserving),
            ("lifts.barandes_column_lift",
             column.rank == N and column.trace_preserving),
            ("lifts.to_superoperator", close(s.matrix, s_expected, 1e-12)),
            ("lifts.check_cptp", cptp_k.passed and cptp_s.passed),
            ("lifts.compatibility_check", compat.passed),
            ("lifts.induced_kernel", close(ind.kernel, gamma, 1e-12)),
            ("lifts.dictionary_kernel", close(dic.matrix, gamma, 1e-12)),
            ("lifts.superop_kernel_extract", close(ext, gamma, 1e-12)),
            ("lifts.q_div.wrong", qdiv.verdict == "divisible"
             and close(qdiv.witness.matrix, s_expected, 1e-8)),
        ])

    return Op("lift", run, check, label="divisible")


def build(ctx):
    """Ops over POOL seeded inputs; the earlier map ``e10`` mixes a random
    unitary channel with full depolarization (condition number ~2), and
    ``e20`` is the canonical lift composed after it, divisible by construction."""
    rng, digest = ctx.rng, ctx.digest
    ops = []
    for _ in range(POOL):
        gamma = digest.add(inputs.stochastic(rng, N))
        u = digest.add(inputs.unitary(rng, N))
        e10 = 0.5 * inputs.superop([u]) + 0.5 * inputs.depolarizing(N, 0.0)
        e20 = canonical_superop(gamma) @ e10
        ops.append(_op(gamma, u, e10, e20))
    return ops, ops[:1]
