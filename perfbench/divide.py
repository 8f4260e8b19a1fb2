"""divide: one divisibility query per op, drawn from a fixed mix.

``simplex``, ``kernels``, ``division`` and ``memory`` do the work; ``lifts``
is called at small N only. The mix spans condition numbers 1e1-1e14 on
purpose: the ill-conditioned band is where the verdicts are known to go
wrong or raise, and those wrong verdicts are counted in ``ok_frac`` and
the per-layer shares, not filtered out.

The structure of a cycle (kinds, dimensions and condition-number strata) is
the same for every seed; the seed draws the matrices and the position
inside each stratum. Ops run in a seeded shuffled order.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

import stoqlift as sq

import inputs
from ops import BAND_COND, Op, close, first_failure

#: Distinct cycles generated per run, enough that a run rarely repeats one.
CYCLES = 48
#: Classical divisible pairs per decade of cond. With these weights the
#: inverse-route queries are ~58 % of all ops, so p50 falls inside their
#: plateau rather than on the step to the slower quantum checks.
DIV_PER_DECADE = 3
#: Dimension of the LP-route (cond >= 1e12 or singular) classical pairs.
LP_DIM = 12
#: The hand-written simplex does not finish on some LP-route pairs with cond
#: above 1e12 (seconds to forever, against <= 0.15 s for every other op), so
#: an op in the ill-conditioned band is interrupted after this long and
#: counts as a wrong verdict (``kernels.c_div.timeout``).
BAND_OP_LIMIT_S = 0.3
C_DIMS = range(6, 13)
Q_DIMS = (3, 4, 6)
THREE_TIME_DIMS = (4, 5, 6)


def _kernel(m):
    return sq.StochasticKernel(m)


def _superop(m):
    return sq.SuperOperator(m)


def c_div_op(g20, g10, divisible, cond):
    def run():
        return sq.c_divisibility_check(_kernel(g20), _kernel(g10))

    def check(res):
        if res.divisible != divisible:
            return "kernels.c_div.wrong"
        if divisible and not close(res.witness.matrix @ g10, g20, 1e-8):
            return "kernels.c_div.witness"
        return None

    return Op("c_div", run, check, "divisible" if divisible else "indivisible",
              band=cond >= BAND_COND)


def q_div_op(e20, e10, divisible, cond):
    want = "divisible" if divisible else "indivisible"

    def run():
        return sq.q_divisibility_check(_superop(e20), _superop(e10))

    def check(res):
        return None if res.verdict == want else "lifts.q_div.wrong"

    return Op("q_div", run, check, want, band=cond >= BAND_COND)


def theorem1_op(e20, e10, divisible, cond):
    def run():
        return sq.theorem1_check(_superop(e10), _superop(e20))

    def check(v):
        return first_failure([
            ("lifts.q_div.wrong", v.q_divisible == divisible),
            ("kernels.c_div.wrong", v.c_divisible == divisible),
            ("division.theorem1", v.all_diagonal_at_t1
             and v.theorem_applies == divisible),
        ])

    return Op("theorem1", run, check,
              "divisible" if divisible else "indivisible",
              band=cond >= BAND_COND)


def scenario_op(p_env, interaction, post_sys, post_env, gamma, record):
    witness = inputs.kernel_extract(post_sys)

    def run():
        return sq.environment_division_scenario(
            sq.ProbabilityVector(p_env), _superop(interaction),
            _superop(post_sys), _superop(post_env))

    def check(rep):
        if not record:
            return None if (not rep.record_form and rep.c_divisible is None) \
                else "division.record_form"
        checks = [("division.record_form", rep.record_form),
                  ("kernels.c_div.wrong", rep.c_divisible is True)]
        if gamma is not None:
            checks += [
                ("division.kernel_t1", close(rep.kernel_t1, gamma, 1e-10)),
                ("division.kernel_t2",
                 close(rep.kernel_t2, witness @ gamma, 1e-10)),
                ("kernels.c_div.witness",
                 close(rep.witness.matrix, witness, 1e-8)),
            ]
        return first_failure(checks)

    return Op("scenario", run, check, "divisible" if record else "no-record")


def three_time_op(g10, g20):
    n = g10.shape[0]

    def run():
        return sq.three_time_freedom(_kernel(g10), _kernel(g20))

    def check(rep):
        if not (rep.consistent and rep.feasible and rep.strictly_positive):
            return "memory.three_time.wrong"
        p = rep.sample_conditional
        return first_failure([
            ("memory.three_time.dimension", rep.affine_dimension == n * (n - 1) ** 2),
            ("memory.three_time.sample",
             p.min() >= -1e-12 and close(p.sum(axis=0), 1.0, 1e-8)
             and close(np.einsum("abc,bc->ac", p, g10), g20, 1e-8)),
        ])

    return Op("three_time", run, check, "feasible")


def _cycle(rng, digest, scenario):
    ops = []
    # Classical, divisible: X @ g10 with log10 cond stratified over [1, 14]
    # (DIV_PER_DECADE per decade), plus exactly singular g10. Indivisible:
    # the identity over a non-monomial g10, and a full-rank g20 over a
    # singular g10. Pairs on the inverse route (cond < 1e12) cycle N over
    # 6..12; pairs on the LP route use N = 12.
    dims = itertools.cycle(C_DIMS)
    for k in range(1, 14):
        for _ in range(DIV_PER_DECADE):
            n = next(dims) if k < 12 else LP_DIM
            g10, cond = inputs.kernel_with_cond(rng, n, 10 ** rng.uniform(k, k + 1))
            x = inputs.stochastic(rng, n)
            digest.add(g10, x)
            ops.append(c_div_op(x @ g10, g10, True, cond))
    for lo, hi, count in ((1, 4, 4), (4, 8, 4), (8, 12, 4), (12, 14, 1)):
        for _ in range(count):
            n = next(dims) if hi <= 12 else LP_DIM
            g10, cond = inputs.kernel_with_cond(rng, n, 10 ** rng.uniform(lo, hi))
            digest.add(g10)
            ops.append(c_div_op(np.eye(n), g10, False, cond))
    for divisible in (True, True, False, False):
        g10 = digest.add(inputs.singular_kernel(rng, LP_DIM))
        if divisible:
            g20 = digest.add(inputs.stochastic(rng, LP_DIM)) @ g10
        else:
            g20 = digest.add(inputs.lazy_stochastic(rng, LP_DIM, 0.3))
        ops.append(c_div_op(g20, g10, divisible, np.inf))

    # Quantum and theorem 1: depolarizing e10 with survival q, log10 q
    # stratified over [-13, -1]; divisible pairs K o e10, and the identity
    # over e10 as the indivisible pair.
    strata = [(-13 + 2 * i, -11 + 2 * i) for i in range(6)]
    for i, (lo, hi) in enumerate(strata):
        n = Q_DIMS[i % 3]
        q = 10 ** rng.uniform(lo, hi)
        e10 = digest.add(inputs.depolarizing(n, q))
        channel = inputs.superop(digest.add(inputs.channel_kraus(rng, n)))
        ops.append(q_div_op(channel @ e10, e10, True, 1.0 / q))
        if i % 3 == 0:
            ops.append(q_div_op(np.eye(n * n), e10, False, 1.0 / q))
        if i % 3 != 2:
            ops.append(theorem1_op(channel @ e10, e10, True, 1.0 / q))
        if i % 3 == 1:
            ops.append(theorem1_op(np.eye(n * n), e10, False, 1.0 / q))

    # Environment division: the demo's record scenario and generated ones.
    ops.append(scenario_op(*scenario, None, True))
    for n_sys, n_env, record in ((2, 3, True), (3, 2, True), (2, 2, False)):
        parts = inputs.record_scenario(rng, n_sys, n_env, record)
        digest.add(*parts)
        ops.append(scenario_op(*parts, record))

    for n in THREE_TIME_DIMS:
        g10 = digest.add(inputs.stochastic(rng, n))
        g20 = digest.add(inputs.stochastic(rng, n)) @ g10
        ops.append(three_time_op(g10, g20))

    return [ops[i] for i in rng.permutation(len(ops))]


def build(ctx):
    scenario = inputs.load_scenario(
        Path(ctx.root) / "demos" / "data" / "record_scenario.json")
    ops = [op for _ in range(CYCLES) for op in _cycle(ctx.rng, ctx.digest, scenario)]
    # Warm up on one well-conditioned op of each kind and label, so that
    # set-up costs the same for every seed.
    warmup = {}
    for op in ops:
        if not op.band:
            warmup.setdefault((op.kind, op.label), op)
    return ops, list(warmup.values())
