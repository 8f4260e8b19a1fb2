"""ck-families: one composition checklist on a 5-time grid per op, N <= 6.

The only workload where ``dynamics`` and ``expm`` do most of the work. It
calls ``lifts`` with many small lifts (pairwise canonical-lift families)
instead of a few large ones, so it guards N <= 6 against changes tuned for
N = 16. Each op also propagates a lifted rate equation against the classical
one and runs the accelerated-scaling and triviality constructions.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

import stoqlift as sq

import inputs
from ops import Op, close, first_failure

#: Unitary and GKSL families compose; pairwise lifts of a kernel family do not.
KINDS = ("unitary", "gksl-ctmc", "gksl-jumps", "pairwise-rate", "pairwise-theta")
#: Ops per cycle for each kind and N. N = 6 and the four non-unitary kinds
#: weigh more so that p50 falls inside the N = 6 GKSL plateau and p90 inside
#: the N = 6 pairwise one, not on a step between two sizes.
N_WEIGHTS = {2: 1, 3: 1, 4: 1, 6: 3}
KIND_WEIGHTS = {"unitary": 1, "gksl-ctmc": 2, "gksl-jumps": 2,
                "pairwise-rate": 2, "pairwise-theta": 2}
#: Distinct cycles generated per run.
CYCLES = 2
EPSILONS = (0.1, 0.05, 0.025)
SUBDIVISIONS = (10, 100, 1000)


def _expm(m):
    # Looked up at call time so that traced runs see the wrapped expm.
    return scipy.linalg.expm(m)


def _family(kind, h, rate, jumps, grid):
    families = sq.SuperOperatorFamily
    if kind == "unitary":
        return families.from_hamiltonian(h, grid)
    if kind == "gksl-ctmc":
        return families.from_generator(sq.ctmc_embedding(sq.RateMatrix(rate)), grid)
    if kind == "gksl-jumps":
        return families.from_generator(sq.GkslGenerator(h / 2, jumps), grid)
    if kind == "pairwise-rate":
        kernels = sq.KernelFamily.from_rate_matrix(sq.RateMatrix(rate), grid)
    else:
        kernels = sq.KernelFamily.from_theta(
            lambda t, s: _expm(-1j * h * (t - s)), grid)
    return families.from_kernel_family(kernels)


def _op(kind, h, rate, jumps, grid, p0, t):
    composes = not kind.startswith("pairwise")
    expected_p = scipy.linalg.expm(t * rate) @ p0

    def run():
        report = sq.ck_checklist(_family(kind, h, rate, jumps, grid))
        r = sq.RateMatrix(rate)
        p = sq.ProbabilityVector(p0)
        lifted = sq.readout(sq.propagate(sq.ctmc_embedding(r),
                                         sq.embed_diagonal(p), t))
        classical = sq.ctmc_propagate(r, p, t)
        scaling = sq.dtmc_to_ctmc_scaling(r, 1.0, 1.0, EPSILONS)
        trivial = sq.theta_markov_triviality_demo(
            lambda step: _expm(-1j * h * step), 1.0, SUBDIVISIONS)
        return report, lifted, classical, scaling, trivial

    def check(out):
        report, lifted, classical, scaling, trivial = out
        if composes:
            ck_ok = (report.passed and report.max_identity_residual <= 1e-10
                     and report.max_forward_residual <= report.tolerance)
        else:
            ck_ok = not report.passed and report.max_identity_residual >= 0.5
        errors = [row.sup_error for row in scaling]
        bounds = [row.bound for row in trivial]
        return first_failure([
            ("dynamics.ck_checklist", ck_ok),
            ("dynamics.propagate", close(lifted.entries, classical.entries, 1e-10)
             and close(classical.entries, expected_p, 1e-10)),
            ("kernels.dtmc_to_ctmc_scaling",
             all(3.0 < a / b < 5.0 for a, b in zip(errors, errors[1:]))),
            ("kernels.theta_markov_triviality_demo",
             all(a > b for a, b in zip(bounds, bounds[1:]))),
        ])

    return Op(kind, run, check, "composes" if composes else "does-not-compose")


def build(ctx):
    """Ops over CYCLES seeded cycles, each in a seeded shuffled order; the
    warm-up runs one op per (kind, N)."""
    rng, digest = ctx.rng, ctx.digest
    ops, warmup = [], {}
    for _ in range(CYCLES):
        cycle = []
        for n, n_weight in N_WEIGHTS.items():
            for kind in KINDS:
                for _ in range(n_weight * KIND_WEIGHTS[kind]):
                    h = digest.add(inputs.hermitian(rng, n))
                    rate = digest.add(inputs.rate_matrix(rng, n))
                    jumps = [digest.add(0.5 * inputs.hermitian(rng, n)
                                        @ inputs.unitary(rng, n)) for _ in range(2)]
                    grid = digest.add(inputs.five_time_grid(rng))
                    p0 = digest.add(rng.dirichlet(np.ones(n)))
                    cycle.append(_op(kind, h, rate, jumps, grid, p0, 1.0))
                    warmup.setdefault((kind, n), cycle[-1])
        ops += [cycle[i] for i in rng.permutation(len(cycle))]
    return ops, list(warmup.values())
