"""Acceptance suite: every criterion at its stated tolerance.

Each test computes its criterion, prints one PASS/FAIL line (visible with
``pytest -s`` or in failure output), and then asserts. Run via
``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
from scipy.linalg import expm

from stoqlift import (GkslGenerator, KernelFamily, KrausMap,
                      ProbabilityVector, RateMatrix, SuperOperator,
                      SuperOperatorFamily,
                      canonical_lift, ck_checklist, compatibility_check,
                      ctmc_embedding, ctmc_propagate, dictionary_kernel,
                      dof_counts, dtmc_to_ctmc_scaling, embed_diagonal,
                      gksl_superoperator, induced_kernel, mod_square,
                      povm_from_channel, propagate, readout,
                      short_time_derivatives, theorem1_check,
                      theta_markov_triviality_demo, to_superoperator,
                      two_step_kernel)

from conftest import HADAMARD, PAULI_X
from random_ops import (random_cptp_superoperator, random_density,
                        random_kraus_map, random_rate_matrix,
                        random_stochastic)

SYM_RATE = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _seeded_kernels(count=200, dims=(2, 3, 4, 5, 6)):
    for seed in range(count):
        rng = np.random.default_rng(seed)
        yield seed, random_stochastic(rng, dims[seed % len(dims)])


def test_criterion_01_dictionary_roundtrip():
    worst = 0.0
    for _, gamma in _seeded_kernels():
        back = dictionary_kernel(canonical_lift(gamma))
        worst = max(worst, float(np.abs(back.matrix - gamma.matrix).max()))
    passed = worst <= 1e-12
    _report("C1 dictionary round-trip (200 kernels, N=2..6)", passed,
            f"worst residual {worst:.3e} <= 1e-12")
    assert passed


def test_criterion_02_compatibility_diagram():
    worst = 0.0
    for _, gamma in _seeded_kernels():
        report = compatibility_check(canonical_lift(gamma), gamma,
                                     probes="basis", tol=1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed
    passed = worst <= 1e-12
    _report("C2 compatibility diagram on basis probes", passed,
            f"worst residual {worst:.3e} <= 1e-12")
    assert passed


def test_criterion_03_trace_preservation_vs_stochasticity():
    worst = 0.0
    flagged = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = 2 + seed % 3
        kmap = random_kraus_map(rng, n)
        report = induced_kernel(kmap)
        worst = max(worst, report.validation.max_column_sum_error,
                    report.validation.max_negative_entry)
        scaled = KrausMap([1.1 * op for op in kmap.operators])
        if (not scaled.trace_preserving
                and not induced_kernel(scaled).validation.passed):
            flagged += 1
    passed = worst <= 1e-10 and flagged == 100
    _report("C3 trace preservation <-> stochasticity", passed,
            f"worst stochasticity residual {worst:.3e} <= 1e-10, "
            f"{flagged}/100 scaled maps flagged")
    assert passed


def test_criterion_04_theta_leakage_exponent():
    family = KernelFamily.from_theta(
        lambda t, s: expm(-1j * PAULI_X * (t - s)), [0.0, 1.0])
    report = short_time_derivatives(family, 0.0, [1e-1, 1e-2, 1e-3, 1e-4])
    passed = abs(report.leakage_exponent - 2.0) <= 0.05
    _report("C4 quadratic leakage of rotation moduli", passed,
            f"log-log slope {report.leakage_exponent:.4f} = 2.00 +- 0.05")
    assert passed


def test_criterion_05_composition_triviality_bound():
    rows = theta_markov_triviality_demo(
        lambda h: expm(-1j * PAULI_X * h), 1.0, [10, 100, 1000])
    ratios = [rows[i].bound / rows[i + 1].bound for i in range(len(rows) - 1)]
    ratio_ok = all(abs(r - 10.0) <= 1.0 for r in ratios)
    bound_ok = all(r.product_distance <= r.bound + 1e-12 for r in rows)
    passed = ratio_ok and bound_ok
    _report("C5 union bound forces triviality", passed,
            f"decade ratios {[f'{r:.3f}' for r in ratios]} within 10 +- 1, "
            f"product distance <= bound at every n: {bound_ok}")
    assert passed


def test_criterion_06_accelerated_scaling_error_ratio():
    rows = dtmc_to_ctmc_scaling(RateMatrix(SYM_RATE), 1.0, 1.0,
                                [0.1, 0.05, 0.025])
    ratios = [rows[i].sup_error / rows[i + 1].sup_error
              for i in range(len(rows) - 1)]
    passed = all(2.5 <= r <= 5.5 for r in ratios)
    _report("C6 quadratic error decay of the accelerated chain", passed,
            f"halving ratios {[f'{r:.3f}' for r in ratios]} within [2.5, 5.5]")
    assert passed


def test_criterion_07_composition_checklist():
    grid = [0.0, 0.4, 1.0]
    unitary = ck_checklist(SuperOperatorFamily.from_hamiltonian(PAULI_X, grid),
                           tolerance=1e-6)
    decay = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GkslGenerator(np.zeros((2, 2)), [decay])
    semigroup = ck_checklist(SuperOperatorFamily.from_generator(gen, grid),
                             tolerance=1e-6)
    kfam = KernelFamily.from_theta(
        lambda t, s: expm(-1j * PAULI_X * (t - s)), grid)
    pairwise = ck_checklist(SuperOperatorFamily.from_kernel_family(kfam),
                            tolerance=1e-6)
    passed = (unitary.passed and semigroup.passed
              and not pairwise.passed
              and pairwise.max_composition_residual >= 1e-2)
    _report("C7 composition checklist", passed,
            f"unitary worst {max(unitary.max_identity_residual, unitary.max_composition_residual):.3e} <= 1e-6, "
            f"semigroup worst {max(semigroup.max_identity_residual, semigroup.max_composition_residual):.3e} <= 1e-6, "
            f"pairwise composition residual {pairwise.max_composition_residual:.3e} >= 1e-2")
    assert passed


def test_criterion_08_ctmc_square_closure():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 5))
        rate = random_rate_matrix(rng, n)
        p0 = ProbabilityVector(rng.dirichlet(np.ones(n)))
        t = float(rng.uniform(0.0, 2.0))
        classical = ctmc_propagate(rate, p0, t)
        lifted = readout(propagate(ctmc_embedding(rate),
                                   embed_diagonal(p0), t))
        worst = max(worst, float(np.abs(classical.entries
                                        - lifted.entries).max()))
    passed = worst <= 1e-10
    _report("C8 embedded chain matches classical propagation (50 triples)",
            passed, f"worst deviation {worst:.3e} <= 1e-10")
    assert passed


def test_criterion_09_divisibility_criterion():
    worst = 0.0
    applied = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 4))
        rate = random_rate_matrix(rng, n)
        s = gksl_superoperator(ctmc_embedding(rate)).matrix
        t1 = float(rng.uniform(0.3, 1.5))
        e_10 = SuperOperator(expm(t1 * s))
        continuation = random_cptp_superoperator(rng, n)
        e_20 = SuperOperator(continuation.matrix @ e_10.matrix)
        verdict = theorem1_check(e_10, e_20)
        if verdict.theorem_applies:
            applied += 1
            worst = max(worst, verdict.factorization_residual)
    hadamard_leg = to_superoperator(KrausMap([HADAMARD]))
    counter = theorem1_check(hadamard_leg, SuperOperator.identity(2))
    counter_ok = (not counter.theorem_applies and counter.q_divisible
                  and not counter.all_diagonal_at_t1 and not counter.c_divisible)
    passed = applied == 100 and worst <= 1e-8 and counter_ok
    _report("C9 divisibility criterion", passed,
            f"{applied}/100 instances apply, worst factorization residual "
            f"{worst:.3e} <= 1e-8; Hadamard counter-instance indivisible: "
            f"{counter_ok}")
    assert passed


def test_criterion_10_phase_memory_two_step_kernels():
    phase = np.diag([1.0, 1j])
    one_step_gap = float(np.abs(mod_square(HADAMARD)
                                - mod_square(phase @ HADAMARD)).max())
    kernel_xx = two_step_kernel(HADAMARD, HADAMARD)
    kernel_xy = two_step_kernel(HADAMARD, phase @ HADAMARD)
    id_gap = float(np.abs(kernel_xx - np.eye(2)).max())
    mix_gap = float(np.abs(kernel_xy - np.full((2, 2), 0.5)).max())
    passed = one_step_gap == 0.0 and id_gap <= 1e-12 and mix_gap <= 1e-12
    _report("C10 phase memory in two-step kernels", passed,
            f"one-step gap {one_step_gap:.1e} (exact), two-step kernels "
            f"within {max(id_gap, mix_gap):.3e} <= 1e-12 of identity / mix")
    assert passed


def test_criterion_11_degree_of_freedom_counts():
    expected = {
        (2, 1): (3, 4, 12), (2, 2): (7, 8, 24), (2, 3): (15, 12, 36),
        (3, 1): (8, 9, 72), (3, 2): (26, 18, 144), (3, 3): (80, 27, 216),
    }
    mismatches = []
    for (n, m), (path_law, unitary, cptp) in expected.items():
        counts = dof_counts(n, m)
        if (counts["path_law"], counts["unitary_lift"],
                counts["cptp_lift"]) != (path_law, unitary, cptp):
            mismatches.append((n, m))
    passed = not mismatches
    _report("C11 parameter counts", passed,
            f"closed forms exact on (N, m) in {{2,3}} x {{1,2,3}}; "
            f"mismatches: {mismatches or 'none'}")
    assert passed


def test_criterion_12_povm_consistency():
    worst_gap = 0.0
    worst_sum = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 4))
        channel = random_kraus_map(rng, n)
        rho = random_density(rng, n)
        povm = povm_from_channel(channel)
        via_effects = povm.outcome_probabilities(rho)
        evolved = sum(k @ rho @ k.conj().T for k in channel.operators)
        via_channel = np.real(np.diag(evolved))
        worst_gap = max(worst_gap,
                        float(np.abs(via_effects - via_channel).max()))
        total = sum(povm.effects)
        worst_sum = max(worst_sum, float(np.abs(total - np.eye(n)).max()))
    passed = worst_gap <= 1e-12 and worst_sum <= 1e-10
    _report("C12 POVM consistency (100 channel/state pairs)", passed,
            f"route gap {worst_gap:.3e} <= 1e-12, "
            f"completeness {worst_sum:.3e} <= 1e-10")
    assert passed
