"""The CK checklist decides the composition law S(t,s) = S(t,u) S(u,s) on the
grid triples directly, and refuses families whose members are not CPTP.

Semigroups and unitary families compose by construction, so their triple
residuals sit at rounding level. Pairwise canonical lifts of a kernel family
compose exactly when the kernels do: those of a rate-matrix semigroup pass
every triple and fail only at coincidence, those of a rotation's
squared-moduli kernels fail the triples too.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from stoqlift import (GkslGenerator, KernelFamily, RateMatrix, SuperOperator,
                      SuperOperatorFamily, check_ck_family, ck_checklist,
                      ctmc_embedding)

from conftest import assert_checklist_matches_kept_spectra, kept_spectra_checklist

GRID = [0.0, 0.3, 0.7, 1.2, 2.0]
DIMENSIONS = [2, 3, 4, 6]


def _hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0 / n


def _rate(rng, n):
    r = rng.uniform(0.1, 1.0, size=(n, n)) / (n - 1)
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def _family(kind, n, seed=0):
    rng = np.random.default_rng([n, seed])
    h, rate = _hermitian(rng, n), _rate(rng, n)
    if kind == "unitary":
        return SuperOperatorFamily.from_hamiltonian(h, GRID)
    if kind == "gksl-ctmc":
        return SuperOperatorFamily.from_generator(ctmc_embedding(RateMatrix(rate)), GRID)
    if kind == "gksl-jumps":
        jumps = [_hermitian(rng, n) @ _hermitian(rng, n) for _ in range(2)]
        return SuperOperatorFamily.from_generator(GkslGenerator(h, jumps), GRID)
    if kind == "pairwise-rate":
        kernels = KernelFamily.from_rate_matrix(RateMatrix(rate), GRID)
    else:
        kernels = KernelFamily.from_theta(lambda t, s: expm(-1j * h * n * (t - s)), GRID)
    return SuperOperatorFamily.from_kernel_family(kernels)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("kind", ["unitary", "gksl-ctmc", "gksl-jumps"])
def test_families_that_compose_by_construction_pass_at_rounding_level(kind, n):
    report = ck_checklist(_family(kind, n))
    assert report.passed
    assert len(report.triples) == math.comb(len(GRID), 3)
    assert report.max_composition_residual <= 1e-12
    assert report.max_identity_residual <= 1e-12
    assert report.min_choi_eigenvalue >= -1e-12
    assert report.max_choi_asymmetry <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("kind", ["unitary", "gksl-ctmc", "gksl-jumps",
                                  "pairwise-rate", "pairwise-theta"])
def test_verdict_matches_the_rule_on_kept_spectra(kind, n, seed):
    # The certificates decide only where the spectral rule would pass, and
    # the eigenvalue read later is the one the kept spectra gave.
    report = ck_checklist(_family(kind, n, seed))
    assert_checklist_matches_kept_spectra(
        report, kept_spectra_checklist(_family(kind, n, seed)))
    assert ck_checklist(_family(kind, n, seed)) == report


@pytest.mark.parametrize("n", DIMENSIONS)
def test_pairwise_rate_lift_composes_but_fails_at_coincidence(n):
    report = ck_checklist(_family("pairwise-rate", n))
    assert not report.passed
    assert report.max_composition_residual <= 1e-12
    assert report.max_identity_residual >= 0.5
    assert report.min_choi_eigenvalue >= 0.0


@pytest.mark.parametrize("n", DIMENSIONS)
def test_pairwise_theta_lift_fails_on_the_triples(n):
    report = ck_checklist(_family("pairwise-theta", n))
    assert not report.passed
    assert report.max_composition_residual >= 1e-2


@pytest.mark.parametrize("n", DIMENSIONS)
def test_canonical_lift_composes_exactly_as_its_kernels(n):
    rng = np.random.default_rng([n, 1])
    kernels = KernelFamily.from_rate_matrix(RateMatrix(_rate(rng, n)), GRID)
    lifted = ck_checklist(SuperOperatorFamily.from_kernel_family(kernels))
    classical = check_ck_family(kernels)
    assert [(r.s, r.u, r.t) for r in lifted.triples] == [
        (r.s, r.u, r.t) for r in classical.triples]
    for a, b in zip(lifted.triples, classical.triples):
        assert a.residual == pytest.approx(b.residual, abs=1e-15)


def test_transpose_generator_composes_but_is_not_cptp():
    # L = swap - I generates rho -> rho^T - rho. Its semigroup composes,
    # but no member after t = 0 is completely positive.
    n = 2
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[i + n * j, j + n * i] = 1.0
    family = SuperOperatorFamily.from_generator(
        SuperOperator(swap - np.eye(n * n)), [0.0, 0.5, 1.0, 2.0])
    report = ck_checklist(family)
    assert not report.passed
    assert report.max_identity_residual == 0.0
    assert report.max_composition_residual <= 1e-12
    assert report.min_choi_eigenvalue <= -0.3
    # The smallest Choi eigenvalue of the member at t is -exp(-t) sinh(t),
    # -0.316 at t = 0.5.
    half = ck_checklist(SuperOperatorFamily.from_generator(
        SuperOperator(swap - np.eye(n * n)), [0.0, 0.25, 0.5]))
    assert half.min_choi_eigenvalue == pytest.approx(-np.exp(-0.5) * np.sinh(0.5))



def test_phase_generator_composes_but_fails_on_its_choi_asymmetry():
    # L = iI generates S(t, s) = exp(i(t - s)) I, which composes exactly, but
    # the member's Choi matrix exp(i(t - s)) |Omega><Omega| is not Hermitian:
    # its worst asymmetry is 2 sin(t - s). The checklist fails it and reports
    # that number rather than raising.
    family = SuperOperatorFamily.from_generator(SuperOperator(1j * np.eye(4)),
                                                [0.0, 0.5, 1.0])
    report = ck_checklist(family)
    assert not report.passed
    assert report.max_identity_residual == 0.0
    assert report.max_composition_residual <= 1e-15
    assert report.max_choi_asymmetry == pytest.approx(2 * np.sin(1.0))
    # The Hermitian part cos(t - s) |Omega><Omega| is positive semidefinite.
    assert report.min_choi_eigenvalue == pytest.approx(0.0, abs=1e-15)
