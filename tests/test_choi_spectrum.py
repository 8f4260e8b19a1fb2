"""A Kraus map and the superoperator converted from it share one Choi
matrix, so ``check_cptp`` diagonalises it at most once across both forms."""

import numpy as np
import pytest

from stoqlift import (KrausMap, StochasticKernel, SuperOperator, ValidationError,
                      barandes_column_lift, canonical_lift, check_cptp,
                      compatibility_check, dictionary_kernel, induced_kernel,
                      q_divisibility_check, superop_kernel_extract,
                      to_superoperator)

from conftest import depolarizing
from random_ops import random_kraus_map, random_stochastic, random_unitary


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Count the calls of ``np.linalg.eigvalsh`` made after the fixture."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_both_forms_checked_twice_take_one_diagonalisation(rng, eigvalsh_calls):
    kmap = random_kraus_map(rng, 3, 4)
    s = to_superoperator(kmap)
    assert not eigvalsh_calls  # the conversion diagonalises nothing
    first = check_cptp(kmap)
    second = check_cptp(s)
    again = check_cptp(kmap), check_cptp(s)
    assert len(eigvalsh_calls) == 1
    assert first.passed and second.passed
    assert first.min_choi_eigenvalue == second.min_choi_eigenvalue
    assert again == (first, second)


def test_superoperator_checked_first_shares_with_its_map(rng, eigvalsh_calls):
    kmap = random_kraus_map(rng, 3, 4)
    s = to_superoperator(kmap)
    assert check_cptp(s).passed and check_cptp(kmap).passed
    assert len(eigvalsh_calls) == 1


def test_lift_pipeline_takes_two_diagonalisations(rng, eigvalsh_calls):
    # The lift-dense sequence at N = 4: both checks of one lift share a
    # spectrum, and the divisibility witness, a new map, takes the second.
    n = 4
    gamma = random_stochastic(rng, n).matrix
    u = random_unitary(rng, n)
    e10 = (0.5 * to_superoperator(KrausMap([u])).matrix
           + 0.5 * depolarizing(n, 0.0))
    canonical = np.zeros((n * n, n * n), dtype=complex)
    diagonal = np.arange(n) * (n + 1)
    canonical[np.ix_(diagonal, diagonal)] = gamma
    e20 = canonical @ e10
    eigvalsh_calls.clear()

    kernel = StochasticKernel(gamma)
    kmap = canonical_lift(kernel)
    barandes_column_lift(u)
    s = to_superoperator(kmap)
    assert check_cptp(kmap).passed and check_cptp(s).passed
    assert compatibility_check(kmap, kernel).passed
    induced_kernel(kmap)
    dictionary_kernel(kmap)
    superop_kernel_extract(s)
    result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10))
    assert result.verdict == "divisible"
    np.testing.assert_allclose(result.witness.matrix, canonical, atol=1e-8)
    assert len(eigvalsh_calls) == 2


def test_superoperator_from_the_matrix_gets_its_own_diagonalisation(
        rng, eigvalsh_calls):
    kmap = random_kraus_map(rng, 3, 4)
    shared = to_superoperator(kmap)
    own = SuperOperator(shared.matrix)
    shared_report = check_cptp(shared)
    assert len(eigvalsh_calls) == 1
    own_report = check_cptp(own)
    assert len(eigvalsh_calls) == 2
    assert own_report == shared_report


def test_tolerance_is_applied_per_call():
    # Slightly more than the identity: trace preserving, with one Choi
    # eigenvalue of -5e-7, which tol_psd alone passes or fails.
    s = SuperOperator(depolarizing(2, 1.0 + 1e-6))
    strict, loose = check_cptp(s, tol_psd=1e-9), check_cptp(s, tol_psd=1e-3)
    assert strict.trace_preserving and strict.min_choi_eigenvalue < 0
    assert not strict.completely_positive and loose.completely_positive
    assert check_cptp(s, tol_psd=1e-9) == strict


def test_non_hermitian_choi_raises_on_every_call():
    kmap = KrausMap([np.eye(2), np.full((2, 2), np.nan)])
    s = to_superoperator(kmap)
    for form in (kmap, s, kmap, s):
        with pytest.raises(ValidationError,
                           match="^Choi matrix not Hermitian: worst asymmetry nan$"):
            check_cptp(form)
