"""``check_cptp`` decides complete positivity from a certificate, without
diagonalising: a Kraus map and the superoperator converted from it pass
from the Kraus structure, any other superoperator from Gershgorin's discs
(a near-diagonal Choi matrix at N >= ``_DISC_MIN_N``) or one Cholesky
factorisation. The Choi spectrum is taken on the first read of
``min_choi_eigenvalue`` (or where no certificate decides), once per Choi
matrix across both forms."""

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
def calls(monkeypatch):
    """The names of the ``np.linalg.eigvalsh`` and ``np.linalg.cholesky``
    calls made after the fixture, in order."""
    made = []
    for name in ("eigvalsh", "cholesky"):
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            made.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return made


def test_both_forms_pass_from_the_kraus_structure(rng, calls):
    kmap = random_kraus_map(rng, 3, 4)
    s = to_superoperator(kmap)
    assert not calls  # the conversion factors and diagonalises nothing
    first, second = check_cptp(kmap), check_cptp(s)
    again = check_cptp(kmap), check_cptp(s)
    assert first.passed and second.passed and again[0].passed and again[1].passed
    assert not calls


def test_first_read_on_either_form_takes_one_shared_eigvalsh(rng, calls):
    for read_first in (0, 1):
        kmap = random_kraus_map(rng, 3, 4)
        forms = (kmap, to_superoperator(kmap))
        reports = [check_cptp(form) for form in forms]
        assert not calls
        value = reports[read_first].min_choi_eigenvalue
        assert calls == ["eigvalsh"]
        assert reports[1 - read_first].min_choi_eigenvalue == value
        assert [check_cptp(form) for form in forms] == reports
        assert calls == ["eigvalsh"]
        calls.clear()


def test_lift_pipeline_takes_no_eigvalsh_and_no_cholesky(rng, calls):
    # The lift-dense sequence at N = 8: both checks of one lift pass from the
    # Kraus structure, and the divisibility witness, a bare superoperator
    # whose Choi matrix is diagonal up to rounding, from Gershgorin's discs.
    n = 8
    gamma = random_stochastic(rng, n).matrix
    u = random_unitary(rng, n)
    e10 = (0.5 * to_superoperator(KrausMap([u])).matrix
           + 0.5 * depolarizing(n, 0.0))
    canonical = np.zeros((n * n, n * n), dtype=complex)
    diagonal = np.arange(n) * (n + 1)
    canonical[np.ix_(diagonal, diagonal)] = gamma
    e20 = canonical @ e10
    calls.clear()

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
    assert not calls


def test_superoperator_from_the_matrix_gets_its_own_certificate_and_spectrum(
        rng, calls):
    kmap = random_kraus_map(rng, 3, 4)
    shared = to_superoperator(kmap)
    own = SuperOperator(shared.matrix)
    shared_report = check_cptp(shared)
    assert not calls
    own_report = check_cptp(own)
    assert calls == ["cholesky"]
    assert own_report == shared_report  # both spectra, bit for bit
    assert calls == ["cholesky", "eigvalsh", "eigvalsh"]


def test_without_a_certificate_one_eigvalsh_decides_and_is_kept(rng, calls):
    kmap = random_kraus_map(rng, 3, 4)
    s = to_superoperator(kmap)
    # At tol_psd = 0 the Kraus structure certifies nothing: the rule decides.
    report = check_cptp(kmap, tol_psd=0.0)
    assert calls == ["eigvalsh"]
    assert report.completely_positive == (report.min_choi_eigenvalue >= 0.0)
    assert check_cptp(s, tol_psd=0.0).completely_positive == report.completely_positive
    assert check_cptp(s).passed  # the kept spectrum decides, at each tolerance
    assert calls == ["eigvalsh"]
    # A superoperator that is not CP fails its Cholesky factorisation.
    bad = SuperOperator(depolarizing(2, 1.0 + 1e-6))
    calls.clear()
    assert not check_cptp(bad).completely_positive
    assert calls == ["cholesky", "eigvalsh"]
    assert not check_cptp(bad).completely_positive  # the kept spectrum decides
    assert calls == ["cholesky", "eigvalsh"]


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


def test_non_hermitian_bare_superoperator_raises_before_any_factorisation(calls):
    s = SuperOperator(to_superoperator(KrausMap([np.eye(2), np.full((2, 2), np.nan)])).matrix)
    for _ in range(2):
        with pytest.raises(ValidationError,
                           match="^Choi matrix not Hermitian: worst asymmetry nan$"):
            check_cptp(s)
    assert not calls
