"""A Kraus map owns one superoperator, which keeps no copy of the Choi matrix
and, once it is read, the Choi spectrum of both forms; ``ChoiMatrix.asymmetry``
is the number its Hermiticity check computed."""

import tracemalloc

import numpy as np
import pytest

from stoqlift import (ChoiMatrix, KrausMap, SuperOperator, SuperOperatorFamily,
                      ValidationError, canonical_lift, check_cptp, ck_checklist,
                      compatibility_check, dictionary_kernel, induced_kernel,
                      q_divisibility_check, to_superoperator)
from stoqlift.lifts import TOL_PSD

from conftest import depolarizing
from random_ops import random_kraus_map, random_stochastic, random_unitary


def _retained_arrays(*roots):
    """The distinct array buffers reachable from the roots through instance
    attributes of package objects, lists and tuples, one per base buffer."""
    found, seen, todo = {}, set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("stoqlift."):
            todo.extend(vars(obj).values())
    return list(found.values())


@pytest.mark.parametrize("n", [2, 4])
def test_checked_forms_retain_one_matrix_and_a_spectrum_once_read(rng, n):
    kmap = random_kraus_map(rng, n, 3)
    s = to_superoperator(kmap)
    reports = check_cptp(kmap), check_cptp(s)
    assert all(report.passed for report in reports)

    def retained():
        return sorted((a.shape, a.dtype.kind)
                      for a in _retained_arrays(kmap, s, *reports)
                      if not np.shares_memory(a, kmap.operators[0]))  # the Kraus stack

    assert retained() == [((n * n, n * n), "c")]
    reports[1].min_choi_eigenvalue
    assert retained() == [((n * n,), "f"), ((n * n, n * n), "c")]


def test_first_read_of_a_bare_superoperator_keeps_no_second_choi_copy(rng):
    # At N = 16 a Choi matrix is 1 MiB. The check and the first read of
    # min_choi_eigenvalue hold at most three such matrices at once (C,
    # conj(C) and C - C^dagger in the Hermiticity check): the Hermitian part
    # is diagonalised without one more copy of the reshuffled matrix.
    n = 16
    matrix = to_superoperator(random_kraus_map(rng, n, 3)).matrix
    size = 16 * n ** 4
    for tol_psd in (TOL_PSD, 0.0):  # the Cholesky route, and none
        s = SuperOperator(matrix)
        tracemalloc.start()
        try:
            value = check_cptp(s, tol_psd=tol_psd).min_choi_eigenvalue
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > -1e-12
        assert peak < 3.5 * size


def _peak_units(f, n):
    """tracemalloc's peak while ``f()`` runs, in N^4 complex arrays, and its value."""
    tracemalloc.start()
    try:
        value = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * n ** 4), value


def _divisible_full_rank_pair(rng, n):
    """A canonical lift after a well-conditioned earlier map, as in the lift
    benchmark: a unitary channel mixed with full depolarization."""
    gamma = random_stochastic(rng, n)
    e_10 = (0.5 * to_superoperator(KrausMap([random_unitary(rng, n)])).matrix
            + 0.5 * depolarizing(n, 0.0))
    e_20 = to_superoperator(canonical_lift(gamma)).matrix @ e_10
    return SuperOperator(e_20), SuperOperator(e_10)


def test_divisibility_check_holds_at_most_five_n4_arrays_at_once(rng):
    # The witness adopts the candidate, and the moved maps and the inverse
    # are dropped before it is checked: the peak is the candidate and the
    # four arrays of forming the Hermitian part of its Choi matrix.
    n = 8
    e_20, e_10 = _divisible_full_rank_pair(rng, n)
    units, result = _peak_units(lambda: q_divisibility_check(e_20, e_10), n)
    assert result.verdict == "divisible"
    assert units < 5.5


def test_lift_and_conversion_hold_at_most_three_n4_arrays_at_once(rng):
    # The adopted stack of N^2 operators, conj(W) and W^T conj(W), then the
    # product and its reshuffle, which the superoperator adopts.
    n = 8
    kernel = random_stochastic(rng, n)
    units, _ = _peak_units(lambda: to_superoperator(canonical_lift(kernel)), n)
    assert canonical_lift(kernel).rank == n * n
    assert units < 3.5


def test_divisible_result_keeps_one_n4_array(rng):
    # The candidate is the witness's array, not a copy of it.
    n = 4
    result = q_divisibility_check(*_divisible_full_rank_pair(rng, n))
    assert result.verdict == "divisible"
    big = [a for a in _retained_arrays(result) if a.size == n ** 4]
    assert len(big) == 1
    assert np.shares_memory(result.candidate, result.witness.matrix)
    assert not result.candidate.flags.writeable


def test_kraus_maps_induced_kernel_is_formed_once(rng, monkeypatch):
    formed = []
    prop = KrausMap.__dict__["_induced"]

    def counted(kmap, _form=prop.func):
        formed.append(kmap)
        return _form(kmap)

    monkeypatch.setattr(prop, "func", counted)
    kernel = random_stochastic(rng, 4)
    canonical = canonical_lift(kernel)  # set from its block, never from its stack
    for kmap in (canonical, KrausMap(canonical.operators)):
        assert compatibility_check(kmap, kernel).passed
        report = induced_kernel(kmap)
        np.testing.assert_array_equal(dictionary_kernel(kmap).matrix, report.kernel)
    assert formed == [kmap]


def test_asymmetry_is_the_worst_entry_of_c_minus_c_dagger(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert ChoiMatrix(m, tol_herm=np.inf).asymmetry == np.abs(m - m.conj().T).max()
    hermitian = (m + m.conj().T) / 2.0
    assert ChoiMatrix(hermitian).asymmetry == 0.0


def test_nan_entry_is_refused_under_any_tolerance():
    m = np.eye(4, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(ValidationError,
                       match="^Choi matrix not Hermitian: worst asymmetry nan$"):
        ChoiMatrix(m, tol_herm=np.inf)


def test_checklist_reports_the_members_asymmetry():
    # Members exp(i(t - s)) I have Choi asymmetry 2 sin(t - s), worst at t - s = 1.
    family = SuperOperatorFamily.from_generator(SuperOperator(1j * np.eye(4)),
                                                [0.0, 0.5, 1.0])
    report = ck_checklist(family)
    assert report.max_choi_asymmetry == pytest.approx(2 * np.sin(1.0))
    omega = np.eye(2).reshape(-1)  # the Choi matrix of the identity map is |omega><omega|
    member = ChoiMatrix(np.exp(1j) * np.outer(omega, omega), tol_herm=np.inf)
    assert report.max_choi_asymmetry == pytest.approx(member.asymmetry, abs=1e-15)
