"""A Kraus map owns one superoperator, which keeps no copy of the Choi matrix
and, once it is read, the Choi spectrum of both forms; ``ChoiMatrix.asymmetry``
is the number its Hermiticity check computed."""

import tracemalloc

import numpy as np
import pytest

from stoqlift import (ChoiMatrix, SuperOperator, SuperOperatorFamily,
                      ValidationError, check_cptp, ck_checklist, to_superoperator)
from stoqlift.lifts import TOL_PSD

from random_ops import random_kraus_map


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
