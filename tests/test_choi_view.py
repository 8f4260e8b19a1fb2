"""Complete positivity has one home: a superoperator keeps its Choi
asymmetry and spectrum, and ``ChoiMatrix``, ``check_cptp``, ``ck_checklist``
and ``q_divisibility_check`` all read them. A ``ChoiMatrix`` is a view that
diagonalises on first read, and the checklist decides each member with
``check_cptp``."""

import numpy as np
import pytest

from stoqlift import (ChoiMatrix, DimensionMismatchError, GkslGenerator, KrausMap,
                      StochasticKernel, SuperOperator, SuperOperatorFamily, ValidationError,
                      barandes_column_lift, canonical_lift, check_cptp,
                      choi_from_kraus, ck_checklist, compatibility_check,
                      dictionary_kernel, induced_kernel, q_divisibility_check,
                      superop_kernel_extract, to_superoperator)
from stoqlift import dynamics, lifts

from conftest import depolarizing
from random_ops import random_kraus_map, random_stochastic, random_unitary


@pytest.fixture
def calls(monkeypatch):
    """The names of the ``np.linalg`` factorisations made after the fixture."""
    made = []
    for name in ("eigvalsh", "eigh", "cholesky"):
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            made.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return made


def test_canonical_reduction_diagonalises_once(rng, calls):
    ops = random_kraus_map(rng, 3, 2).operators
    kmap = KrausMap([op / 3 ** 0.5 for op in ops * 3])  # a redundant set of rank 2
    calls.clear()
    reduced = kmap.canonical_reduction()
    assert calls == ["eigh"]
    assert reduced.rank == 2
    np.testing.assert_allclose(to_superoperator(reduced).matrix,
                               to_superoperator(kmap).matrix, atol=1e-12)


def test_view_of_a_kraus_map_shares_its_spectrum_and_certificate(rng, calls):
    kmap = random_kraus_map(rng, 3, 4)
    calls.clear()
    assert choi_from_kraus(kmap).is_completely_positive()
    assert not calls  # the Kraus structure certifies the fresh view
    value = check_cptp(kmap).min_choi_eigenvalue
    assert calls == ["eigvalsh"]
    view = choi_from_kraus(kmap)
    assert view.min_eigenvalue == value
    assert view.eigenvalues is choi_from_kraus(kmap).eigenvalues
    assert calls == ["eigvalsh"]


def test_view_keeps_no_matrix_and_diagonalises_on_first_read(rng, calls):
    m = lifts._reshuffle(to_superoperator(random_kraus_map(rng, 2, 2)).matrix, 2)
    calls.clear()
    view = ChoiMatrix(m)
    assert not calls
    np.testing.assert_array_equal(view.matrix, m)
    assert not view.matrix.flags.writeable
    assert not any(isinstance(v, np.ndarray) for v in vars(view).values())
    expected = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    calls.clear()
    assert view.eigenvalues.tobytes() == expected.tobytes()
    assert view.is_completely_positive()
    assert calls == ["eigvalsh"]


def test_side_that_is_not_a_perfect_square_is_refused():
    with pytest.raises(DimensionMismatchError,
                       match="^Choi matrix side 3 is not a perfect square$"):
        ChoiMatrix(np.eye(3))


def _families():
    n = 2
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[i + n * j, j + n * i] = 1.0
    grid = [0.0, 0.5, 1.0, 2.0]
    decay = GkslGenerator(np.zeros((2, 2)), [[[0.0, 1.0], [0.0, 0.0]]])
    return {
        "composing": SuperOperatorFamily.from_generator(decay, grid),
        "cp-failing": SuperOperatorFamily.from_generator(
            SuperOperator(swap - np.eye(n * n)), grid),
        "phase": SuperOperatorFamily.from_generator(SuperOperator(1j * np.eye(4)), grid),
    }


def _cptp_or_refused(member):
    try:
        return check_cptp(member).passed
    except ValidationError:  # a Choi matrix too asymmetric to be Hermitian
        return False


@pytest.mark.parametrize("kind, cptp", [("composing", True), ("cp-failing", False),
                                        ("phase", False)])
def test_checklist_decides_members_with_check_cptp(kind, cptp, calls):
    family = _families()[kind]
    grid = family.grid
    members = [family.superop(t, s) for k, s in enumerate(grid) for t in grid[k + 1:]]
    assert all(_cptp_or_refused(m) for m in members) == cptp
    calls.clear()
    report = ck_checklist(family)
    # One diagonalisation per member, and no factorisation: the check reads
    # the kept spectrum.
    assert calls == ["eigvalsh"] * len(members)
    assert report.max_identity_residual == 0.0
    assert report.max_composition_residual <= 1e-12
    assert report.passed == cptp


def test_checklist_leaves_choi_data_to_lifts():
    assert not hasattr(dynamics, "ChoiMatrix")
    assert not hasattr(dynamics, "_reshuffle")


def test_lift_pipeline_reshuffles_twice(rng, monkeypatch):
    # The lift-dense sequence at N = 4: the conversion of the lift, and the
    # Hermitian part of the divisibility witness for its Cholesky factor.
    # The Choi asymmetries are read off the superoperators in place.
    made = []

    def counted(*args, _f=lifts._reshuffle):
        made.append(1)
        return _f(*args)

    n = 4
    gamma = random_stochastic(rng, n).matrix
    u = random_unitary(rng, n)
    e10 = 0.5 * to_superoperator(KrausMap([u])).matrix + 0.5 * depolarizing(n, 0.0)
    canonical = np.zeros((n * n, n * n), dtype=complex)
    diagonal = np.arange(n) * (n + 1)
    canonical[np.ix_(diagonal, diagonal)] = gamma
    monkeypatch.setattr(lifts, "_reshuffle", counted)

    kernel = StochasticKernel(gamma)
    kmap = canonical_lift(kernel)
    barandes_column_lift(u)
    s = to_superoperator(kmap)
    assert check_cptp(kmap).passed and check_cptp(s).passed
    assert compatibility_check(kmap, kernel).passed
    induced_kernel(kmap)
    dictionary_kernel(kmap)
    superop_kernel_extract(s)
    result = q_divisibility_check(SuperOperator(canonical @ e10), SuperOperator(e10))
    assert result.verdict == "divisible"
    assert len(made) == 2
