"""``check_cptp`` decides complete positivity from a certificate where one
applies (the Kraus structure of a Kraus map's superoperator; for any other,
Gershgorin's discs from N = ``_DISC_MIN_N``, then one Cholesky
factorisation), but its verdict must be the spectral rule's: the smallest
eigenvalue of the Hermitian part of the Choi matrix at least
``-tol_psd max(1, max |lambda|)``. These tests hold it to that rule on
spectra whose smallest eigenvalue straddles the rule's floor.

The tolerances include 1e-17, which lies between 0 and the rounding of a
computed ``W W^dagger``: there a rank-deficient Kraus map's zero
eigenvalues can fall on either side of the floor, and the Kraus structure
must leave the verdict to the spectrum.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stoqlift import KrausMap, SuperOperator, check_cptp, to_superoperator
from stoqlift.lifts import (_DISC_MIN_N, _completely_positive, _gershgorin_certifies,
                            _reshuffle)

from conftest import depolarizing
from random_ops import random_kraus_map, random_unitary

TOLERANCES = (0.0, 1e-17, 1e-12, 1e-9, 1e-3)
#: Offsets of the smallest eigenvalue from the floor, on both sides of it.
OFFSETS = (0.0, *(sign * 10.0 ** -k for k in range(2, 18) for sign in (1, -1)))


def rule(superop, tol_psd):
    """The spectral rule on the Hermitian part of the Choi matrix."""
    choi = _reshuffle(superop.matrix, superop.n)
    return _completely_positive(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0),
                                tol_psd)


@settings(max_examples=15)
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       top=st.sampled_from([0.25, 1.0, 10.0]))
def test_bare_superoperator_agrees_with_the_rule(n, seed, top):
    rng = np.random.default_rng(seed)
    m = n * n
    u = random_unitary(rng, m)
    rest = top * rng.random(m - 1)
    rest[0] = top  # the largest eigenvalue sets the rule's scale
    for tol_psd in TOLERANCES:
        for offset in OFFSETS:
            lowest = -tol_psd * max(1.0, top) + offset
            choi = (u * np.concatenate([[lowest], rest])) @ u.conj().T
            s = SuperOperator(_reshuffle(choi, n))
            assert check_cptp(s, tol_psd=tol_psd).completely_positive == rule(s, tol_psd)


@settings(max_examples=15)
@given(n=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), data=st.data())
def test_rank_deficient_kraus_map_agrees_with_the_rule(n, seed, scale, data):
    rank = data.draw(st.integers(1, n * n - 1))
    rng = np.random.default_rng(seed)
    ops = scale * (rng.standard_normal((rank, n, n))
                   + 1j * rng.standard_normal((rank, n, n)))
    for tol_psd in TOLERANCES:
        # New maps, so that no spectrum kept by an earlier check decides:
        # the Kraus structure decides both forms, a copy of the matrix Cholesky.
        kmap = KrausMap(ops)
        s = to_superoperator(kmap)
        expected = rule(s, tol_psd)
        for form in (kmap, s, SuperOperator(s.matrix)):
            assert check_cptp(form, tol_psd=tol_psd).completely_positive == expected


def test_kraus_rounding_fails_a_tiny_floor():
    # The case the Kraus structure must leave to the spectrum does occur: at
    # tolerance 1e-17 rounding alone fails these rank-deficient maps.
    rng = np.random.default_rng(3)
    for _ in range(5):
        kmap = KrausMap(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
        assert not check_cptp(kmap, tol_psd=1e-17).completely_positive
        assert check_cptp(kmap).completely_positive


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
@pytest.mark.parametrize("spread", [0.0, 1e-13, 1e-6])
def test_near_diagonal_choi_agrees_with_the_rule(n, spread):
    # A diagonal Choi matrix plus a Hermitian perturbation of entries up to
    # ``spread``, shifted so that its smallest eigenvalue lies at each offset
    # from the floor -tol_psd (the largest eigenvalue stays below 1). Where
    # the discs certify, the rule passes, at every N; ``check_cptp`` tries
    # them from N = _DISC_MIN_N.
    rng = np.random.default_rng(n)
    m = n * n
    e = spread * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    choi = np.diag(rng.uniform(0.0, 0.5, m)) + (e + e.conj().T) / 4.0
    lowest = np.linalg.eigvalsh(choi)[0]
    offsets = OFFSETS if n < 16 else OFFSETS[::3]
    certified = []
    for tol_psd in TOLERANCES:
        for offset in offsets:
            shifted = choi + (offset - tol_psd - lowest) * np.eye(m)
            s = SuperOperator(_reshuffle(shifted, n))
            expected = rule(s, tol_psd)
            certified.append(_gershgorin_certifies(s.matrix, n, tol_psd))
            assert expected or not certified[-1]
            assert check_cptp(s, tol_psd=tol_psd).completely_positive == expected
    assert True in certified and False in certified


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1j * np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 3), (1, 2)])  # two on C's diagonal
def test_non_finite_superoperator_certifies_nothing_without_a_warning(entry, where):
    s = np.eye(4, dtype=complex)
    s[where] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol_psd in (1e-9, 1e300, np.inf, np.nan):
            assert not _gershgorin_certifies(s, 2, tol_psd)


def test_overflow_certifies_nothing_without_a_warning():
    # The squares in |S|_F overflow, and so would a row plus a column sum of
    # |S| (2.4e308): delta is infinite, at any tolerance.
    s = np.full((4, 4), 3e307, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol_psd in (1e-9, 1e300):
            assert not _gershgorin_certifies(s, 2, tol_psd)
        big = SuperOperator(1e200 * depolarizing(_DISC_MIN_N, 0.5))
        assert not _gershgorin_certifies(big.matrix, _DISC_MIN_N, 1e-9)
        report = check_cptp(big)  # the discs, then the Cholesky, decline
        assert report.completely_positive and not report.trace_preserving


@pytest.mark.parametrize("n", [2, 4, _DISC_MIN_N, 8])
def test_dense_channel_is_left_to_one_cholesky(n, monkeypatch):
    # A full-Kraus-rank channel's Choi matrix is dense: the discs, tried
    # from N = _DISC_MIN_N, decline.
    s = SuperOperator(to_superoperator(
        random_kraus_map(np.random.default_rng(n), n)).matrix)
    made = []
    for name in ("eigvalsh", "cholesky"):
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            made.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert not _gershgorin_certifies(s.matrix, n, 1e-9)
    assert check_cptp(s).passed
    assert made == ["cholesky"]


def test_discs_are_tried_from_the_smallest_n(monkeypatch):
    # The near-diagonal depolarizing map (q = 0.01) is certified by the discs
    # at every N, but below _DISC_MIN_N check_cptp takes the Cholesky alone.
    made = []

    def counted(*args, _f=np.linalg.cholesky):
        made.append(len(args[0]))
        return _f(*args)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    for n in (_DISC_MIN_N - 1, _DISC_MIN_N):
        s = SuperOperator(depolarizing(n, 0.01))
        assert _gershgorin_certifies(s.matrix, n, 1e-9)
        assert check_cptp(s).passed
    assert made == [(_DISC_MIN_N - 1) ** 2]
