"""``check_cptp`` decides complete positivity from a certificate where one
applies (the Kraus structure of a Kraus map's superoperator, or one Cholesky
factorisation of any other), but its verdict must be the spectral rule's:
the smallest eigenvalue of the Hermitian part of the Choi matrix at least
``-tol_psd max(1, max |lambda|)``. These tests hold it to that rule on
spectra whose smallest eigenvalue straddles the rule's floor.

The tolerances include 1e-17, which lies between 0 and the rounding of a
computed ``W W^dagger``: there a rank-deficient Kraus map's zero
eigenvalues can fall on either side of the floor, and the Kraus structure
must leave the verdict to the spectrum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stoqlift import KrausMap, SuperOperator, check_cptp, to_superoperator
from stoqlift.lifts import _completely_positive, _reshuffle

from random_ops import random_unitary

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
