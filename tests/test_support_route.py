"""The support route of ``q_divisibility_check``.

When LU's inverse of e_10 certifies full rank, it is finite, so a zero row
of e_20 has a zero row of the factor for image. The check then moves and
multiplies only the rows of e_20 that are not zero (unless they are all
rows), and reads the witness's Choi asymmetry from those rows and their
partner rows ``(i, j) <-> (j, i)``. These tests hold it to the full product
``e_20 @ inv(e_10)``: the formed rows carry the product's bits, the others
are +0 where the product is zero, and the asymmetry, the CPTP report, the
verdict and the reason are the full product's, bit for bit. One formed row
is the exception: numpy takes a matrix-vector product for it, rounded
otherwise than its row of the full product, so it is held to the product's
verdict and reason and to its row within rounding.

The full product's zero rows are not always +0: at odd N the zgemm kernel
of the OpenBLAS this suite runs on writes -0.0 into some of them, which the
route's zeroed factor does not reproduce, so they are compared by value.
"""

import tracemalloc

import numpy as np
import pytest

from stoqlift import (StochasticKernel, SuperOperator, canonical_lift,
                      check_cptp, q_divisibility_check, to_superoperator)
from stoqlift import lifts
from stoqlift._arrays import EPS, TOL_DIV, TOL_HERM, TOL_PSD, TOL_TP
from stoqlift.lifts import _choi_asymmetry_of_rows, dephasing_projector

from conftest import depolarizing, random_channel


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=complex).view(np.uint64)


def float_bits(x) -> bytes:
    return np.float64(x).tobytes()


def stochastic(rng, n):
    m = rng.random((n, n)) + 0.05
    return m / m.sum(axis=0)


def unitary_channel_mix(rng, d):
    """Half a random unitary channel, half full depolarization: cond ~ 2."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(z)
    return 0.5 * np.kron(u.conj(), u) + 0.5 * depolarizing(d, 0.0)


def canonical(rng, d):
    """The canonical lift's superoperator of a random kernel, writable."""
    kmap = canonical_lift(StochasticKernel(stochastic(rng, d)))
    return to_superoperator(kmap).matrix.copy()


@pytest.fixture
def subset_calls(monkeypatch):
    """The ``rows`` of each row-subset asymmetry the check presets."""
    calls = []

    def spy(matrix, n, rows=None):
        if rows is not None:
            calls.append(np.array(rows))
        return _choi_asymmetry_of_rows(matrix, n, rows)

    monkeypatch.setattr(lifts, "_choi_asymmetry_of_rows", spy)
    return calls


def full_product_answer(e20, e10, tolerance=TOL_DIV):
    """The unique factor ``e20 @ inv(e10)`` with every row formed, both maps
    moved first by the power of two that puts e10's largest part in [1/2,
    1), as the check moves them; its Choi asymmetry over every row; and the
    verdict, reason and CPTP report the check gives it (no symmetrization:
    the inputs here stay out of that band)."""
    e20, e10 = (np.array(m, dtype=complex) for m in (e20, e10))
    k = -np.frexp(np.abs(e10.view(float)).max())[1]
    product = np.ldexp(e20.view(float), k).view(complex) @ np.linalg.inv(
        np.ldexp(e10.view(float), k).view(complex))
    factor = SuperOperator._adopt(product)
    asymmetry = factor._choi_asymmetry
    assert not TOL_HERM < asymmetry <= max(TOL_HERM, tolerance)
    report = None
    if asymmetry <= TOL_HERM:
        report = check_cptp(factor, tol_tp=max(TOL_TP, tolerance),
                            tol_psd=max(TOL_PSD, tolerance))
    if report is not None and report.passed:
        return product, asymmetry, report, "divisible", "unique factor is CPTP"
    return (product, asymmetry, report, "indivisible",
            "earlier map is invertible and its unique factor is not CPTP")


def assert_matches_full_product(e20, e10, calls, sparse=True):
    result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10))
    product, asymmetry, report, verdict, reason = full_product_answer(e20, e10)
    n = round(len(e20) ** 0.5)
    rows = np.flatnonzero(e20.any(axis=1))
    zero = np.setdiff1d(np.arange(n * n), rows)
    got = result.candidate
    assert (result.verdict, result.reason) == (verdict, reason)
    assert np.array_equal(bits(got[rows]), bits(product[rows]))
    assert not bits(got[zero]).any() and not product[zero].any()
    if not sparse:  # the full product itself
        assert np.array_equal(bits(got), bits(product))
    assert float_bits(_choi_asymmetry_of_rows(got, n, rows)) == float_bits(asymmetry)
    if result.witness is not None:
        assert result.witness.matrix is got
        assert float_bits(result.witness._choi_asymmetry) == float_bits(asymmetry)
    if report is None:
        assert result.cptp_report is None
    else:
        ours = result.cptp_report
        assert ours.trace_preserving == report.trace_preserving
        assert ours.completely_positive == report.completely_positive
        assert float_bits(ours.tp_residual) == float_bits(report.tp_residual)
        assert (float_bits(ours.min_choi_eigenvalue)
                == float_bits(report.min_choi_eigenvalue))
    assert len(calls) == sparse
    if sparse:
        assert np.array_equal(calls[0], rows)
    return result


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_canonical_lift_after_the_earlier_map(d, subset_calls):
    rng = np.random.default_rng(d)
    e10 = unitary_channel_mix(rng, d)
    result = assert_matches_full_product(canonical(rng, d) @ e10, e10, subset_calls)
    assert result.verdict == "divisible"


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dephased_output_later_map(d, subset_calls):
    rng = np.random.default_rng(10 + d)
    e10 = random_channel(rng, d, 2) @ unitary_channel_mix(rng, d)
    e20 = dephasing_projector(d) @ random_channel(rng, d, 3) @ e10
    result = assert_matches_full_product(e20, e10, subset_calls)
    assert result.verdict == "divisible"


@pytest.mark.parametrize("d", [2, 3, 4])
def test_support_not_closed_under_the_partner_rows(d, subset_calls):
    # Rows (0, 1) and (1, 1) only: the partner (1, 0) of row (0, 1) is a
    # zero row, so the map does not preserve Hermiticity, and its asymmetry
    # is read from that partner row.
    rng = np.random.default_rng(20 + d)
    e10 = unitary_channel_mix(rng, d)
    x = np.zeros((d * d, d * d), dtype=complex)
    x[[1, d + 1]] = rng.normal(size=(2, d * d)) + 1j * rng.normal(size=(2, d * d))
    result = assert_matches_full_product(x @ e10, e10, subset_calls)
    assert result.verdict == "indivisible" and result.cptp_report is None
    partnerless = _choi_asymmetry_of_rows(result.candidate, d, np.array([1]))
    assert partnerless == np.abs(result.candidate[1]).max() > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_small_asymmetry_from_a_partnerless_row(d, subset_calls):
    # A canonical lift plus 1e-11 on row (0, 1) alone: the asymmetry, about
    # 1e-11, lies below TOL_HERM, so the CPTP check reads the witness.
    rng = np.random.default_rng(30 + d)
    e10 = unitary_channel_mix(rng, d)
    e20 = canonical(rng, d)
    e20[1] += 1e-11 * rng.normal(size=d * d)
    result = assert_matches_full_product(e20 @ e10, e10, subset_calls)
    assert 0 < result.witness._choi_asymmetry <= TOL_HERM


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_map(d, subset_calls):
    e10 = unitary_channel_mix(np.random.default_rng(40 + d), d)
    result = assert_matches_full_product(np.zeros((d * d, d * d)), e10, subset_calls)
    assert result.verdict == "indivisible"
    assert result.cptp_report.tp_residual == 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dense_later_map_takes_the_full_product(d, subset_calls):
    rng = np.random.default_rng(50 + d)
    e10 = unitary_channel_mix(rng, d)
    result = assert_matches_full_product(random_channel(rng, d, 2) @ e10, e10,
                                         subset_calls, sparse=False)
    assert result.verdict == "divisible"


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_nonzero_row_takes_the_support_route(d, subset_calls):
    # The reset channel rho -> tr(rho) |0><0| fills row (0, 0) alone, formed
    # as one row times the inverse: a matrix-vector product. Each entry is
    # within twice the dot product's bound gamma_m |x| |inv(e_10)| (m = N^2,
    # complex, Higham 2002, section 3.6) of the full product's.
    m = d * d
    e10 = unitary_channel_mix(np.random.default_rng(60 + d), d)
    reset = np.zeros((m, m))
    reset[0, ::d + 1] = 1.0
    e20 = reset @ e10
    result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10))
    product, _, _, verdict, reason = full_product_answer(e20, e10)
    assert (result.verdict, result.reason) == (verdict, reason)
    assert result.verdict == "divisible"
    got = result.candidate
    bound = 4 * (m + 2) * EPS * (np.abs(e20[0]) @ np.abs(np.linalg.inv(e10)))
    assert (np.abs(got[0] - product[0]) <= bound).all()
    assert not bits(got[1:]).any()
    assert len(subset_calls) == 1 and np.array_equal(subset_calls[0], [0])
    assert (float_bits(result.witness._choi_asymmetry)
            == float_bits(_choi_asymmetry_of_rows(got, d)))


@pytest.mark.parametrize("d", [2, 3])
def test_declined_certificate_takes_the_full_product(d, subset_calls):
    # cond_2 = 1/q at half the rank rule's limit: full rank, but
    # |A|_F |A^-1|_F is above a quarter of the limit, so the SVD decides.
    n = d * d
    e10 = depolarizing(d, 2 * n * EPS / TOL_DIV)
    assert not lifts._inverse_certifies_full_rank(e10, np.linalg.inv(e10), TOL_DIV)
    e20 = canonical(np.random.default_rng(70 + d), d) @ e10
    assert_matches_full_product(e20, e10, subset_calls, sparse=False)


def test_row_subset_asymmetry_matches_all_rows():
    rng = np.random.default_rng(80)
    for d in (1, 2, 3, 5):
        m = d * d
        for count in range(m + 1):
            s = np.zeros((m, m), dtype=complex)
            rows = np.sort(rng.choice(m, count, replace=False))
            s[rows] = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
            whole = _choi_asymmetry_of_rows(s, d)
            assert float_bits(_choi_asymmetry_of_rows(s, d, rows)) == float_bits(whole)
            assert float_bits(SuperOperator._adopt(s)._choi_asymmetry) == float_bits(whole)
    s = s.copy()
    s[rows[0], 0] = np.nan
    assert np.isnan(_choi_asymmetry_of_rows(s, d, rows))


def test_support_route_peak_memory_at_n16():
    # The full product held the moved e_10, its inverse, the moved e_20 and
    # the product at once: a peak of 4.0 N^2 x N^2 complex arrays (1 MiB
    # each at N = 16). The route forms N rows of e_20 and of the product,
    # and scatters them into the inverse's memory, zeroed: 2.1 arrays.
    rng = np.random.default_rng(16)
    e10 = unitary_channel_mix(rng, 16)
    e20, e10 = SuperOperator(canonical(rng, 16) @ e10), SuperOperator(e10)
    q_divisibility_check(e20, e10)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        result = q_divisibility_check(e20, e10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.verdict == "divisible"
    assert peak <= 3.0 * 16 * 16 ** 4
