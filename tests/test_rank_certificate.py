"""The inverse certificate of ``q_divisibility_check`` against the SVD rule.

When ``|e_10|_F |inv(e_10)|_F`` is at most a quarter of the condition limit
of ``_arrays.numerical_rank``, the check takes no SVD, and otherwise one full
SVD. These tests hold it to the reference ``svd_rule_q_divisibility`` of
``conftest``, which always cuts the singular values first: same verdict,
reason, candidate and witness bits, same exception, and no new warning.
Where the reference fails on valid input, a full-rank map that LU finds
singular, the check answers from its SVD; a non-finite map it refuses.
"""

import json

import numpy as np
import pytest

from stoqlift import (StochasticKernel, SuperOperator, c_divisibility_check,
                      q_divisibility_check)
from stoqlift._arrays import EPS, inverse_certifies_full_rank, numerical_rank
from stoqlift.cli import main
from stoqlift.kernels import TOL_DIV
from stoqlift.serialization import dump_json, superoperator_to_json

from conftest import depolarizing, outcome, random_channel, svd_rule_q_divisibility


def limit(n, tolerance):
    """The condition limit of ``numerical_rank`` for an n x n map."""
    return max(tolerance, n * EPS) / (n * EPS)


def assert_matches_svd_rule(e20, e10, tolerance=TOL_DIV):
    e20, e10 = SuperOperator(e20), SuperOperator(e10)
    ours = outcome(q_divisibility_check, e20, e10, tolerance)
    assert ours == outcome(svd_rule_q_divisibility, e20, e10, tolerance)
    return ours


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("tolerance", [TOL_DIV, 1e-6])
def test_depolarizing_steps_across_both_limits(d, tolerance):
    # cond_2 of depolarizing(d, q) is 1/q, and |A|_F |A^-1|_F is about
    # sqrt(d^2 - 1)/q: the steps of 1/q run from well inside the
    # certificate, past it and past the rule's limit.
    n = d * d
    rng = np.random.default_rng(d)
    routes = set()
    for inv_q in np.geomspace(limit(n, tolerance) / (40 * n), 40 * limit(n, tolerance), 31):
        e10 = depolarizing(d, 1.0 / inv_q)
        certified = inverse_certifies_full_rank(e10, np.linalg.inv(e10), tolerance)
        full = numerical_rank(np.linalg.svd(e10, compute_uv=False), tolerance) == n
        assert full or not certified
        routes.add((certified, full))
        for e20 in (random_channel(rng, d, 2) @ e10, np.eye(n)):
            assert_matches_svd_rule(e20, e10, tolerance)
    assert routes == {(True, True), (False, True), (False, False)}


def test_svd_runs_only_without_the_certificate(monkeypatch):
    calls, inverses = [], []
    svd, inv = np.linalg.svd, np.linalg.inv

    def counting_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def counting_inv(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    rng = np.random.default_rng(0)
    e10 = depolarizing(2, 0.5)
    e20 = random_channel(rng, 2, 2) @ e10
    result = q_divisibility_check(SuperOperator(e20), SuperOperator(e10))
    assert result.verdict == "divisible" and calls == [] and len(inverses) == 1
    e10 = depolarizing(2, 0.0)
    result = q_divisibility_check(SuperOperator(depolarizing(2, 0.0)), SuperOperator(e10))
    assert result.verdict == "divisible"
    assert calls == [True]  # one SVD, with vectors
    assert len(inverses) == 2  # the second raised: LU finds e10 singular


def test_uncertified_full_rank_map_takes_only_singular_values(monkeypatch):
    # At q = 1e-6, cond_2 = 1e6 is inside the rule's limit (1.1e6 at n = 4)
    # but |A|_F |A^-1|_F is not inside a quarter of it: the inverse is used
    # uncertified, and the rank needs the singular values alone.
    e10 = depolarizing(2, 1e-6)
    assert not inverse_certifies_full_rank(e10, np.linalg.inv(e10), TOL_DIV)
    e20 = random_channel(np.random.default_rng(2), 2, 2) @ e10
    reference = outcome(svd_rule_q_divisibility, SuperOperator(e20), SuperOperator(e10))
    calls, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    ours = outcome(q_divisibility_check, SuperOperator(e20), SuperOperator(e10))
    assert calls == [False]  # one SVD, values only
    assert ours == reference
    assert ours[0][0] == "divisible"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_earlier_map(bad):
    e10 = depolarizing(2, 0.5)
    e10[1, 2] = bad
    result, caught = outcome(q_divisibility_check, SuperOperator(np.eye(4)),
                             SuperOperator(e10))
    assert result == ("raised", "ValidationError",
                      "e_10 has a non-finite entry (NaN or infinity)")
    assert caught == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_later_map(bad):
    e20 = np.eye(4)
    e20[1, 2] = bad
    result, caught = outcome(q_divisibility_check, SuperOperator(e20),
                             SuperOperator(depolarizing(2, 0.5)))
    assert result == ("raised", "ValidationError",
                      "e_20 has a non-finite entry (NaN or infinity)")
    assert caught == []


def test_exactly_singular_earlier_map():
    rng = np.random.default_rng(1)
    for e10 in (depolarizing(2, 0.0), np.zeros((4, 4))):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(e10)
        for e20 in (random_channel(rng, 2, 1) @ e10, np.eye(4)):
            assert_matches_svd_rule(e20, e10)
            assert_matches_svd_rule(e20, e10, 0.0)


@pytest.mark.parametrize("scale", [1e-160, 1e-310])
def test_tiny_earlier_map_whose_inverse_overflows(scale):
    # At 1e-160 the inverse is finite but its Frobenius norm overflows; at
    # 1e-310 (subnormal) the inverse itself is infinite.
    e10 = scale * depolarizing(2, 0.5)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(np.linalg.inv(e10)))
    for e20 in (depolarizing(2, 0.5), np.eye(4)):
        assert_matches_svd_rule(e20, e10)


#: Normal and subnormal scales (the smallest normal double is 2.2e-308).
SCALES = (1e300, 1.0, 1e-100, 1e-300, 2.2250738585072014e-308, 1e-308, 1e-309, 1e-310)


@pytest.mark.parametrize("tolerance", [0.0, 1e-12, TOL_DIV, 1e-3])
def test_rank_is_the_same_at_every_scale(tolerance):
    # The kept values stay far enough above the subnormal range at every
    # scale that their ratios to the largest keep their leading digits.
    s = np.array([1.0, 0.5, 1e-2, 1e-6, 1e-10, 1e-14, 0.0])
    expected = numerical_rank(s, tolerance)
    assert expected == {0.0: 1, 1e-12: 3, TOL_DIV: 3, 1e-3: 5}[tolerance]
    for a in SCALES:
        assert numerical_rank(a * s, tolerance) == expected, a
    assert numerical_rank(0.0 * s, tolerance) == 0


def test_subnormal_earlier_map_keeps_its_rank():
    # 1e-310 D has condition number 2: no rank obstruction, and the factor
    # 1e310 I of D over it is not trace preserving.
    d = depolarizing(2, 0.5)
    result = q_divisibility_check(SuperOperator(d), SuperOperator(1e-310 * d))
    assert result.verdict == "indivisible"
    assert result.reason == "earlier map is invertible and its unique factor is not CPTP"


def test_huge_factor_declines_the_cholesky_certificate_without_a_warning():
    # The factor of D over 1e-160 D has entries near 1e160, whose Frobenius
    # norm overflows: the certificate declines, the spectrum decides, and
    # no RuntimeWarning is raised (warnings are errors in this suite).
    d = depolarizing(2, 0.5)
    result = q_divisibility_check(SuperOperator(d), SuperOperator(1e-160 * d))
    assert result.verdict == "indivisible"
    assert result.reason == "earlier map is invertible and its unique factor is not CPTP"


@pytest.mark.parametrize("scale", [1e-300, 1e-308, 1e-310])
def test_tiny_map_over_itself_is_divisible(scale):
    # The identity divides a map by itself. At 1e-310 the inverse is
    # infinite and its factor NaN, so the SVD forms the factor instead.
    e = SuperOperator(scale * depolarizing(2, 0.5))
    result = q_divisibility_check(e, e)
    assert result.verdict == "divisible"
    assert result.reason == "unique factor is CPTP"
    np.testing.assert_allclose(result.witness.matrix, np.eye(4), atol=1e-12)


def test_classical_check_inverts_a_subnormal_kernel():
    # The classical check cuts by the same rule: X g over g divides through
    # the inverse at every scale down to 1e-310, and g over 1e-310 g does not.
    g = np.array([[0.7, 0.2], [0.3, 0.8]])
    x = np.array([[0.6, 0.3], [0.4, 0.7]])
    for a in (1.0, 1e-300, 1e-310):
        result = c_divisibility_check(StochasticKernel(a * x @ g, tol_colsum=1.0),
                                      StochasticKernel(a * g, tol_colsum=1.0))
        assert result.divisible and result.route == "inverse"
        np.testing.assert_allclose(result.witness.matrix, x, atol=1e-12)
    result = c_divisibility_check(StochasticKernel(x @ g),
                                  StochasticKernel(1e-310 * g, tol_colsum=1.0))
    assert not result.divisible and result.route == "inverse"


def test_full_rank_map_that_lu_finds_singular(tmp_path, capsys):
    # At tolerance 1e6 the rule keeps all four singular values of this rank-2
    # matrix, yet LU finds it exactly singular: the SVD forms the factor.
    e10 = np.arange(1.0, 17.0).reshape(4, 4)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(e10)
    assert numerical_rank(np.linalg.svd(e10, compute_uv=False), 1e6) == 4
    result = q_divisibility_check(SuperOperator(np.eye(4)), SuperOperator(e10), 1e6)
    assert result.verdict == "indivisible" and result.witness is None
    assert result.reason == ("earlier map is singular to LU but full rank at this "
                             "tolerance, and its factor is not CPTP")
    paths = [tmp_path / "later.json", tmp_path / "earlier.json"]
    for path, m in zip(paths, (np.eye(4), e10)):
        dump_json(superoperator_to_json(SuperOperator(m)), path)
    code = main(["--tol", "1e6", "divisibility", "--mode", "quantum", *map(str, paths)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verdicts"]["verdict"] == "indivisible"


def test_certificate_bounds():
    a = depolarizing(2, 0.5)
    inv = np.linalg.inv(a)
    assert inverse_certifies_full_rank(a, inv, TOL_DIV)
    # No product of norms is at most a quarter of the limit 1 at tolerance 0.
    assert not inverse_certifies_full_rank(a, inv, 0.0)
    # The rule keeps no direction at an infinite or NaN tolerance.
    for tolerance in (np.inf, np.nan):
        assert numerical_rank(np.linalg.svd(a, compute_uv=False), tolerance) == 0
        assert not inverse_certifies_full_rank(a, inv, tolerance)
    # A limit above 1 / (n eps) is capped there, so n eps times the product
    # stays at most 1/4: this product is within a quarter of the limit at
    # tolerance 1e3 but certifies nothing.
    bad = depolarizing(2, 1e-15)
    bad_inv = np.linalg.inv(bad)
    product = np.linalg.norm(bad) * np.linalg.norm(bad_inv)
    assert 4 * product <= limit(4, 1e3) and 4 * EPS * product > 0.25
    assert not inverse_certifies_full_rank(bad, bad_inv, 1e3)
