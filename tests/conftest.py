import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from stoqlift._arrays import CK_TOLERANCE, numerical_rank
from stoqlift.kernels import _composition_triples
from stoqlift.lifts import (TOL_DIV, TOL_HERM, TOL_PSD, TOL_TP, QDivisibilityResult,
                            SuperOperator, _reshuffle, _same_dimension, check_cptp)

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=25)
settings.load_profile("ci")

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def loop_feasibility_program(g20, g10):
    """The n^2 + n feasibility program that the hand-written simplex solved
    before ``c_divisibility_check`` moved to one SVD, built row by row and
    kept as the reference: row ``product[i,j]`` is (X g10)[i, j] = g20[i, j]
    and row ``colsum[j]`` is sum_i X[i, j] = 1, over the row-major X."""
    n = g10.shape[0]
    labels, a_rows, b = [], [], []
    for i in range(n):
        for j in range(n):
            row = np.zeros(n * n)
            row[i * n:(i + 1) * n] = g10[:, j]
            a_rows.append(row)
            b.append(g20[i, j])
            labels.append(f"product[{i},{j}]")
    for j in range(n):
        row = np.zeros(n * n)
        row[j::n] = 1.0
        a_rows.append(row)
        b.append(1.0)
        labels.append(f"colsum[{j}]")
    return np.asarray(a_rows), np.asarray(b), labels


def reference_feasible(g20, g10, slack, rows=None):
    """Whether some X >= 0 meets every row of the reference program (or only
    ``rows`` of it) to within ``slack``, decided by scipy's HiGHS."""
    from scipy.optimize import linprog

    a, b, _ = loop_feasibility_program(np.asarray(g20), np.asarray(g10))
    if rows is not None:
        a, b = a[rows], b[rows]
    res = linprog(np.zeros(a.shape[1]), A_ub=np.vstack([a, -a]),
                  b_ub=np.concatenate([b + slack, slack - b]),
                  bounds=(0, None), method="highs")
    return res.status == 0


def lazy_kernel(rng, n, weight=0.3):
    """``(1 - weight) I + weight R`` with Dirichlet columns: well conditioned."""
    return (1.0 - weight) * np.eye(n) + weight * rng.dirichlet(np.ones(n), size=n).T


def kernel_of_nullity(rng, n, k):
    """A lazy kernel whose first k + 1 columns are equal: nullity k."""
    g = lazy_kernel(rng, n)
    g[:, 1:k + 1] = g[:, [0]]
    return g


def signed_factor_pair(seed, n=3, k=1):
    """A nullity-k gamma_10 and gamma_20 = X gamma_10 >= 0 for an X with unit
    column sums but some negative entries, or None when gamma_20 dips below 0."""
    rng = np.random.default_rng(seed)
    g10 = kernel_of_nullity(rng, n, k)
    x = rng.dirichlet(np.ones(n), size=n).T
    shift = rng.normal(size=(n, n)) * 0.3
    x += shift - shift.mean(axis=0)
    g20 = x @ g10
    return None if g20.min() < 0 else (g20, g10)


def svd_rule_q_divisibility(e_20, e_10, tolerance=TOL_DIV):
    """``q_divisibility_check`` as it was before the inverse certificate,
    kept as the reference: the singular values of e_10 are always computed
    and cut by ``numerical_rank`` before any inverse is taken."""
    _same_dimension(e_20.n, e_10.n, "e_20", "e_10")
    sv_10 = np.linalg.svd(e_10.matrix, compute_uv=False)
    rank_10 = numerical_rank(sv_10, tolerance)
    unique = rank_10 == sv_10.size
    if unique:
        candidate = e_20.matrix @ np.linalg.inv(e_10.matrix)
    else:
        u, s, vh = np.linalg.svd(e_10.matrix)
        scaled = e_20.matrix @ vh[:rank_10].conj().T / s[:rank_10]
        candidate = scaled @ u[:, :rank_10].conj().T
        recon = float(np.abs(candidate @ e_10.matrix - e_20.matrix).max())
        allowed = tolerance + np.linalg.norm(scaled, 2) * s[rank_10]
        if not recon <= allowed:
            sv_20 = np.linalg.svd(e_20.matrix, compute_uv=False)
            rank_20 = numerical_rank(sv_20, tolerance)
            reason = (f"rank obstruction: rank {rank_10} cannot factor rank {rank_20}"
                      if rank_10 < rank_20 else
                      f"no linear factorization exists (residual {recon:.3e})")
            return QDivisibilityResult("indivisible", None, None, reason,
                                       candidate=candidate)
    choi = _reshuffle(candidate, e_10.n)
    asymmetry = float(np.abs(choi - choi.conj().T).max())
    report = None
    if asymmetry <= max(TOL_HERM, tolerance):
        if asymmetry > TOL_HERM:
            candidate = _reshuffle((choi + choi.conj().T) / 2.0, e_10.n)
        report = check_cptp(SuperOperator(candidate),
                            tol_tp=max(TOL_TP, tolerance),
                            tol_psd=max(TOL_PSD, tolerance))
        if report.passed:
            reason = ("unique factor is CPTP" if unique
                      else "pseudo-inverse factor is CPTP")
            return QDivisibilityResult("divisible", SuperOperator(candidate),
                                       report, reason, candidate=candidate)
    reason = ("earlier map is invertible and its unique factor is not CPTP"
              if unique else
              "factor on the range of the earlier map is not CPTP; a CPTP "
              "completion off that range is not searched")
    return QDivisibilityResult("indivisible" if unique else "inconclusive",
                               None, report, reason, candidate=candidate)


def kept_spectra_checklist(family, tolerance=CK_TOLERANCE):
    """``ck_checklist`` as it was before its CP test took certificates, kept
    as the reference: every member's Choi spectrum is computed and kept
    before ``check_cptp`` runs, so the spectral rule decides each member.
    Returns the report's public values in field order, by name."""
    members, triples, worst = _composition_triples(family.grid, family.superop)
    asymmetry = max(m._hermitian_within(np.inf) for m in members)
    min_eigenvalue = min(float(m._choi_spectrum[0]) for m in members)
    passed = (all(r <= tolerance for r in family.identity_residuals.values())
              and worst <= tolerance and asymmetry <= TOL_HERM
              and all(check_cptp(m).passed for m in members))
    return {"passed": passed, "identity_residuals": dict(family.identity_residuals),
            "triples": triples, "max_composition_residual": worst,
            "min_choi_eigenvalue": min_eigenvalue, "max_choi_asymmetry": asymmetry,
            "tolerance": tolerance}


def assert_checklist_matches_kept_spectra(report, reference):
    """The verdict and the Choi numbers bit for bit; ``==`` and ``repr``
    read ``min_choi_eigenvalue`` with the other public values."""
    for name in ("passed", "min_choi_eigenvalue", "max_choi_asymmetry"):
        assert float(getattr(report, name)).hex() == float(reference[name]).hex()
    assert repr(report) == "CkChecklistReport({})".format(
        ", ".join(f"{name}={value!r}" for name, value in reference.items()))
    n = report._members[0].n
    moved = replace(report, _members=(SuperOperator(-np.eye(n * n)),))
    low = moved.min_choi_eigenvalue  # of -|Omega><Omega|: about -n
    assert low == pytest.approx(-n) and low != report.min_choi_eigenvalue
    assert moved != report
    assert repr(moved) == repr(report).replace(
        f"min_choi_eigenvalue={report.min_choi_eigenvalue!r}",
        f"min_choi_eigenvalue={low!r}")
    assert replace(report, _members=report._members[::-1]) == report


def q_bits(r):
    """A quantum divisibility result as comparable bits: verdict, reason,
    candidate and witness bytes, and the CPTP report."""
    return (r.verdict, r.reason,
            None if r.candidate is None else r.candidate.tobytes(),
            None if r.witness is None else r.witness.matrix.tobytes(),
            r.cptp_report)


def outcome(fn, *args, bits=q_bits):
    """``bits`` of what ``fn(*args)`` returns, or the type and message of
    what it raises, with the warnings it gives on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(fn(*args))
        except Exception as exc:  # the exception is the outcome compared
            result = ("raised", type(exc).__name__, str(exc))
    return result, [(w.category.__name__, str(w.message)) for w in caught]


def depolarizing(d, q):
    """Superoperator of ``rho -> q rho + (1 - q) tr(rho) I / d``."""
    v = np.eye(d).reshape(-1, order="F")
    return q * np.eye(d * d) + (1.0 - q) / d * np.outer(v, v)


def random_channel(rng, d, rank):
    g = rng.normal(size=(rank, d, d)) + 1j * rng.normal(size=(rank, d, d))
    w, v = np.linalg.eigh(np.einsum("bji,bjk->ik", g.conj(), g))
    kraus = g @ ((v / np.sqrt(w)) @ v.conj().T)
    return sum(np.kron(k.conj(), k) for k in kraus)
