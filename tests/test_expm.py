"""The package's matrix exponential, ``_arrays.expm``, against scipy's.

``scipy.linalg.expm`` is the reference here only: the package takes every
``exp(tA)`` with its own numpy scaling and squaring (Higham 2005, Algorithm
2.3), so that no CLI process that exponentiates imports ``scipy.linalg``.
Across ``|tA|_1`` from 1e-8 to 1e3 the two agree to a small multiple of
``n eps max(1, |tA|_1)``, the rounding an exponential of that norm carries
(Higham 2002, ch. 10).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import stoqlift
from stoqlift import GkslGenerator
from stoqlift._arrays import EPS, expm, semigroup

from random_ops import random_rate_matrix

ROOT = Path(__file__).resolve().parent.parent
NORMS = [1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 1e2, 1e3]


def norm_1(a):
    return float(np.abs(a).sum(axis=0).max())


def rate(rng, n):
    return random_rate_matrix(rng, n).matrix


def anti_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return -1j * (h + h.conj().T)


def gksl(rng, n):
    h = anti_hermitian(rng, n) * 1j
    jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(2)]
    return GkslGenerator(h, jumps).superoperator.matrix


def rate_chain(rng, n):
    """A one-way chain with rates spread over two decades: far from normal."""
    rates = np.geomspace(1.0, 100.0, n - 1)[rng.permutation(n - 1)]
    return np.diag(rates, -1) - np.diag(np.append(rates, 0.0))


FAMILIES = {"rate": rate, "anti-hermitian": anti_hermitian, "gksl": gksl,
            "rate-chain": rate_chain}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_agrees_with_scipy_across_norms(family, n):
    rng = np.random.default_rng(n)
    a = FAMILIES[family](rng, n)
    size = a.shape[0]
    for target in NORMS:
        ta = a * (target / norm_1(a))
        ours, reference = expm(ta, norm_1(ta)), scipy_expm(ta)
        error = norm_1(ours - reference) / norm_1(reference)
        assert error <= 8 * size * EPS * max(1.0, target), (target, error)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_zero_matrix_gives_the_identity_exactly(n, dtype):
    out = expm(np.zeros((n, n), dtype=dtype), 0.0)
    assert out.dtype == dtype
    assert out.tobytes() == np.eye(n, dtype=dtype).tobytes()


@pytest.mark.parametrize("x", [0.0, -3.5, 700.0, 1e-300, 2.5 - 4j, -1j * 1e6])
def test_one_by_one_is_the_scalar_exponential(x):
    a = np.array([[x]])
    assert expm(a, abs(x)).tobytes() == np.exp(a).tobytes()
    assert expm(a, abs(x)).tobytes() == scipy_expm(a).tobytes()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_coincident_times_give_the_identity_exactly(family):
    a = FAMILIES[family](np.random.default_rng(0), 3)
    assert semigroup(a, 0.0).tobytes() == np.eye(len(a), dtype=a.dtype).tobytes()


def test_overflowing_squarings_are_non_finite_without_a_warning():
    # exp(800) overflows; the filterwarnings = error setting turns any
    # numpy warning into a failure.
    a = np.array([[800.0, 1.0], [0.0, 0.0]])
    assert not np.isfinite(expm(a, norm_1(a))).all()
    with pytest.raises(ValueError, match="t=1.0 is too large"):
        semigroup(a, 1.0)


def test_unitary_drift_at_five_million():
    # The README's figure: exp(-iXt) is off unitarity by about 1.2e-10 at
    # t = 5e6, beyond TOL_TP, so a unitary family refuses that gap.
    u = semigroup(-1j * np.array([[0.0, 1.0], [1.0, 0.0]]), 5e6)
    drift = float(np.abs(u.conj().T @ u - np.eye(2)).max())
    assert 1e-10 < drift < 2e-10


DEMOS = [["ck-checklist", "--kind", "unitary"],
         ["ck-checklist", "--kind", "gksl", "--family", "demos/data/decay_generator.json"],
         ["ck-checklist", "--kind", "pairwise-lift"],
         ["theta-triviality"],
         ["scaling", "--rate", "demos/data/symmetric_rate.json"],
         ["phase-memory"],
         ["ctmc-embedding", "--rate", "demos/data/symmetric_rate.json"]]


@pytest.mark.parametrize("argv", DEMOS, ids=lambda argv: " ".join(argv[:3]))
def test_demo_process_leaves_scipy_linalg_unloaded(argv):
    # Importing scipy.linalg costs 150-250 ms of a CLI process's start.
    src = str(Path(stoqlift.__file__).resolve().parents[1])
    script = ("import contextlib, io, sys\n"
              "from stoqlift.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              f"    main(['demo', *{argv!r}])\n"
              "print('scipy.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
