"""Times a computation cannot honour are refused up front, naming the value.

``exp(t R)`` drifts off the stochastic matrices as ``t |R|`` grows (its
column sums miss one by about 1e-6 at t = 1e10 for unit rates) and is NaN
long before a float overflows, so a ``t`` too large for the rates is a
``ValueError``. The same holds for every exponential of the package: a GKSL
evolution must keep the trace and a unitary family must stay unitary
(exp(-iX t) is off by 1.21e-10 at t = 5e6, and the drift is not monotone in
t: it is 8.4e-11 at t = 1e8). A triviality demo runs forward over
a positive, finite span, and a scaling step must be positive with a finite
step count.
"""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from stoqlift import (DensityOperator, GkslGenerator, KernelFamily,
                      ProbabilityVector, RateMatrix, SuperOperatorFamily,
                      ctmc_propagate, dtmc_to_ctmc_scaling, propagate,
                      theta_markov_triviality_demo)
from stoqlift._arrays import TOL_TP, semigroup
from stoqlift.cli import main

from conftest import PAULI_X

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

RATE = RateMatrix([[-1.0, 1.0], [1.0, -1.0]])
CALLS = {
    "ctmc_propagate": lambda t: ctmc_propagate(RATE, ProbabilityVector([1.0, 0.0]), t),
    "dtmc_to_ctmc_scaling": lambda t: dtmc_to_ctmc_scaling(RATE, 1.0, t, [0.1]),
}


@pytest.mark.parametrize("t", [1e10, 1e300])
@pytest.mark.parametrize("name", list(CALLS))
def test_too_large_t_raises_naming_t_and_the_column_sum_error(name, t):
    with pytest.raises(ValueError, match=rf"t={re.escape(str(t))} .*column-sum error"):
        CALLS[name](t)


@pytest.mark.parametrize("name", list(CALLS))
def test_moderate_t_still_runs(name):
    assert CALLS[name](100.0)


@pytest.mark.parametrize("span", [-1.0, 0.0, np.nan, np.inf])
def test_triviality_span_must_be_positive_and_finite(span):
    calls = []
    with pytest.raises(ValueError, match="time span must be positive and finite"):
        theta_markov_triviality_demo(lambda h: calls.append(h) or np.eye(2), span, [10])
    assert not calls


def _run_cli(*argv):
    """Exit code, stdout, stderr and the warnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("demo", ["scaling", "ctmc-embedding"])
def test_cli_too_large_t_exits_one_without_warnings(demo):
    code, out, err, caught = _run_cli("demo", demo, "--t", "1e300")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "t=1e+300" in err
    assert not caught


@pytest.mark.parametrize("span", ["-1", "0"])
def test_cli_non_positive_span_exits_one(span):
    code, out, err, _ = _run_cli("demo", "theta-triviality", "--t-span", span)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and f"got {float(span)}" in err


DECAY = GkslGenerator(np.zeros((2, 2)), [[[0.0, 1.0], [0.0, 0.0]]])
#: Each evolution from time s to time t, as one library call.
EVOLUTIONS = {
    "propagate": lambda t, s: propagate(DECAY, DensityOperator(np.diag([0.0, 1.0])),
                                        t - s),
    "gksl-family": lambda t, s: SuperOperatorFamily.from_generator(
        DECAY, [0, 1]).superop(t, s),
    "unitary-family": lambda t, s: SuperOperatorFamily.from_hamiltonian(
        PAULI_X, [0, 1]).superop(t, s),
    "rate-family": lambda t, s: KernelFamily.from_rate_matrix(RATE, [0, 1]).kernel(t, s),
}


@pytest.mark.parametrize("name, t, s", [
    ("propagate", 1e300, 0.0), ("gksl-family", 1e300, 0.0),
    ("unitary-family", 1e300, 0.0), ("unitary-family", 1e7, 5e6),
    ("rate-family", 1e10, 0.0)])
def test_too_large_elapsed_time_raises_naming_it(name, t, s):
    with pytest.raises(ValueError, match=rf"t={re.escape(str(t - s))} is too large"):
        EVOLUTIONS[name](t, s)


@pytest.mark.parametrize("name", list(EVOLUTIONS))
def test_moderate_elapsed_time_still_evolves(name):
    assert EVOLUTIONS[name](100.0, 0.0) is not None


def test_unitary_member_is_refused_exactly_when_it_drifts_past_tol_tp():
    # The refusal rule itself, over a sweep of t rather than one grid: a
    # member of the unitary family raises iff |U^dagger U - I| of
    # U = exp(-iX t) exceeds TOL_TP, naming t and that drift.
    family = SuperOperatorFamily.from_hamiltonian(PAULI_X, [0, 1])
    refused = []
    for t in np.geomspace(1e5, 1e8, 61):
        u = semigroup(-1j * PAULI_X.astype(complex), t)
        drift = float(np.abs(u.conj().T @ u - np.eye(2)).max())
        refused.append(drift > TOL_TP)
        if refused[-1]:
            with pytest.raises(ValueError, match=rf"t={re.escape(str(t))} is too large "
                               rf".*\({drift:.3e}\)$"):
                family.superop(t, 0.0)
        else:
            assert family.superop(t, 0.0).n == 2
    assert any(refused) and not all(refused)


@pytest.mark.parametrize("t_star, epsilon, named", [
    (1.0, 1e-300, "epsilon=1e-300"), (1e-320, 0.1, "t_star=1e-320")])
def test_scaling_step_that_underflows_raises_naming_the_value(t_star, epsilon, named):
    with pytest.raises(ValueError, match=named):
        dtmc_to_ctmc_scaling(RATE, t_star, 1.0, [epsilon])


#: A decay generator whose jump entry is 1e5, so that 1e300 times its largest
#: Liouville entry (1e10) overflows; written out by the test that uses it.
STRONG_DECAY = "STRONG_DECAY"


@pytest.mark.parametrize("argv, named", [
    (["ck-checklist", "--kind", "gksl", "--family",
      str(DATA / "decay_generator.json"), "--grid", "0", "1", "1e300"], "t=1e+300"),
    (["ck-checklist", "--kind", "gksl", "--family", STRONG_DECAY,
      "--grid", "0", "1e-10", "1e300"], "t=1e+300"),
    (["ck-checklist", "--kind", "unitary", "--grid", "0", "1", "1e300"], "t=1e+300"),
    (["ck-checklist", "--kind", "unitary", "--grid", "0", "5e6", "1e7"],
     "t=5000000.0"),
    (["ck-checklist", "--kind", "pairwise-lift", "--grid", "0", "1", "1e300"],
     "t=1e+300"),
    (["theta-triviality", "--t-span", "1e300"], "t=1e+299"),
    (["scaling", "--epsilons", "1e-300"], "epsilon=1e-300"),
    (["scaling", "--t-star", "1e-320"], "t_star=1e-320"),
], ids=["gksl", "gksl-overflow", "unitary", "unitary-drift", "pairwise-lift",
        "theta-triviality", "scaling-epsilon", "scaling-t-star"])
def test_cli_refusal_exits_one_naming_the_value_without_warnings(argv, named, tmp_path):
    if STRONG_DECAY in argv:
        family = json.loads((DATA / "decay_generator.json").read_text())
        family["jumps"][0]["rows"][1][0] = [1e5, 0.0]
        path = tmp_path / "strong_decay.json"
        path.write_text(json.dumps(family), encoding="utf-8")
        argv = [str(path) if a == STRONG_DECAY else a for a in argv]
    code, out, err, caught = _run_cli("demo", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not caught
