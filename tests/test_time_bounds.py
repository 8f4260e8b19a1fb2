"""Times a computation cannot honour are refused up front, naming the value.

``exp(t R)`` drifts off the stochastic matrices as ``t |R|`` grows (its
column sums miss one by about 1e-6 at t = 1e10 for unit rates) and is NaN
long before a float overflows, so a ``t`` too large for the rates is a
``ValueError``. A triviality demo runs forward over a positive, finite span.
"""

import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from stoqlift import (ProbabilityVector, RateMatrix, ctmc_propagate,
                      dtmc_to_ctmc_scaling, theta_markov_triviality_demo)
from stoqlift.cli import main

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
