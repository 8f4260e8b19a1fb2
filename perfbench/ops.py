"""The unit of work shared by all workloads, and its oracle."""

from __future__ import annotations

import numpy as np


class Op:
    """One closed-loop operation with the answer its input has by construction.

    ``run()`` makes the library calls that are timed. ``check(out)`` compares
    their output with the label and returns ``None`` or a failure code named
    after the layer that answered wrongly. ``band`` marks inputs in the
    ill-conditioned band (condition number >= ``BAND_COND``, singular
    included): there a false negative, a raised exception or a timeout is
    the library's known defect, measured in ``ok_frac`` but not counted as
    a failed op, while a false positive still fails.
    ``run_traced(tracer, span)``
    replaces ``run`` in traced runs when the work happens in a child process.
    """

    __slots__ = ("kind", "run", "check", "label", "band", "run_traced")

    def __init__(self, kind, run, check, label="", band=False, run_traced=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.label = label
        self.band = band
        self.run_traced = run_traced


#: Condition number from which divisibility verdicts count as ill-conditioned.
BAND_COND = 1e6


def close(a, b, tol) -> bool:
    return bool(np.abs(np.asarray(a) - np.asarray(b)).max() <= tol)


def first_failure(checks):
    """The code of the first check that fails, or None; checks are (code, ok)."""
    for code, ok in checks:
        if not ok:
            return code
    return None


class OpTimeout(Exception):
    """An op ran past its workload's time limit and was interrupted."""


#: Failure-code prefixes of the divisibility checks, by function name.
CHECKS = {"q_divisibility_check": "lifts.q_div",
          "c_divisibility_check": "kernels.c_div"}


def exception_code(exc: BaseException) -> str:
    """Failure code of an exception: the divisibility check it passed
    through, else its type; ``.timeout`` when the op was interrupted."""
    outcome = "timeout" if isinstance(exc, OpTimeout) else "raised"
    frames = set()
    tb = exc.__traceback__
    while tb is not None:
        frames.add(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    for function, prefix in CHECKS.items():
        if function in frames:
            return f"{prefix}.{outcome}"
    return f"{outcome}.{type(exc).__name__}"
