"""Host-speed index: a fixed reference job timed between ops.

The benchmark runs on a shared 2-core host whose speed drifts by +-20 %
over tens of seconds, which swamps run-to-run comparisons. The loops time
this job (interpreter work, small numpy calls and one BLAS-sized product,
like the library's own mix, and none of the library's code) about every
``EVERY_S`` seconds. Dividing each op's latency by the job's mean time
around it over ``NOMINAL_S`` expresses it on a host of fixed speed; raw
figures stay in the run's detail file.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of the reference job on the 2-core Xeon host the benchmark
#: was defined on.
NOMINAL_S = 0.0027
#: Wall time between two samples of the reference job.
EVERY_S = 0.25
#: Half-width of the window of samples that sets the slowdown at one op.
WINDOW_S = 2.0

_SMALL = np.linspace(0.0, 1.0, 144).reshape(12, 12) + np.eye(12)
_LARGE = (np.linspace(-1.0, 1.0, 96 * 96)
          + 1j * np.linspace(1.0, -1.0, 96 * 96)).reshape(96, 96)


def reference_s() -> float:
    """Seconds one run of the reference job takes now."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(24):
        total += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
        total += float((_SMALL @ _SMALL).trace())
        acc = {}
        for i in range(150):
            acc[i % 7] = acc.get(i % 7, 0) + i * i
        total += sum(acc.values())
    total += float(np.linalg.eigvalsh(_LARGE @ _LARGE.conj().T)[0])
    if not np.isfinite(total):  # keeps the work observable
        raise ArithmeticError("reference job overflowed")
    return time.perf_counter() - start


class Sampler:
    """Samples the reference job at most every EVERY_S seconds of wall time."""

    def __init__(self):
        self.times = []
        self.samples = []
        self._next = 0.0
        self.tick()

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.times.append(now)
            self.samples.append(reference_s())
            self._next = time.perf_counter() + EVERY_S

    def slowdown(self, at) -> np.ndarray:
        """Host slowdown (> 1 on a slow host) at each time in ``at``: the
        mean reference time over the nominal one within +-WINDOW_S."""
        times = np.asarray(self.times)
        cum = np.concatenate([[0.0], np.cumsum(self.samples)])
        lo = np.searchsorted(times, np.asarray(at) - WINDOW_S)
        hi = np.maximum(np.searchsorted(times, np.asarray(at) + WINDOW_S), lo + 1)
        hi = np.minimum(hi, len(times))
        lo = np.minimum(lo, hi - 1)
        return (cum[hi] - cum[lo]) / (hi - lo) / NOMINAL_S
