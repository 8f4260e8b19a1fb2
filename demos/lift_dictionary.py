#!/usr/bin/env python3
"""From a transition matrix to a quantum channel and back.

Any column-stochastic matrix lifts to a completely positive, trace-preserving
map whose diagonal action reproduces the original transition probabilities:
embed a distribution as a diagonal operator, push it through the channel,
drop the coherences, read the diagonal back out. The squared-moduli
dictionary inverts the construction exactly.

Run:  python3 demos/lift_dictionary.py
"""

import numpy as np

from stoqlift import (ProbabilityVector, StochasticKernel, canonical_lift,
                      compatibility_check, dephase, dictionary_kernel,
                      embed_diagonal, readout, apply_kraus)

np.set_printoptions(precision=6, suppress=True)

rng = np.random.default_rng(42)
draw = rng.random((3, 3)) + 1e-12  # strictly positive columns, normalized
gamma = StochasticKernel(draw / draw.sum(axis=0))
print("random 3-state transition matrix (columns are distributions):")
print(gamma.matrix)

kmap = canonical_lift(gamma)
print(f"\ncanonical lift: {kmap.rank} rank-one Kraus operators, "
      f"trace preserving: {kmap.trace_preserving}")

back = dictionary_kernel(kmap)
print("\nsquared-moduli dictionary applied to the lift "
      f"(round-trip residual {np.abs(back.matrix - gamma.matrix).max():.2e}):")
print(back.matrix)

# The compatibility diagram: evolving the diagonal embedding and dephasing
# must equal evolving the probability vector with the kernel.
p = ProbabilityVector([0.5, 0.3, 0.2])
via_lift = readout(dephase(apply_kraus(kmap, embed_diagonal(p))))
via_kernel = gamma.matrix @ p.entries
print("\nprobability vector pushed through both routes:")
print("  lift route:  ", via_lift.entries)
print("  kernel route:", via_kernel)

report = compatibility_check(kmap, gamma, probes="basis")
print(f"\ncompatibility on all basis probes: "
      f"{'pass' if report.passed else 'FAIL'} "
      f"(worst residual {report.max_residual:.2e})")
