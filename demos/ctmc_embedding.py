#!/usr/bin/env python3
"""A classical rate matrix living inside a Lindblad generator.

Each positive rate R[i, j] becomes a rank-one jump operator
sqrt(R[i, j]) |i><j|. On diagonal states the generated evolution never
creates coherences, and its populations solve the classical master equation
dp/dt = R p exactly: the commuting square lift -> propagate -> readout
versus classical propagation closes to machine precision.

Run:  python3 demos/ctmc_embedding.py
"""

import numpy as np

from stoqlift import (ProbabilityVector, RateMatrix, ctmc_embedding,
                      ctmc_propagate, diagonal_preservation_check,
                      embed_diagonal, propagate, readout)

np.set_printoptions(precision=8, suppress=True)

rate = RateMatrix([[-1.0, 0.5, 0.2],
                   [0.7, -0.9, 0.3],
                   [0.3, 0.4, -0.5]])
gen = ctmc_embedding(rate)
print(f"embedded generator: {len(gen.jump_ops)} jump operators, "
      f"diagonal-preserving: {diagonal_preservation_check(gen)}")

p0 = ProbabilityVector([1.0, 0.0, 0.0])
print(f"\n{'t':>5} {'classical p(t)':>34} {'lifted populations':>34} {'gap':>10}")
for t in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
    classical = ctmc_propagate(rate, p0, t)
    lifted = readout(propagate(gen, embed_diagonal(p0), t))
    gap = np.abs(classical.entries - lifted.entries).max()
    print(f"{t:>5.2f} {np.array2string(classical.entries):>34} "
          f"{np.array2string(lifted.entries):>34} {gap:>10.2e}")

print("\na diagonal Hamiltonian may be added freely; it acts trivially on")
print("diagonal states, so the populations are unchanged:")
dressed = ctmc_embedding(rate, diagonal_h=[1.0, -2.0, 0.5])
lifted = readout(propagate(dressed, embed_diagonal(p0), 1.0))
plain = readout(propagate(gen, embed_diagonal(p0), 1.0))
print("max population shift:", np.abs(lifted.entries - plain.entries).max())
