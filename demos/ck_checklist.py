#!/usr/bin/env python3
"""Certifying (or refuting) the composition law of a lifted family.

A two-parameter family of channels is Chapman-Kolmogorov consistent when
S(s,s) is the identity and S(t,s) = S(t,u) S(u,s) for all s <= u <= t. The
checklist tests on the grid (A) normalization at equal times, (B) the
composition law on every triple s < u < t, and (C) that every member
S(t,s) is CPTP (its smallest Choi eigenvalue is not negative).

Three families make the point: a unitary rotation family and a dissipative
semigroup pass; a family built by lifting each two-time kernel of a rotation
independently fails, because dephase-then-rotate does not compose.

Run:  python3 demos/ck_checklist.py
"""

import numpy as np

from stoqlift import (GkslGenerator, KernelFamily, SuperOperatorFamily,
                      ck_checklist)
from scipy.linalg import expm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
GRID = [0.0, 0.4, 1.0]


def show(name, family):
    report = ck_checklist(family, tolerance=1e-6)
    print(f"{name}:")
    print(f"  (A) worst identity residual at coincidence: "
          f"{report.max_identity_residual:.3e}")
    print(f"  (B) worst composition residual:             "
          f"{report.max_composition_residual:.3e}")
    print(f"  (C) smallest Choi eigenvalue of a member:   "
          f"{report.min_choi_eigenvalue:.3e}")
    print(f"  verdict: {'composes' if report.passed else 'DOES NOT compose'}")
    print()


show("unitary rotation family exp(-i X (t-s))",
     SuperOperatorFamily.from_hamiltonian(PAULI_X, GRID))

decay = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
show("dissipative semigroup (single decay jump)",
     SuperOperatorFamily.from_generator(GkslGenerator(np.zeros((2, 2)), [decay]),
                                        GRID))

moduli_family = KernelFamily.from_theta(
    lambda t, s: expm(-1j * PAULI_X * (t - s)), GRID)
show("pairwise canonical lift of the rotation's squared-moduli kernels",
     SuperOperatorFamily.from_kernel_family(moduli_family))

print("the pairwise family already fails at coincidence: the canonical lift")
print("of the identity kernel is the dephasing channel, not the identity")
print("map, and composing two of its members is off at order one.")
