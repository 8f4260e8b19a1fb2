"""Composable lifted families: generators, propagation, and the CK checklist.

A two-parameter family of lifted maps that composes (Chapman-Kolmogorov
property) and is differentiable admits a time-local generator in
Gorini-Kossakowski-Sudarshan-Lindblad form. This module builds the generator
superoperator, a consistent short-time Kraus choice, finite-time propagation,
the embedding of a classical rate matrix, and the three-part checklist
(normalization at coincidence, composition on grid triples, CPTP members)
that certifies a supplied family on its grid.
The generator is a left-right map, and every Liouville matrix here is built
by :func:`stoqlift.lifts.to_superoperator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .kernels import CkTripleResidual, RateMatrix, _composition_triples
from ._arrays import (CK_TOLERANCE, FD_STEP, TOL_HERM, TOL_TP, frozen as _frozen,
                      require_hermitian as _require_hermitian, semigroup as _semigroup,
                      same_dimension as _same_dimension, square as _square,
                      square_stack as _square_stack, strict_grid as _strict_grid)
from .lifts import (DensityOperator, KrausMap, LeftRightMap, SuperOperator,
                    _diagonal_images_offdiagonal, _rank_one_stack, canonical_lift,
                    check_cptp, to_superoperator, unvec, vec)


class GkslGenerator:
    """Time-local generator: Hamiltonian part plus jump-operator dissipators.

    It is the left-right map ``K rho + rho K~ + sum_j J rho J^dagger`` with
    ``K = -iH - D``, ``K~ = +iH - D`` and ``D = 1/2 sum_j J^dagger J``; using
    ``K~`` rather than ``K^dagger`` cancels H in the trace exactly even when H
    is Hermitian only to within ``tol_herm``. The jumps are one read-only
    ``(r, N, N)`` stack, kept with the drift ``K``. The generated superoperator
    annihilates the trace (checked at construction), so finite-time
    propagation is trace preserving.
    """

    def __init__(self, hamiltonian, jump_ops: Sequence[np.ndarray] = (),
                 tol_herm: float = TOL_HERM):
        h = _square(hamiltonian, "hamiltonian")
        _require_hermitian(h, tol_herm, "hamiltonian")
        n = h.shape[0]
        jumps = _square_stack(jump_ops, "jump operator")
        if len(jumps) and jumps.shape[1] != n:
            raise DimensionMismatchError(
                "jump operators must match the Hamiltonian dimension")
        self._hamiltonian = _frozen(h.copy())
        self._jumps = _frozen(jumps.reshape(len(jumps), n, n))
        adjoints = self._jumps.conj().transpose(0, 2, 1)
        dissipation = 0.5 * (adjoints @ self._jumps).sum(axis=0)
        self._drift = _frozen(-1j * h - dissipation)
        eye = np.eye(n)
        self._liouville = to_superoperator(LeftRightMap(
            [self._drift, eye, *self._jumps], [eye, 1j * h - dissipation, *adjoints]))
        s = self._liouville.matrix
        trace_action = np.abs(vec(eye) @ s).max()
        scale = max(1.0, float(np.abs(s).max()))
        if not trace_action <= TOL_TP * scale:  # only non-finite jumps reach this
            raise ValidationError(
                f"generator does not annihilate the trace ({trace_action:.3e})")

    @property
    def hamiltonian(self) -> np.ndarray:
        return self._hamiltonian

    @property
    def jump_ops(self) -> tuple[np.ndarray, ...]:
        """The jump operators in input order, as read-only views of the stack."""
        return tuple(self._jumps)

    @property
    def superoperator(self) -> SuperOperator:
        """Liouville matrix of the generator (acts on vectorized operators)."""
        return self._liouville

    @property
    def n(self) -> int:
        return self._hamiltonian.shape[0]

    @classmethod
    def zero(cls, n: int) -> "GkslGenerator":
        return cls(np.zeros((n, n)))

    def __repr__(self):
        return f"GkslGenerator(n={self.n}, jumps={len(self._jumps)})"


def gksl_superoperator(gen: GkslGenerator) -> SuperOperator:
    """Liouville matrix of the generator (acts on vectorized operators)."""
    return gen.superoperator


def short_time_kraus(gen: GkslGenerator, dt: float) -> KrausMap:
    """Operator-sum map of one short step of the generator.

    The near-identity operator ``I + dt K`` absorbs the Hamiltonian and the
    dissipative drift at first order; each jump operator enters with weight
    sqrt(dt). The map is trace preserving to O(dt^2) and reproduces the
    generator's action to first order.
    """
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"time step must be positive and finite, got {dt}")
    return KrausMap([np.eye(gen.n) + dt * gen._drift, *(np.sqrt(dt) * gen._jumps)])


def propagate(gen: GkslGenerator, rho0: DensityOperator, t: float) -> DensityOperator:
    """Evolve a state for time ``t`` under a constant generator."""
    _same_dimension(gen.n, rho0.n, "generator", "state")
    evolution = _semigroup(gen.superoperator.matrix, t, vec(np.eye(gen.n)), TOL_TP)
    return DensityOperator(unvec(evolution @ vec(rho0.matrix)))


def propagate_piecewise(segments: Sequence[tuple[GkslGenerator, float]],
                        rho0: DensityOperator) -> DensityOperator:
    """Piecewise-constant propagation: apply each (generator, duration) in order.

    This is the supported route for time-dependent generators; the caller
    picks the grid.
    """
    rho = rho0
    for gen, duration in segments:
        rho = propagate(gen, rho, duration)
    return rho


def ctmc_embedding(rate: RateMatrix | np.ndarray,
                   diagonal_h: Sequence[float] | None = None) -> GkslGenerator:
    """Embed a classical rate matrix as a generator with rank-one jumps.

    One jump operator ``sqrt(rate[i, j]) |i><j|`` per positive off-diagonal
    rate, plus an optional Hamiltonian that is diagonal in the configuration
    basis (default zero). On diagonal states the evolution stays diagonal and
    the populations follow the classical master equation exactly.
    """
    r = rate if isinstance(rate, RateMatrix) else RateMatrix(rate)
    n = r.n
    if diagonal_h is None:
        h = np.zeros((n, n))
    else:
        d = np.asarray(diagonal_h, dtype=float).reshape(-1)
        if d.size != n:
            raise DimensionMismatchError(
                f"diagonal Hamiltonian has {d.size} entries, expected {n}")
        h = np.diag(d)
    keep = (r.matrix > 0) & ~np.eye(n, dtype=bool)
    return GkslGenerator(h, _rank_one_stack(r.matrix, keep))


def diagonal_preservation_check(gen: GkslGenerator,
                                tolerance: float = TOL_HERM) -> bool:
    """True when the generator maps every diagonal state to a diagonal one.

    The basis projectors decide the property by linearity.
    """
    worst = _diagonal_images_offdiagonal(gen.superoperator.matrix, gen.n)
    return worst <= tolerance


class SuperOperatorFamily:
    """Two-parameter family of superoperators over a time grid.

    Normalization at coincidence (``superop(s, s)`` equal to the identity) is
    a *checked* property, recorded per grid time in ``identity_residuals``
    and gated by the checklist, not a construction precondition: pairwise
    lifts of a kernel family genuinely violate it, and probing exactly that
    defect is part of this module's job.
    """

    def __init__(self, grid: Sequence[float],
                 superop_fn: Callable[[float, float], object]):
        self.grid = _strict_grid(grid)
        self._fn = superop_fn
        residuals = {}
        for s in self.grid:
            m = self.superop(float(s), float(s)).matrix
            residuals[float(s)] = float(np.abs(m - np.eye(m.shape[0])).max())
        self.identity_residuals = residuals

    def superop(self, t: float, s: float) -> SuperOperator:
        if t < s:
            raise ValueError(f"superop requires t >= s, got t={t}, s={s}")
        out = self._fn(t, s)
        if isinstance(out, SuperOperator):
            return out
        return SuperOperator(np.asarray(out, dtype=complex))

    @classmethod
    def from_generator(cls, gen: GkslGenerator | SuperOperator,
                       grid: Sequence[float]) -> "SuperOperatorFamily":
        """Semigroup family ``exp((t - s) L)`` of a constant generator."""
        trace = vec(np.eye(gen.n)) if isinstance(gen, GkslGenerator) else None
        l_matrix = (gen if trace is None else gen.superoperator).matrix
        return cls(grid, lambda t, s: _semigroup(l_matrix, t - s, trace, TOL_TP))

    @classmethod
    def from_hamiltonian(cls, hamiltonian, grid: Sequence[float]
                         ) -> "SuperOperatorFamily":
        """Unitary-conjugation family generated by a constant Hamiltonian."""
        h = _square(hamiltonian, "hamiltonian")
        _require_hermitian(h, TOL_HERM, "hamiltonian")

        def conjugation(t, s):
            kmap = KrausMap([_semigroup(-1j * h, t - s)])
            if not kmap.trace_preserving:
                raise ValueError(f"t={t - s} is too large for the Hamiltonian: exp(-itH) "
                                 f"is not unitary ({kmap.completeness_residual:.3e})")
            return to_superoperator(kmap)
        return cls(grid, conjugation)

    @classmethod
    def from_kernel_family(cls, family, lift: str = "canonical",
                           grid: Sequence[float] | None = None
                           ) -> "SuperOperatorFamily":
        """Pairwise lift of a kernel family, one lift per (t, s) independently.

        Nothing makes such a family compose; feeding it to the checklist is
        how one finds out.
        """
        if lift != "canonical":
            raise ValueError(f"unsupported lift choice {lift!r}")
        g = family.grid if grid is None else grid
        return cls(g, lambda t, s: to_superoperator(
            canonical_lift(family.kernel(t, s))))


def generator_from_family(family: SuperOperatorFamily, t: float,
                          fd_step: float = FD_STEP) -> SuperOperator:
    """Finite-difference time-local generator of a family at time ``t``: the
    derivative of ``superop(., t)`` at coincidence by the second-order
    one-sided rule on {t, t+h, t+2h}, as families only run forward in time."""
    if not 0 < fd_step < np.inf:
        raise ValueError(
            f"finite-difference step must be positive and finite, got {fd_step}")
    here, plus, plus2 = (family.superop(t + k * fd_step, t).matrix for k in range(3))
    return SuperOperator((-3.0 * here + 4.0 * plus - plus2) / (2.0 * fd_step))


@dataclass(frozen=True)
class CkChecklistReport:
    """Results of the composition checklist on a family.

    check A: identity residual at coincidence, per grid time.
    check B: composition residual ``|S(t,s) - S(t,u) S(u,s)|`` per grid
    triple s < u < t; ``max_composition_residual`` is the worst.
    check C: every member ``S(t, s)``, s < t, is CPTP; ``min_choi_eigenvalue``
    is the smallest eigenvalue of the Hermitian parts of their Choi matrices,
    ``max_choi_asymmetry`` the worst entry of ``C - C^dagger`` over them.
    """

    passed: bool
    identity_residuals: dict[float, float]
    triples: tuple[CkTripleResidual, ...]
    max_composition_residual: float
    min_choi_eigenvalue: float
    max_choi_asymmetry: float
    tolerance: float

    @property
    def max_identity_residual(self) -> float:
        return max(self.identity_residuals.values())

    @property
    def max_forward_residual(self) -> float:
        """``max_composition_residual`` under the name of the earlier
        forward-equation check, for callers that still read it."""
        return self.max_composition_residual


def ck_checklist(family: SuperOperatorFamily,
                 tolerance: float = CK_TOLERANCE) -> CkChecklistReport:
    """Run the Chapman-Kolmogorov checklist on a superoperator family.

    It passes when ``S(s, s)`` is the identity at every grid time and
    ``S(t, s) = S(t, u) S(u, s)`` on every grid triple, both to within
    ``tolerance``, and when ``check_cptp`` at its defaults passes every member
    ``S(t, s)`` (one whose Choi asymmetry exceeds ``TOL_HERM`` fails, not
    raises); the reported asymmetry and eigenvalue are the members' kept ones.
    Each grid pair is evaluated once; the grid needs at least 3 times. A
    member with a non-finite entry raises ``ValidationError``.
    """
    members, triples, worst = _composition_triples(family.grid, family.superop)
    asymmetry = max(m._hermitian_within(np.inf) for m in members)  # NaN raises
    # Kept first, the spectra decide each check_cptp below.
    min_eigenvalue = min(float(m._choi_spectrum[0]) for m in members)
    passed = (all(r <= tolerance for r in family.identity_residuals.values())
              and worst <= tolerance and asymmetry <= TOL_HERM
              and all(check_cptp(m).passed for m in members))
    return CkChecklistReport(passed, dict(family.identity_residuals), triples, worst,
                             min_eigenvalue, asymmetry, tolerance)
