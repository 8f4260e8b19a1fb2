"""Operator-side objects and the stochastic-to-quantum dictionary.

A transition kernel is *lifted* to a linear map on N x N complex matrices
whose diagonal restriction reproduces the kernel: embed a probability vector
as a diagonal operator, apply the map, project back onto the diagonal, and
read out the probabilities. Trace preservation of the map corresponds to
column-stochasticity of the induced kernel, complete positivity to its
entrywise nonnegativity.

Vectorization is column-stacking throughout: ``vec(A X B) = kron(B.T, A) vec(X)``.
Kraus operators are stored as one read-only ``(r, N, N)`` array, so a Choi
matrix is the one product ``V V^dagger`` of the stacked vecs, and one index
reshuffle (an involution) turns it into the Liouville matrix and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from ._arrays import (EPS, KRAUS_DROP_NORM, PINV_RCOND, TOL_DIV, TOL_HERM, TOL_PROB,
                      TOL_PSD, TOL_STOCH, TOL_TP, frozen as _frozen,
                      asymmetry_within as _asymmetry_within,
                      hermitian_part as _hermitian_part,
                      inverse_certifies_full_rank as _inverse_certifies_full_rank,
                      numerical_rank as _numerical_rank,
                      require_hermitian as _require_hermitian,
                      require_psd as _require_psd,
                      same_dimension as _same_dimension, square as _square,
                      square_stack as _square_stack)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (KernelValidationReport, ProbabilityVector,
                      StochasticKernel, validate_kernel)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(vector).reshape(-1)
    n = _root(v.size, "vector length")
    return v.reshape(n, n, order="F")


def _root(size: int, what: str) -> int:
    """N with N^2 = ``size``; another size raises ``DimensionMismatchError``."""
    n = round(size ** 0.5)
    if n * n != size:
        raise DimensionMismatchError(f"{what} {size} is not a perfect square")
    return n


def _reshuffle(matrix: np.ndarray, n: int) -> np.ndarray:
    """Liouville matrix <-> Choi matrix index reshuffle (an involution)."""
    return matrix.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def _diagonal_images_offdiagonal(matrix: np.ndarray, n: int) -> float:
    """Largest off-diagonal entry of the images of the basis projectors: rows
    off the positions i(N+1) of columns i(N+1), which are vec(map(|i><i|))."""
    diagonal = np.arange(n) * (n + 1)
    images = matrix[:, diagonal]
    return float(np.abs(np.delete(images, diagonal, axis=0)).max(initial=0.0))


def diagonal_injection(n: int) -> np.ndarray:
    """The n^2 x n matrix D with vec(diag(p)) = D p.

    Its transpose extracts the diagonal of a vectorized operator.
    """
    return np.eye(n * n)[:, ::n + 1].copy()


def dephasing_projector(n: int) -> np.ndarray:
    """The n^2 x n^2 projector P with vec(diag-part of X) = P vec(X)."""
    d = diagonal_injection(n)
    return d @ d.T


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite N x N complex matrix."""

    def __init__(self, matrix, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD):
        m = _square(matrix, "density operator")
        _require_hermitian(m, tol_herm, "density operator")
        trace_err = abs(np.trace(m) - 1.0)
        if not trace_err <= tol_herm:
            raise ValidationError(f"trace differs from 1 by {trace_err:.3e}")
        _require_psd(m, tol_psd, "density operator")
        self._matrix = _frozen(m.copy())

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def basis_projector(cls, index: int, n: int) -> "DensityOperator":
        """Rank-one projector onto the ``index``-th configuration basis vector."""
        m = np.zeros((n, n), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    def __repr__(self):
        return f"DensityOperator(n={self.n})"


class KrausMap:
    """Operator-sum map ``rho -> sum_b K_b rho K_b^dagger``.

    The operators are stored as one read-only ``(r, N, N)`` complex array, a
    copy of the input. Near-zero operators (Frobenius norm below
    ``KRAUS_DROP_NORM``) are dropped at construction; a non-finite one is
    kept, so its map is not trace preserving. Trace preservation is
    recorded as a checked flag, not required: short-time maps are only trace
    preserving to leading order. The map owns one ``SuperOperator``, the
    reshuffled ``V^T conj(V)`` (row b of V is the column-stacked vec of K_b),
    formed on first use and kept; it holds the Choi data of both forms and
    the Kraus rank, from which ``check_cptp`` passes complete positivity.
    ``canonical_reduction`` re-extracts at most N^2 operators from the Choi
    spectrum when a redundant set has accumulated.
    """

    def __init__(self, operators: Iterable[np.ndarray], tol_tp: float = TOL_TP):
        stack = _square_stack(operators, "Kraus operator")
        stack = stack[~(np.linalg.norm(stack, axis=(1, 2)) < KRAUS_DROP_NORM)]
        if not len(stack):
            raise ValidationError("Kraus map needs at least one nonzero operator")
        n = stack.shape[1]
        self._stack = _frozen(stack)
        # sum_b K_b^dagger K_b as one product over the stacked rows of all K_b.
        rows = self._stack.reshape(-1, n)
        self.completeness_residual = float(
            np.abs(rows.conj().T @ rows - np.eye(n)).max())
        self.trace_preserving = self.completeness_residual <= tol_tp

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        """The operators in input order, as read-only views of the stack."""
        return tuple(self._stack)

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    @property
    def rank(self) -> int:
        return len(self._stack)

    @cached_property
    def _superoperator(self) -> "SuperOperator":
        v = self._stack.transpose(0, 2, 1).reshape(self.rank, -1)
        superop = SuperOperator(_reshuffle(v.T @ v.conj(), self.n))
        superop._kraus_rank = self.rank
        return superop

    def _tp_residual(self) -> float:
        return self.completeness_residual

    def _induced(self) -> tuple[np.ndarray, dict]:
        """Squared-moduli dictionary, checked against the left-right reading
        ``sum_b K_b o conj(K_b)`` of the same action (equal up to rounding)."""
        kernel = (np.abs(self._stack) ** 2).sum(axis=0)
        action = (self._stack * self._stack.conj()).real.sum(axis=0)
        return kernel, {"dictionary_residual": float(np.abs(kernel - action).max())}

    def canonical_reduction(self, cutoff: float = PINV_RCOND) -> "KrausMap":
        """Minimal Kraus set (at most N^2 operators) from the Choi spectrum."""
        return kraus_from_choi(choi_from_kraus(self), cutoff=cutoff)

    def __repr__(self):
        return f"KrausMap(n={self.n}, rank={self.rank})"


class LeftRightMap:
    """General linear map ``rho -> sum_b A_b rho B_b`` (not necessarily positive).

    A_b and B_b are stored as two read-only ``(r, N, N)`` complex stacks;
    ``left_ops`` and ``right_ops`` are tuples of read-only views of them.
    """

    def __init__(self, left_ops: Iterable[np.ndarray], right_ops: Iterable[np.ndarray]):
        left, right = list(left_ops), list(right_ops)
        if len(left) != len(right):
            raise DimensionMismatchError(
                f"left/right operator counts differ: {len(left)} vs {len(right)}")
        if not left:
            raise ValidationError("left-right map needs at least one term")
        stack = _frozen(_square_stack(left + right, "left/right operator"))
        self._left, self._right = stack[:len(left)], stack[len(left):]
        self.left_ops = tuple(self._left)
        self.right_ops = tuple(self._right)

    @property
    def n(self) -> int:
        return self._left.shape[1]

    @property
    def _superoperator(self) -> "SuperOperator":
        """A new one from the Choi matrix ``sum_b vec(A_b) vec(B_b^T)^T``."""
        r = len(self._left)
        choi = self._left.transpose(0, 2, 1).reshape(r, -1).T @ self._right.reshape(r, -1)
        return SuperOperator(_reshuffle(choi, self.n))

    def _induced(self) -> tuple[np.ndarray, dict]:
        """Diagonal action ``sum_b A_b o B_b^T``, with the trace condition."""
        left, right = self._left, self._right
        kernel = np.real((left * right.transpose(0, 2, 1)).sum(axis=0))
        trace_cond = (right @ left).sum(axis=0)
        return kernel, {"trace_condition_residual":
                        float(np.abs(trace_cond - np.eye(self.n)).max()),
                        "has_negative_entries": bool(kernel.min() < -TOL_PROB)}

    def __repr__(self):
        return f"LeftRightMap(n={self.n}, terms={len(self._left)})"


class SuperOperator:
    """N^2 x N^2 matrix acting on column-stacked vectorized operators, and the
    one owner of its Choi matrix's Hermiticity and spectrum: once computed it
    keeps the worst entry of ``C - C^dagger`` and the spectrum of the
    Hermitian part of C (one ``eigvalsh``), never C, for every Choi question.
    """

    #: Kraus rank r when the matrix is a Kraus map's reshuffled ``V^T
    #: conj(V)``, set by ``KrausMap._superoperator``; 0 for any other.
    _kraus_rank = 0

    def __init__(self, matrix):
        self._matrix = _frozen(_square(matrix, "superoperator").copy())
        self._n = _root(len(self._matrix), "superoperator side")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        """Dimension of the underlying operator space (the N in N^2 x N^2)."""
        return self._n

    @classmethod
    def identity(cls, n: int) -> "SuperOperator":
        return cls(np.eye(n * n, dtype=complex))

    @property
    def _superoperator(self) -> "SuperOperator":
        return self

    @cached_property
    def _choi_asymmetry(self) -> float:
        """Worst entry of C - C^dagger (NaN if any is): S[i,j,k,l] - conj(S[j,i,l,k])."""
        s = self._matrix.reshape((self._n,) * 4)
        return float(np.abs(s - s.transpose(1, 0, 3, 2).conj()).max())

    def _hermitian_within(self, tol_herm: float) -> float:
        """``_choi_asymmetry``, raising ``ValidationError`` above ``tol_herm``."""
        return _asymmetry_within(self._choi_asymmetry, tol_herm, "Choi matrix")

    def _hermitian_choi(self) -> np.ndarray:
        """The Hermitian part of the Choi matrix, a new array."""
        return _hermitian_part(_reshuffle(self._matrix, self._n))

    @cached_property
    def _choi_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part of the Choi matrix."""
        return _frozen(np.linalg.eigvalsh(self._hermitian_choi()))

    def _kraus_rounding_bound(self) -> float:
        """``2 (r + N^2) eps tr(C)`` for a Kraus map's superoperator, r its
        Kraus rank: no computed eigenvalue of the Hermitian part of the
        computed ``W W^dagger`` lies below minus this bound. The product's
        error E has ``|E| <= gamma_r |W| |W|^dagger`` entrywise, so
        ``|E|_2 <= r eps |W|_F^2 = r eps tr(C)`` (Higham 2002, ch. 3, with the
        complex factor of section 3.6), and ``eigvalsh`` is backward stable,
        each eigenvalue within about ``N^2 eps |C|_2`` of the exact one (LAPACK
        Users' Guide, section 4.7); ``tr(C) >= |C|_2`` for a PSD C, and tr(C)
        sums the induced kernel."""
        return 2 * (self._kraus_rank + self._n ** 2) * EPS * float(self._induced()[0].sum())

    def _passes_cp(self, tol_psd: float) -> bool:
        """``_completely_positive`` of the Choi spectrum: a kept spectrum
        decides, else a certificate that applies, else one ``eigvalsh``."""
        return ("_choi_spectrum" not in vars(self) and (
                    tol_psd > self._kraus_rounding_bound() if self._kraus_rank
                    else _cholesky_certifies(self._hermitian_choi(), tol_psd))
                or _completely_positive(self._choi_spectrum, tol_psd))

    def _tp_residual(self) -> float:
        vec_id = vec(np.eye(self._n))
        return float(np.abs(vec_id @ self._matrix - vec_id).max())

    def _induced(self) -> tuple[np.ndarray, dict]:
        """Index lookup ``S[j(N+1), i(N+1)]``: diagonal in, diagonal out."""
        d = np.arange(self._n) * (self._n + 1)
        return np.real(self._matrix[np.ix_(d, d)]), {}

    def __repr__(self):
        return f"SuperOperator(n={self.n})"


class ChoiMatrix:
    """Choi matrix of a map, a view of the superoperator it reshuffles to;
    positive semidefiniteness encodes complete positivity. ``asymmetry``, the
    worst entry of ``C - C^dagger``, above ``tol_herm`` (or NaN) raises
    ``ValidationError``. ``matrix`` is reshuffled per read; the spectrum,
    computed on first read, and the certificates are the superoperator's."""

    def __init__(self, matrix, tol_herm: float = TOL_HERM):
        m = _square(matrix, "Choi matrix")
        s = SuperOperator(_reshuffle(m, _root(len(m), "Choi matrix side")))
        self._superoperator, self.asymmetry = s, s._hermitian_within(tol_herm)

    @property
    def matrix(self) -> np.ndarray:
        return _frozen(_reshuffle(self._superoperator.matrix, self._superoperator.n))

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._superoperator._choi_spectrum

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def is_completely_positive(self, tol_psd: float = TOL_PSD) -> bool:
        return self._superoperator._passes_cp(tol_psd)


def _completely_positive(eigenvalues: np.ndarray, tol_psd: float) -> bool:
    """Scale-aware positivity of an ascending spectrum: the floor grows with it."""
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    return float(eigenvalues[0]) >= -tol_psd * scale


def _cholesky_certifies(herm: np.ndarray, tol_psd: float) -> bool:
    """Whether one Cholesky factorisation shows that ``_completely_positive``
    passes the spectrum of the Hermitian ``herm`` (n x n) at ``tol_psd``.

    It factors ``herm + (tol_psd - delta) I`` with ``delta = 4 n^2 eps
    (|herm|_F + tol_psd)``. Success means ``herm + (tol_psd - delta) I + dA``
    is PSD for a backward error with ``|dA|_2 <= n gamma_(n+1) |herm +
    (tol_psd - delta) I|_2`` (Higham 2002, Thm 10.3 and section 10.1; about
    ``n^2 eps`` of the shifted matrix in complex arithmetic), and
    ``eigvalsh`` moves each eigenvalue by at most about ``n eps |herm|_2``
    more; delta covers both. So every computed eigenvalue is at least
    ``-tol_psd``, which the rule's floor ``-tol_psd max(1, max |lambda|)``
    never exceeds. With ``tol_psd <= delta`` (NaN included), or when the
    factorisation fails, it certifies nothing and the spectrum decides, as
    when ``|herm|_F`` overflows. ``herm`` is shifted in place.
    """
    n = len(herm)
    with np.errstate(over="ignore"):  # an infinite norm makes delta infinite
        delta = 4 * n * n * EPS * (float(np.linalg.norm(herm)) + tol_psd)
    if not tol_psd > delta:
        return False
    herm.reshape(-1)[::n + 1] += tol_psd - delta
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        return False
    return True


MapLike = Union[KrausMap, LeftRightMap, SuperOperator]


def _supported(map_, *types):
    if not isinstance(map_, types):
        raise TypeError(f"unsupported map type {type(map_).__name__}")
    return map_


def choi_from_kraus(kmap: KrausMap) -> ChoiMatrix:
    """Choi matrix ``sum_b vec(K_b) vec(K_b)^dagger``, a view of the map's one
    superoperator, sharing its Kraus certificate and spectrum."""
    return choi_from_superoperator(kmap._superoperator)


def choi_from_superoperator(s: SuperOperator) -> ChoiMatrix:
    """The Choi matrix of ``s``, a view of it; refused above ``TOL_HERM``."""
    choi = ChoiMatrix.__new__(ChoiMatrix)
    choi._superoperator, choi.asymmetry = s, s._hermitian_within(TOL_HERM)
    return choi


def kraus_from_choi(choi: ChoiMatrix, cutoff: float = PINV_RCOND) -> KrausMap:
    """Kraus operators from the eigendecomposition of a PSD Choi matrix."""
    n = choi._superoperator.n
    eigvals, eigvecs = np.linalg.eigh(_hermitian_part(choi.matrix))
    scale = max(float(eigvals.max()), 1.0)
    keep = eigvals[::-1] > cutoff * scale
    if not keep.any():
        raise ValidationError("Choi matrix has no positive spectral weight")
    vecs = (eigvecs[:, ::-1][:, keep] * np.sqrt(eigvals[::-1][keep])).T
    return KrausMap(vecs.reshape(-1, n, n).transpose(0, 2, 1))


def embed_diagonal(p: ProbabilityVector) -> DensityOperator:
    """Represent a probability vector as a diagonal density operator."""
    return DensityOperator(np.diag(p.entries.astype(complex)))


def dephase(rho: DensityOperator) -> DensityOperator:
    """Project onto the diagonal in the configuration basis (idempotent, trace preserving)."""
    return DensityOperator(np.diag(np.diag(rho.matrix)))


def readout(rho: DensityOperator, require_diagonal: bool = False,
            tol: float = TOL_HERM) -> ProbabilityVector:
    """Diagonal entries of a density operator as a probability vector.

    With ``require_diagonal`` the off-diagonal mass must not exceed ``tol``;
    otherwise the operator is dephased first.
    """
    m = rho.matrix
    off = m - np.diag(np.diag(m))
    off_mass = float(np.abs(off).max())
    if require_diagonal and off_mass > tol:
        raise ValidationError(
            f"operator is not diagonal: off-diagonal mass {off_mass:.3e}")
    return ProbabilityVector(np.real(np.diag(m)), tol=TOL_HERM, tol_sum=TOL_HERM)


def apply_kraus(kmap: KrausMap, rho: DensityOperator) -> DensityOperator:
    """Apply an operator-sum map to a state.

    Hermiticity and positivity are preserved for any Kraus set; the trace is
    preserved exactly when the map is trace preserving, so the result is
    validated as a density operator.
    """
    _same_dimension(kmap.n, rho.n, "map", "state")
    k = kmap._stack
    return DensityOperator((k @ rho.matrix @ k.conj().transpose(0, 2, 1)).sum(axis=0))


@dataclass(frozen=True)
class CptpReport:
    """Trace-preservation and complete-positivity check of a map.

    ``min_choi_eigenvalue``, the smallest eigenvalue of the Hermitian part of
    the Choi matrix, is read from the spectrum the checked map's
    superoperator keeps, computed on first read. Two reports are equal when
    these four values are.
    """

    trace_preserving: bool
    tp_residual: float
    completely_positive: bool
    # Not compared: ``__eq__`` reads the four values, the hash the three fields.
    _superoperator: SuperOperator = field(compare=False)

    @property
    def min_choi_eigenvalue(self) -> float:
        return float(self._superoperator._choi_spectrum[0])

    @property
    def passed(self) -> bool:
        return self.trace_preserving and self.completely_positive

    def _values(self) -> tuple:
        return (self.trace_preserving, self.tp_residual, self.completely_positive,
                self.min_choi_eigenvalue)

    def __eq__(self, other):
        if not isinstance(other, CptpReport):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return ("CptpReport(trace_preserving={!r}, tp_residual={!r}, "
                "completely_positive={!r}, min_choi_eigenvalue={!r})"
                .format(*self._values()))


def check_cptp(map_: KrausMap | SuperOperator, tol_tp: float = TOL_TP,
               tol_psd: float = TOL_PSD) -> CptpReport:
    """Report whether a map is a quantum channel (CPTP).

    The trace residual is the map's own (a Kraus map's completeness
    residual). Complete positivity is the verdict of the spectral rule,
    smallest Choi eigenvalue at least ``-tol_psd max(1, max |lambda|)``, but
    the spectrum is taken only where no certificate decides:

    - a Kraus map and its superoperator pass with no factorisation when
      ``tol_psd`` exceeds the rounding bound ``2 (r + N^2) eps tr(C)`` of the
      computed ``W W^dagger`` (``SuperOperator._kraus_rounding_bound``);
    - any other superoperator passes when one Cholesky factorisation of
      ``H + (tol_psd - delta) I``, H the Hermitian part of the Choi matrix,
      succeeds (``_cholesky_certifies``);
    - otherwise one ``eigvalsh`` decides, and the superoperator keeps it.

    ``min_choi_eigenvalue`` is computed on the report's first read, so a
    caller reading only ``passed`` takes no diagonalisation, and both forms
    of one lift share at most one. The tolerances, and the refusal of a Choi
    asymmetry above ``TOL_HERM`` (NaN included), apply on every call.
    """
    tp_residual = _supported(map_, KrausMap, SuperOperator)._tp_residual()
    superop = map_._superoperator
    superop._hermitian_within(TOL_HERM)
    return CptpReport(tp_residual <= tol_tp, tp_residual,
                      superop._passes_cp(tol_psd), superop)


@dataclass(frozen=True)
class InducedKernelReport:
    """Transition kernel read off the diagonal action of a lift.

    Entry (j, i) is the diagonal weight the map sends from basis projector i
    to basis projector j. For Kraus input ``dictionary_residual`` compares
    the squared moduli with the action ``sum_b K_b o conj(K_b)`` (the two
    routes agree identically); for left-right input the trace condition
    ``sum_b B_b A_b = I`` and entrywise negativity are flagged, since
    nothing enforces them there.
    """

    kernel: np.ndarray
    validation: KernelValidationReport
    dictionary_residual: float | None = None
    trace_condition_residual: float | None = None
    has_negative_entries: bool = False


def induced_kernel(map_: MapLike) -> InducedKernelReport:
    """Diagonal action of a map on the basis projectors, read in closed form."""
    kernel, checks = _supported(map_, KrausMap, LeftRightMap, SuperOperator)._induced()
    return InducedKernelReport(_frozen(kernel), validate_kernel(kernel), **checks)


def dictionary_kernel(kmap: KrausMap, tol_tp: float = TOL_TP) -> StochasticKernel:
    """Squared-moduli dictionary: kernel entry (j, i) = sum_b |K_b[j, i]|^2.

    Trace preservation of the map makes the result column-stochastic, so a
    non-trace-preserving map is rejected with its completeness residual.
    """
    if not kmap.completeness_residual <= tol_tp:
        raise ValidationError(
            "map is not trace preserving: completeness residual "
            f"{kmap.completeness_residual:.3e} exceeds {tol_tp:.1e}")
    return StochasticKernel(kmap._induced()[0],
                            tol_colsum=max(TOL_STOCH, kmap.completeness_residual * 2))


def _rank_one_stack(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """One operator ``sqrt(m[j, i]) |j><i|`` per kept entry, column by column."""
    cols, rows = np.nonzero(keep.T)
    ops = np.zeros((len(rows), *m.shape), dtype=complex)
    ops[np.arange(len(rows)), rows, cols] = np.sqrt(m[rows, cols])
    return ops


def canonical_lift(gamma: StochasticKernel) -> KrausMap:
    """Rank-one lift of a kernel: one operator ``sqrt(gamma[j,i]) |j><i|`` per entry.

    Always a quantum channel; its squared-moduli dictionary returns the input
    kernel identically. Zero-weight operators are dropped.
    """
    m = gamma.matrix
    return KrausMap(_rank_one_stack(m, np.sqrt(m) >= KRAUS_DROP_NORM))


@dataclass(frozen=True)
class ThetaConjugationReport:
    """Conjugation lift ``rho -> theta rho theta^dagger`` and its induced kernel.

    The conjugation map is completely positive for any matrix but trace
    preserving exactly when ``theta`` is unitary; the induced kernel is the
    entrywise squared moduli of ``theta``.
    """

    left_right: LeftRightMap
    trace_preserving: bool
    tp_residual: float
    kernel: np.ndarray
    kernel_validation: KernelValidationReport


def theta_conjugation_lift(theta, tol_tp: float = TOL_TP) -> ThetaConjugationReport:
    """Lift a complex matrix by conjugation and report the induced kernel."""
    th = _square(theta, "theta")
    tp_residual = float(np.abs(th.conj().T @ th - np.eye(th.shape[0])).max())
    kernel = np.abs(th) ** 2
    return ThetaConjugationReport(
        LeftRightMap([th], [th.conj().T]),
        tp_residual <= tol_tp, tp_residual,
        _frozen(kernel), validate_kernel(kernel))


def barandes_column_lift(theta) -> KrausMap:
    """Column-selector Kraus set ``K_b = theta P_b`` of a matrix with stochastic moduli.

    Dephases in the configuration basis and then conjugates; always a quantum
    channel, and it agrees with plain conjugation on every diagonal input.
    """
    th = _square(theta, "theta")
    report = validate_kernel(np.abs(th) ** 2)
    if not report.passed:
        raise ValidationError(
            "squared moduli of theta are not column-stochastic "
            f"(worst column-sum error {report.max_column_sum_error:.3e})",
            report=report)
    n = th.shape[0]
    ops = np.zeros((n, n, n), dtype=complex)
    beta = np.arange(n)
    ops[beta, :, beta] = th.T
    return KrausMap(ops)


@dataclass(frozen=True)
class CompatibilityReport:
    """Residuals of the lift-compatibility diagram on probe distributions."""

    passed: bool
    max_residual: float
    residuals: tuple[float, ...]


def compatibility_check(map_: MapLike, gamma: StochasticKernel,
                        probes: Sequence[ProbabilityVector] | str = "basis",
                        tol: float = TOL_PROB) -> CompatibilityReport:
    """Verify that dephasing the lifted evolution reproduces the kernel.

    For each probe p the residual is ``max | diag(map(diag(p))) - gamma @ p |``,
    that is ``max | K @ p - gamma @ p |`` with K the induced kernel; by
    linearity the N basis point masses (``probes="basis"``) decide it.
    """
    n = _supported(map_, KrausMap, LeftRightMap, SuperOperator).n
    _same_dimension(n, gamma.n, "map", "kernel")
    if isinstance(probes, str):
        if probes != "basis":
            raise ValueError(f"unknown probe specification {probes!r}")
        columns = np.eye(n)
    else:
        probe_list = list(probes)
        if not probe_list:
            raise ValueError("compatibility check needs at least one probe")
        for p in probe_list:
            _same_dimension(p.n, n, "probe", "kernel")
        columns = np.column_stack([p.entries for p in probe_list])
    residuals = np.abs(map_._induced()[0] @ columns - gamma.matrix @ columns).max(axis=0)
    worst = float(residuals.max())
    return CompatibilityReport(worst <= tol, worst, tuple(map(float, residuals)))


def to_superoperator(map_: KrausMap | LeftRightMap) -> SuperOperator:
    """Liouville matrix of an operator-sum or left-right map.

    For a Kraus map it returns the map's one superoperator, the same object
    on every call, so ``check_cptp`` of both forms shares its Kraus
    certificate and at most one diagonalisation; a left-right map gets a new
    one. The conversion checks, factors and diagonalises nothing.
    """
    return _supported(map_, KrausMap, LeftRightMap)._superoperator


def superop_kernel_extract(s: SuperOperator) -> np.ndarray:
    """Induced kernel of a superoperator: inject, evolve, dephase, read out."""
    return s._induced()[0]


@dataclass(frozen=True)
class QDivisibilityResult:
    """Verdict of a quantum divisibility query.

    ``verdict`` is ``"divisible"``, ``"indivisible"`` or ``"inconclusive"``.
    The candidate factor (when one exists linearly) and its CPTP report are
    recorded; the report is None when the candidate's Choi matrix is too
    asymmetric to be Hermitian. Inconclusive means: the candidate matches
    on the range of the earlier map but is not CPTP there, and a CPTP
    completion off that range, a semidefinite feasibility search, is out of
    scope here.
    """

    verdict: str
    witness: SuperOperator | None
    cptp_report: CptpReport | None
    reason: str
    candidate: np.ndarray | None = None


def q_divisibility_check(e_20: SuperOperator, e_10: SuperOperator,
                         tolerance: float = TOL_DIV) -> QDivisibilityResult:
    """Decide whether e_20 factors through e_10 as a quantum channel.

    A NaN or infinite entry in either map raises ``ValidationError``. e_10 is
    inverted by LU once, and no SVD is taken if ``|e_10|_F |inv(e_10)|_F``,
    a bound on cond_2(e_10), is at most a fixed quarter of the limit
    ``max(tolerance, n eps) / (n eps)`` (``_arrays.inverse_certifies_full_rank``).
    Otherwise, LU singular included, the singular values of e_10 are cut by
    the classical check's rule (``_arrays.numerical_rank``); its singular
    vectors are computed only to form a factor from them. With none cut, the
    CPTP check of the unique factor ``e_20 @ inv(e_10)`` decides, formed as
    ``e_20 V S^-1 U^dagger`` if LU found e_10 singular, or if that is finite
    and the inverse's is not (e_10 of subnormal scale). Otherwise the
    candidate ``e_20 V_r S_r^-1 U_r^dagger`` of a cut map must reproduce e_20
    to within ``tolerance + |candidate|_2 s_(r+1)``, or the pair is
    indivisible (a rank obstruction when e_20 has the larger rank); a
    candidate that does but is not CPTP is inconclusive. A witness's Choi
    asymmetry above ``max(TOL_HERM, tolerance)`` is not CPTP; a smaller one
    is symmetrized away first.
    """
    _same_dimension(e_20.n, e_10.n, "e_20", "e_10")
    for name, m in (("e_20", e_20.matrix), ("e_10", e_10.matrix)):
        if not np.isfinite(m).all():
            raise ValidationError(f"{name} has a non-finite entry (NaN or infinity)")
    try:
        inverse = np.linalg.inv(e_10.matrix)
    except np.linalg.LinAlgError:  # exactly singular to LU: the SVD decides
        inverse = None
    certified = inverse is not None and _inverse_certifies_full_rank(
        e_10.matrix, inverse, tolerance)
    rank_10 = size = e_10.matrix.shape[0]
    u = None
    if not certified:
        if inverse is None:
            u, s, vh = np.linalg.svd(e_10.matrix)
        else:
            s = np.linalg.svd(e_10.matrix, compute_uv=False)
        rank_10 = _numerical_rank(s, tolerance)
    unique = rank_10 == size
    candidate = e_20.matrix @ inverse if unique and inverse is not None else None
    # An uncertified inverse may be infinite (e_10 of subnormal scale), or its
    # factor overflow: the SVD forms the factor instead, kept if it is finite.
    fallback = not (candidate is None or certified or np.isfinite(candidate).all())
    if candidate is None or fallback:
        if u is None:  # LU gave an inverse, but the rank is cut or its factor overflows
            u, s, vh = np.linalg.svd(e_10.matrix)
        with np.errstate(all="ignore" if fallback else None):
            scaled = e_20.matrix @ vh[:rank_10].conj().T
            # The fallback divides the parts: complex / real forms 1 / s, which overflows.
            scaled = ((scaled.view(float) / np.repeat(s, 2)).view(complex) if fallback
                      else scaled / s[:rank_10])
            formed = scaled @ u[:, :rank_10].conj().T
        candidate = candidate if fallback and not np.isfinite(formed).all() else formed
    if not unique:
        recon = float(np.abs(candidate @ e_10.matrix - e_20.matrix).max())
        allowed = tolerance + np.linalg.norm(scaled, 2) * s[rank_10]
        if not recon <= allowed:
            sv_20 = np.linalg.svd(e_20.matrix, compute_uv=False)
            rank_20 = _numerical_rank(sv_20, tolerance)
            reason = (f"rank obstruction: rank {rank_10} cannot factor rank {rank_20}"
                      if rank_10 < rank_20 else
                      f"no linear factorization exists (residual {recon:.3e})")
            return QDivisibilityResult("indivisible", None, None, reason,
                                       candidate=candidate)
    witness = SuperOperator(candidate)
    report = None
    if witness._choi_asymmetry <= max(TOL_HERM, tolerance):
        if witness._choi_asymmetry > TOL_HERM:
            candidate = _reshuffle(witness._hermitian_choi(), e_10.n)
            witness = SuperOperator(candidate)
        report = check_cptp(witness, tol_tp=max(TOL_TP, tolerance),
                            tol_psd=max(TOL_PSD, tolerance))
        if report.passed:
            reason = ("unique factor is CPTP" if unique
                      else "pseudo-inverse factor is CPTP")
            return QDivisibilityResult("divisible", witness, report, reason,
                                       candidate=candidate)
    if not unique:
        reason = ("factor on the range of the earlier map is not CPTP; a CPTP "
                  "completion off that range is not searched")
    elif inverse is not None:
        reason = "earlier map is invertible and its unique factor is not CPTP"
    else:
        reason = ("earlier map is singular to LU but full rank at this "
                  "tolerance, and its factor is not CPTP")
    return QDivisibilityResult("indivisible" if unique else "inconclusive",
                               None, report, reason, candidate=candidate)
