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
from operator import attrgetter
from typing import Iterable, Sequence, Union

import numpy as np

from ._arrays import (EPS, KRAUS_DROP_NORM, PINV_RCOND, TOL_DIV, TOL_HERM, TOL_PROB,
                      TOL_PSD, TOL_STOCH, TOL_TP, MatrixValue as _MatrixValue,
                      frozen as _frozen,
                      asymmetry_within as _asymmetry_within,
                      hermitian_part as _hermitian_part,
                      inverse_certifies_full_rank as _inverse_certifies_full_rank,
                      numerical_rank as _numerical_rank,
                      require_hermitian as _require_hermitian,
                      require_index as _require_index,
                      require_psd as _require_psd,
                      require_tolerance as _require_tolerance,
                      same_dimension as _same_dimension, square as _square,
                      square_stack as _square_stack)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (KernelValidationReport, ProbabilityVector,
                      StochasticKernel, _require_stochastic, validate_kernel)


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


def _reshuffle(matrix: np.ndarray, n: int,
               axes: tuple[int, ...] = (3, 1, 2, 0)) -> np.ndarray:
    """Liouville matrix <-> Choi matrix index reshuffle (an involution), or
    another permutation ``axes`` of the four indices, as a new base array."""
    out = np.empty((n * n, n * n), dtype=matrix.dtype)
    out.reshape(n, n, n, n)[...] = matrix.reshape(n, n, n, n).transpose(axes)
    return out


def _diagonal_images_offdiagonal(matrix: np.ndarray, n: int) -> float:
    """Largest off-diagonal entry of the images of the basis projectors: rows
    off the positions i(N+1) of columns i(N+1), which are vec(map(|i><i|))."""
    diagonal = np.arange(n) * (n + 1)
    images = matrix[:, diagonal]
    return float(np.abs(np.delete(images, diagonal, axis=0)).max(initial=0.0))


def _choi_asymmetry_of_rows(matrix: np.ndarray, n: int,
                            rows: np.ndarray | None = None) -> float:
    """Worst ``|S[i,j,k,l] - conj(S[j,i,l,k])|``, an entry of C - C^dagger
    for the superoperator ``matrix`` (N^2 x N^2, N = ``n``), over the rows
    ``(i, j)`` in ``rows`` (all when None), NaN if any entry is. Row (i, j)
    is compared with its partner row (j, i). A zero row's terms repeat, in
    modulus, those of its partner row, so rows that hold every nonzero row
    of S give the worst entry over all rows."""
    s = matrix.reshape(n, n, n, n)
    partner = s.transpose(1, 0, 3, 2)
    if rows is not None:
        i, j = np.divmod(rows, n)
        s, partner = s[i, j], partner[i, j]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for a NaN entry
        return float(np.abs(s - partner.conj()).max(initial=0.0))


def diagonal_injection(n: int) -> np.ndarray:
    """The n^2 x n matrix D with vec(diag(p)) = D p.

    Its transpose extracts the diagonal of a vectorized operator.
    """
    return np.eye(n * n)[:, ::n + 1].copy()


def dephasing_projector(n: int) -> np.ndarray:
    """The n^2 x n^2 projector P with vec(diag-part of X) = P vec(X)."""
    d = diagonal_injection(n)
    return d @ d.T


class DensityOperator(_MatrixValue):
    """Hermitian, unit-trace, positive-semidefinite N x N complex matrix."""

    def __init__(self, matrix, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD):
        m = _square(matrix, "density operator")
        _require_hermitian(m, tol_herm, "density operator")
        trace_err = abs(np.trace(m) - 1.0)
        if not trace_err <= tol_herm:
            raise ValidationError(f"trace differs from 1 by {trace_err:.3e}")
        _require_psd(m, tol_psd, "density operator")
        self._matrix = _frozen(m.copy())

    @classmethod
    def basis_projector(cls, index: int, n: int) -> "DensityOperator":
        """Rank-one projector onto the ``index``-th configuration basis vector,
        ``index`` one of ``0 .. n - 1``."""
        _require_index(index, n)
        m = np.zeros((n, n), dtype=complex)
        m[index, index] = 1.0
        return cls(m)


class KrausMap:
    """Operator-sum map ``rho -> sum_b K_b rho K_b^dagger``.

    The operators are stored as one read-only ``(r, N, N)`` complex array, a
    copy of the input. Near-zero operators (Frobenius norm below
    ``KRAUS_DROP_NORM``) are dropped at construction; a non-finite one is
    kept, so its map is not trace preserving. Trace preservation is
    recorded as a checked flag, not required: short-time maps are only trace
    preserving to leading order. The map owns one ``SuperOperator``, the
    reshuffled ``V^T conj(V)`` (row b of V is the column-stacked vec of K_b),
    formed on first use and kept, like the induced kernel; ``canonical_lift``
    presets both from its kernel block through ``_adopt``, the no-copy
    constructor of library-built stacks. The superoperator holds the Choi
    data of both forms and the Kraus rank, which ``_superoperator`` presets
    and from which ``check_cptp`` passes complete positivity.
    ``canonical_reduction`` re-extracts at most N^2 operators from the Choi
    spectrum when a redundant set has accumulated.
    """

    def __init__(self, operators: Iterable[np.ndarray], tol_tp: float = TOL_TP):
        _require_tolerance(tol_tp)
        self._hold(_square_stack(operators, "Kraus operator"), tol_tp)

    @classmethod
    def _adopt(cls, stack: np.ndarray, **known) -> "KrausMap":
        """The map of ``stack``, a new C-ordered ``(r, N, N)`` complex array
        that nothing else refers to, held without the copy of ``__init__``;
        ``known`` sets the attributes the builder already knows."""
        kmap = cls.__new__(cls)
        kmap._hold(stack, TOL_TP)
        vars(kmap).update(known)
        return kmap

    def _hold(self, stack: np.ndarray, tol_tp: float) -> None:
        parts = stack.view(float)  # squared Frobenius norms; NaN compares false, kept
        dropped = np.einsum("ijk,ijk->i", parts, parts) < KRAUS_DROP_NORM ** 2
        stack = stack[~dropped] if dropped.any() else stack
        if not len(stack):
            raise ValidationError("Kraus map needs at least one nonzero operator")
        n = stack.shape[1]
        self._stack = _frozen(stack)
        # sum_b K_b^dagger K_b as one product over the stacked rows of all K_b.
        rows = self._stack.reshape(-1, n)
        self.completeness_residual = float(
            np.abs(rows.conj().T @ rows - np.eye(n)).max())
        self.trace_preserving = self.completeness_residual <= tol_tp

    def _require_trace_preserving(self, what: str, tol_tp: float | None = None) -> None:
        """Raise ``ValidationError`` unless the completeness residual is at
        most ``tol_tp`` (``ValueError`` for one ``require_tolerance``
        refuses), or, when ``tol_tp`` is None, unless ``trace_preserving``."""
        if tol_tp is not None:
            _require_tolerance(tol_tp)
        if not (self.trace_preserving if tol_tp is None
                else self.completeness_residual <= tol_tp):
            raise ValidationError(f"{what} is not trace preserving (completeness "
                                  f"residual {self.completeness_residual:.3e})")

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
        # Row b of W, a view, is K_b read row by row: V with each vec index
        # (j, i) read as (i, j), which the one reshuffle swaps back.
        w = self._stack.reshape(self.rank, -1)
        return SuperOperator._adopt(_reshuffle(w.T @ w.conj(), self.n, (2, 0, 3, 1)),
                                    _kraus_rank=self.rank)

    def _tp_residual(self) -> float:
        return self.completeness_residual

    @cached_property
    def _induced(self) -> tuple[np.ndarray, dict]:
        """Squared-moduli dictionary, checked against the left-right reading
        ``sum_b K_b o conj(K_b)`` of the same action (equal up to rounding);
        formed on first use and kept."""
        kernel = (np.abs(self._stack) ** 2).sum(axis=0)
        action = (self._stack * self._stack.conj()).real.sum(axis=0)
        return _frozen(kernel), {"dictionary_residual": float(np.abs(kernel - action).max())}

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
        return SuperOperator._adopt(_reshuffle(choi, self.n))

    @property
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


class SuperOperator(_MatrixValue):
    """N^2 x N^2 matrix acting on column-stacked vectorized operators, and the
    one owner of its Choi matrix's Hermiticity and spectrum: once computed it
    keeps the worst entry of ``C - C^dagger`` and the spectrum of the
    Hermitian part of C (one ``eigvalsh``), never C, for every Choi question.
    The library builds its own through ``_adopt`` (``_arrays.MatrixValue``),
    which holds the array uncopied and presets what the builder knows:
    ``KrausMap._superoperator`` and ``_canonical_superoperator`` the Kraus
    rank; ``_canonical_superoperator`` the worst entry, 0, its Choi matrix
    being real diagonal; and ``q_divisibility_check`` the worst entry of its
    factor, read from the rows it formed and their partner rows only
    (``_choi_asymmetry_of_rows``). Nothing is set after construction.
    """

    #: Kraus rank r when the matrix is a Kraus map's reshuffled ``V^T
    #: conj(V)``, preset by ``KrausMap._superoperator`` or, for the canonical
    #: lift, ``_canonical_superoperator``; 0 for any other.
    _kraus_rank = 0

    def __init__(self, matrix):
        self._matrix = _frozen(_square(matrix, "superoperator").copy())
        self._n = _root(len(self._matrix), "superoperator side")

    @cached_property
    def _n(self) -> int:
        return _root(len(self._matrix), "superoperator side")

    @property
    def n(self) -> int:
        """Dimension of the underlying operator space (the N in N^2 x N^2)."""
        return self._n

    @classmethod
    def identity(cls, n: int) -> "SuperOperator":
        return cls._adopt(np.eye(n * n, dtype=complex))

    @property
    def _superoperator(self) -> "SuperOperator":
        return self

    @cached_property
    def _choi_asymmetry(self) -> float:
        """Worst entry of C - C^dagger (NaN if any is), over all rows."""
        return _choi_asymmetry_of_rows(self._matrix, self._n)

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
        return 2 * (self._kraus_rank + self._n ** 2) * EPS * float(self._induced[0].sum())

    def _passes_cp(self, tol_psd: float) -> bool:
        """``_completely_positive`` of the Choi spectrum: a kept spectrum
        decides, else a certificate that applies (the Kraus rounding bound
        for a Kraus rank, else Gershgorin's discs from N = ``_DISC_MIN_N``,
        then one Cholesky factorisation), else one ``eigvalsh``."""
        return ("_choi_spectrum" not in vars(self) and (
                    tol_psd > self._kraus_rounding_bound() if self._kraus_rank
                    else (self._n >= _DISC_MIN_N
                          and _gershgorin_certifies(self._matrix, self._n, tol_psd))
                    or _cholesky_certifies(self._hermitian_choi(), tol_psd))
                or _completely_positive(self._choi_spectrum, tol_psd))

    def _tp_residual(self) -> float:
        vec_id = vec(np.eye(self._n))
        return float(np.abs(vec_id @ self._matrix - vec_id).max())

    @property
    def _induced(self) -> tuple[np.ndarray, dict]:
        """Index lookup ``S[j(N+1), i(N+1)]``: diagonal in, diagonal out."""
        d = np.arange(self._n) * (self._n + 1)
        return np.real(self._matrix[np.ix_(d, d)]), {}


class ChoiMatrix:
    """Choi matrix of a map, a view of the superoperator it reshuffles to;
    positive semidefiniteness encodes complete positivity. ``asymmetry``, the
    worst entry of ``C - C^dagger``, above ``tol_herm`` (or NaN) raises
    ``ValidationError``. ``matrix`` is reshuffled per read; the spectrum,
    computed on first read, and the certificates are the superoperator's."""

    def __init__(self, matrix, tol_herm: float = TOL_HERM):
        m = _square(matrix, "Choi matrix")
        s = SuperOperator._adopt(_reshuffle(m, _root(len(m), "Choi matrix side")))
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
        _require_tolerance(tol_psd)
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


#: Smallest N at which ``SuperOperator._passes_cp`` tries Gershgorin's discs
#: before the Cholesky factorisation, whose cost a declined pass adds to. The
#: pass costs 0.9 of the N^2 x N^2 factorisation at N = 3-4, 0.57 at N = 6,
#: 0.52 at N = 7 (48 against 92 us), 0.43 at N = 8 and 0.15 at N = 16 (0.4
#: against 3 ms), with one BLAS thread on a shared 2-core host.
_DISC_MIN_N = 7


def _gershgorin_certifies(s: np.ndarray, n: int, tol_psd: float) -> bool:
    """Whether Gershgorin's disc theorem shows, from the superoperator ``s``
    (N^2 x N^2, N = ``n``) alone, that ``_completely_positive`` passes the
    spectrum of H, the Hermitian part of its Choi matrix C, at ``tol_psd``.

    Entry ``((a, b), (c, d))`` of C is ``S[(d, b), (c, a)]``, so the
    absolute row and column sums of C are two axis sums of ``|S|`` read as an
    N^4 array, and its diagonal is ``S[b(N+1), a(N+1)]``: no reshuffle and
    no H is formed. As ``|H_ij| <= (|C_ij| + |C_ji|) / 2``, every eigenvalue
    of H is at least the least ``Re C_ii + |C_ii| - (r_i + c_i) / 2``, r_i
    and c_i the absolute row and column sums (Varga 2004, Thm 1.1); each sum
    of m = N^2 moduli is widened by ``2 (m + 2) eps`` of itself, more than
    its rounding (Higham 2002, section 3.1). It certifies when that bound
    is at least ``delta - tol_psd``, with ``delta = 4 m^2 eps (|S|_F +
    tol_psd)``: no less than the ``eigvalsh`` allowance of
    ``_cholesky_certifies``, as ``|H|_F <= |C|_F = |S|_F``, so every
    computed eigenvalue is then at least ``-tol_psd``. It certifies nothing,
    with no warning, when ``tol_psd <= delta`` (NaN included, and delta is
    infinite where ``|S|_F`` overflows), an entry is NaN or infinite, or a
    sum overflows.
    """
    m = n * n
    moduli = np.abs(s)
    with np.errstate(over="ignore"):  # an overflow makes delta or a sum infinite
        delta = 4 * m * m * EPS * (float(np.linalg.norm(moduli)) + tol_psd)
        if not tol_psd > delta:
            return False
        quad = moduli.reshape(n, n, n, n)
        sums = quad.sum(axis=(0, 2)) + quad.sum(axis=(1, 3))
    low = (s.real[::n + 1, ::n + 1] + moduli[::n + 1, ::n + 1]
           - (0.5 + (m + 2) * EPS) * sums)
    return bool(low.min() >= delta - tol_psd)


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

    With ``require_diagonal`` the off-diagonal mass must not exceed ``tol``
    (so a NaN ``tol`` passes no operator); otherwise the operator is dephased
    first.
    """
    m = rho.matrix
    off = m - np.diag(np.diag(m))
    off_mass = float(np.abs(off).max())
    if require_diagonal and not off_mass <= tol:
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


def _reported(*names: str):
    """Class decorator for a frozen dataclass report with lazy public values:
    ``==`` and ``repr`` read ``names`` (two or more), properties included, in
    order, and the dataclass hash stays over the compared fields."""
    def decorate(cls):
        values = attrgetter(*names)
        cls.__eq__ = lambda self, other: (values(self) == values(other)
                                          if isinstance(other, cls) else NotImplemented)
        cls.__repr__ = lambda self: "{}({})".format(cls.__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values(self))))
        return cls
    return decorate


@_reported("trace_preserving", "tp_residual", "completely_positive",
           "min_choi_eigenvalue")
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
    # Not compared: ``==`` reads the four values, the hash the three fields.
    _superoperator: SuperOperator = field(compare=False)

    @property
    def min_choi_eigenvalue(self) -> float:
        return float(self._superoperator._choi_spectrum[0])

    @property
    def passed(self) -> bool:
        return self.trace_preserving and self.completely_positive


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
    - any other superoperator with N >= ``_DISC_MIN_N`` passes when
      Gershgorin's discs, read off ``|S|`` in one pass, keep the spectrum of
      H, the Hermitian part of the Choi matrix, above ``delta - tol_psd``
      (``_gershgorin_certifies``), as for a near-diagonal Choi matrix;
    - else when one Cholesky factorisation of ``H + (tol_psd - delta) I``
      succeeds (``_cholesky_certifies``);
    - otherwise one ``eigvalsh`` decides, and the superoperator keeps it.

    ``min_choi_eigenvalue`` is computed on the report's first read, so a
    caller reading only ``passed`` takes no diagonalisation, and both forms
    of one lift share at most one. The tolerances, and the refusal of a Choi
    asymmetry above ``TOL_HERM`` (NaN included), apply on every call. A
    tolerance that is not a finite nonnegative number raises ``ValueError``.
    """
    _require_tolerance(tol_tp, tol_psd)
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
    kernel, checks = _supported(map_, KrausMap, LeftRightMap, SuperOperator)._induced
    return InducedKernelReport(_frozen(kernel), validate_kernel(kernel), **checks)


def dictionary_kernel(kmap: KrausMap, tol_tp: float = TOL_TP) -> StochasticKernel:
    """Squared-moduli dictionary: kernel entry (j, i) = sum_b |K_b[j, i]|^2.

    Trace preservation of the map makes the result column-stochastic, so a
    non-trace-preserving map is rejected with its completeness residual.
    """
    kmap._require_trace_preserving("map", tol_tp)
    return StochasticKernel(kmap._induced[0],
                            tol_colsum=max(TOL_STOCH, kmap.completeness_residual * 2))


def _rank_one_stack(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """One operator ``sqrt(m[j, i]) |j><i|`` per kept entry, column by column."""
    cols, rows = np.nonzero(keep.T)
    ops = np.zeros((len(rows), *m.shape), dtype=complex)
    ops[np.arange(len(rows)), rows, cols] = np.sqrt(m[rows, cols])
    return ops


def _canonical_superoperator(m: np.ndarray) -> tuple[np.ndarray, SuperOperator]:
    """The canonical lift of the kernel matrix m as its block ``fl(sqrt(m))^2``,
    exact zeros where ``sqrt(m) < KRAUS_DROP_NORM``, and its superoperator:
    the block scattered onto the positions ``(j(N+1), i(N+1))``, bit for bit
    the product ``W^T conj(W)`` of the one-nonzero stack. Its Choi matrix is
    real diagonal, so its Choi asymmetry is 0."""
    root = np.sqrt(m)
    # C-ordered whatever m's order, as the stack's sum is: validate_kernel's
    # column sums round by memory order.
    block = _frozen(np.multiply(root, root, out=np.zeros(m.shape),
                                where=root >= KRAUS_DROP_NORM))
    matrix = np.zeros((m.size, m.size), dtype=complex)
    matrix[::len(m) + 1, ::len(m) + 1] = block
    return block, SuperOperator._adopt(matrix, _kraus_rank=int(np.count_nonzero(block)),
                                       _choi_asymmetry=0.0)


def canonical_lift(gamma: StochasticKernel) -> KrausMap:
    """Rank-one lift of a kernel: one operator ``sqrt(gamma[j,i]) |j><i|`` per entry.

    Always a quantum channel. Operators of norm below ``KRAUS_DROP_NORM``
    are dropped, so its squared-moduli dictionary returns entry (j, i) as
    ``fl(sqrt(gamma[j,i]))^2``, within an ulp of it, and an entry below
    ``KRAUS_DROP_NORM^2`` as 0. The stack and its completeness residual are
    formed here; the superoperator, with its Kraus rank and Choi asymmetry
    (``_canonical_superoperator``), and the induced kernel are preset from
    the block when the map is built (``KrausMap._adopt``).
    """
    block, superop = _canonical_superoperator(gamma.matrix)
    return KrausMap._adopt(_rank_one_stack(gamma.matrix, block > 0), _superoperator=superop,
                           _induced=(block, {"dictionary_residual": 0.0}))


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
    _require_tolerance(tol_tp)
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
    _require_stochastic(np.abs(th) ** 2, "|theta|^2")
    n = th.shape[0]
    ops = np.zeros((n, n, n), dtype=complex)
    beta = np.arange(n)
    ops[beta, :, beta] = th.T
    return KrausMap._adopt(ops)


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
    _require_tolerance(tol)
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
    residuals = np.abs(map_._induced[0] @ columns - gamma.matrix @ columns).max(axis=0)
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
    return s._induced[0]


@dataclass(frozen=True)
class QDivisibilityResult:
    """Verdict of a quantum divisibility query.

    ``verdict`` is ``"divisible"``, ``"indivisible"`` or ``"inconclusive"``.
    The candidate factor (when one exists linearly) and its CPTP report are
    recorded; the report is None when the candidate's Choi matrix is too
    asymmetric to be Hermitian. A candidate that reached the CPTP check is
    the read-only array of the superoperator checked, symmetrized if it was
    (the witness, when divisible), not a copy of it. Inconclusive means: the
    candidate matches on the range of the earlier map but is not CPTP there,
    and a CPTP completion off that range, a semidefinite feasibility search,
    is out of scope here.
    """

    verdict: str
    witness: SuperOperator | None
    cptp_report: CptpReport | None
    reason: str
    candidate: np.ndarray | None = None


#: The reason given, by route, when the candidate factor is not CPTP.
_NOT_CPTP_REASONS = {
    "inverse": "earlier map is invertible and its unique factor is not CPTP",
    "lu-singular": ("earlier map is singular to LU but full rank at this "
                    "tolerance, and its factor is not CPTP"),
    "range": ("factor on the range of the earlier map is not CPTP; a CPTP "
              "completion off that range is not searched"),
}


def q_divisibility_check(e_20: SuperOperator, e_10: SuperOperator,
                         tolerance: float = TOL_DIV) -> QDivisibilityResult:
    """Decide whether e_20 factors through e_10 as a quantum channel.

    A NaN or infinite entry in either map raises ``ValidationError``. Both
    maps are first moved by one power of two, exactly, that puts e_10's
    largest real or imaginary part in [1/2, 1), or less far where e_20 would
    overflow: their factor is the same number, so one path serves every
    scale, subnormal included, and ``tolerance`` applies to the moved maps.
    A ``tolerance`` that is not a finite nonnegative number raises
    ``ValueError``. The moved e_10 is inverted by LU once, and no SVD is
    taken if ``|e_10|_F |inv(e_10)|_F``, a bound on cond_2(e_10), is at
    most a fixed quarter of the limit ``max(tolerance, n eps) / (n eps)``
    (``_arrays.inverse_certifies_full_rank``). Otherwise, LU singular
    included, one full SVD of e_10 is taken, so at most one SVD in all, and
    its singular values are cut by the classical check's rule
    (``_arrays.numerical_rank``). That settles one of three routes:

    - ``"inverse"``: the certificate proved full rank, or the SVD cut no
      direction of an e_10 that LU inverted. The CPTP check of the unique
      factor ``e_20 @ inv(e_10)`` decides; a factor beyond the float range
      is not finite and not CPTP. When the inverse certified full rank, so
      it is finite, only the rows of e_20 that are not zero are moved and
      multiplied, unless they are all rows, into a factor that is +0 on
      every other row: a canonical lift after e_10 has N nonzero rows of
      N^2. Those rows carry the full product's bits, except a lone row,
      which numpy forms as a matrix-vector product, rounded otherwise. The
      witness is built with its Choi asymmetry preset from those rows and
      their partner rows only (``_choi_asymmetry_of_rows``).
    - ``"lu-singular"``: LU found e_10 singular but the SVD cut no
      direction. The unique factor is formed as ``e_20 V S^-1 U^dagger``
      and its CPTP check decides.
    - ``"range"``: directions are cut. The candidate ``e_20 V_r S_r^-1
      U_r^dagger`` must reproduce e_20 to within ``tolerance +
      |candidate|_2 s_(r+1)``, or the pair is indivisible (a rank
      obstruction when e_20 has the larger rank, else a residual given in
      the input's scale); a candidate that does but is not CPTP is
      inconclusive.

    On the first two routes a factor that is not CPTP is indivisible. A
    witness's Choi asymmetry above ``max(TOL_HERM, tolerance)`` is not
    CPTP; a smaller one is symmetrized away first.
    """
    _require_tolerance(tolerance)
    _same_dimension(e_20.n, e_10.n, "e_20", "e_10")
    # The largest |re| or |im| of each map, NaN if any entry is.
    tops = [max(v.max(), -v.min()) for v in (m.matrix.view(float) for m in (e_20, e_10))]
    for name, top in zip(("e_20", "e_10"), tops):
        if not np.isfinite(top):
            raise ValidationError(f"{name} has a non-finite entry (NaN or infinity)")
    # Both maps move by one power of two, exactly: e_10's largest part into
    # [1/2, 1), unless e_20 would overflow. Their factor is the same number.
    k = min(-np.frexp(tops[1])[1], 1024 - np.frexp(tops[0])[1])
    a_10 = np.ldexp(e_10.matrix.view(float), k).view(complex)
    try:
        inverse = np.linalg.inv(a_10)
    except np.linalg.LinAlgError:  # exactly singular to LU: the SVD decides
        inverse = None
    rank_10 = size = a_10.shape[0]
    rows = None  # the rows of e_20 formed, when not all are
    if inverse is not None and _inverse_certifies_full_rank(a_10, inverse, tolerance):
        route = "inverse"
        # A certified inverse is finite, so a zero row of e_20 has a zero row
        # of the factor for image: only the other rows are moved and multiplied.
        nonzero = e_20.matrix.any(axis=1)
        rows = None if nonzero.all() else np.flatnonzero(nonzero)
    else:
        u, s, vh = np.linalg.svd(a_10)
        rank_10 = _numerical_rank(s, tolerance)
        route = "range" if rank_10 < size else "lu-singular" if inverse is None else "inverse"
    a_20 = np.ldexp((e_20.matrix if rows is None else e_20.matrix[rows]).view(float),
                    k).view(complex)
    if route == "inverse":
        with np.errstate(over="ignore", invalid="ignore"):  # beyond the range: inf, NaN
            candidate = a_20 @ inverse
    else:
        scaled = a_20 @ vh[:rank_10].conj().T / s[:rank_10]
        candidate = scaled @ u[:, :rank_10].conj().T
    if route == "range":
        recon = float(np.abs(candidate @ a_10 - a_20).max())
        if not recon <= tolerance + np.linalg.norm(scaled, 2) * s[rank_10]:
            rank_20 = _numerical_rank(np.linalg.svd(a_20, compute_uv=False), tolerance)
            reason = (f"rank obstruction: rank {rank_10} cannot factor rank {rank_20}"
                      if rank_10 < rank_20 else
                      f"no linear factorization exists "
                      f"(residual {np.ldexp(recon, -k):.3e})")
            return QDivisibilityResult("indivisible", None, None, reason, candidate=candidate)
    if rows is not None:  # the formed rows, scattered into the inverse's memory, zeroed
        inverse.fill(0)
        inverse[rows] = candidate
        candidate = inverse
    del a_20, a_10, inverse  # read no more
    # The zero rows' terms repeat their partner rows', so the formed rows decide.
    witness = SuperOperator._adopt(candidate, _choi_asymmetry=_choi_asymmetry_of_rows(
        candidate, e_10.n, rows))
    report = None
    if witness._choi_asymmetry <= max(TOL_HERM, tolerance):
        if witness._choi_asymmetry > TOL_HERM:
            witness = SuperOperator._adopt(_reshuffle(witness._hermitian_choi(), e_10.n))
        report = check_cptp(witness, tol_tp=max(TOL_TP, tolerance),
                            tol_psd=max(TOL_PSD, tolerance))
    passed = report is not None and report.passed
    verdict = "divisible" if passed else "inconclusive" if route == "range" else "indivisible"
    reason = (_NOT_CPTP_REASONS[route] if not passed else
              "pseudo-inverse factor is CPTP" if route == "range" else "unique factor is CPTP")
    return QDivisibilityResult(verdict, witness if passed else None, report, reason,
                               candidate=witness.matrix)
