"""Finite-state stochastic kernels and classical-side operations.

Conventions used throughout the package: transition matrices are
column-stochastic (each column is a probability distribution) and act on
probability column vectors from the left, ``p_later = kernel @ p_earlier``.
A two-parameter family ``kernel(t, s)`` maps the distribution at time ``s``
to the one at time ``t >= s``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._arrays import (TOL_DIV, TOL_PROB, TOL_STOCH, MatrixValue as _MatrixValue,
                      frozen as _frozen,
                      numerical_rank as _numerical_rank,
                      require_index as _require_index,
                      require_positive as _require_positive,
                      require_tolerance as _require_tolerance,
                      same_dimension as _same_dimension, semigroup as _semigroup,
                      square as _square, strict_grid as _strict_grid)
from .errors import DimensionMismatchError, ValidationError


@dataclass(frozen=True)
class KernelValidationReport:
    """Outcome of a stochastic-matrix validation.

    ``max_negative_entry`` is the magnitude of the worst negative entry
    (0.0 when all entries are nonnegative); ``max_column_sum_error`` is the
    largest deviation of a column sum from one.
    """

    passed: bool
    max_negative_entry: float
    max_column_sum_error: float
    tol_entry: float
    tol_colsum: float


def validate_kernel(matrix, tol_entry: float = TOL_PROB,
                    tol_colsum: float = TOL_STOCH) -> KernelValidationReport:
    """Check a square real matrix for column-stochasticity.

    Parameters
    ----------
    matrix : array_like, shape (N, N)
        Candidate transition matrix.
    tol_entry, tol_colsum : float
        Allowed entry negativity and column-sum deviation.

    Returns
    -------
    KernelValidationReport

    Raises
    ------
    DimensionMismatchError
        If the input is not a square matrix.
    ValueError
        If a tolerance is not a finite nonnegative number.
    """
    _require_tolerance(tol_entry, tol_colsum)
    m = _square(matrix, "kernel", dtype=float)
    neg = -m.min()
    max_neg = 0.0 if neg <= 0.0 else float(neg)  # NaN stays NaN, -0.0 does not appear
    col_err = float(np.abs(m.sum(axis=0) - 1.0).max())
    passed = max_neg <= tol_entry and col_err <= tol_colsum
    return KernelValidationReport(passed, max_neg, col_err, tol_entry, tol_colsum)


def _require_stochastic(matrix, what: str, tol_entry: float = TOL_PROB,
                        tol_colsum: float = TOL_STOCH) -> None:
    """Raise ``ValidationError``, with the ``validate_kernel`` report
    attached, unless ``matrix`` is column-stochastic."""
    report = validate_kernel(matrix, tol_entry, tol_colsum)
    if not report.passed:
        raise ValidationError(
            f"{what} is not column-stochastic "
            f"(worst negative entry {report.max_negative_entry:.3e}, "
            f"worst column-sum error {report.max_column_sum_error:.3e})",
            report=report)


class ProbabilityVector:
    """Probability distribution over N configurations (a column vector).

    Entries may dip below zero by at most ``tol`` (round-off) and are clamped
    to zero in the stored array; larger negativity or a sum away from one is
    a hard error.
    """

    def __init__(self, entries, tol: float = TOL_PROB, tol_sum: float | None = None):
        arr = np.asarray(entries, dtype=float).reshape(-1)
        if arr.size == 0:
            raise DimensionMismatchError("empty probability vector")
        tol_sum = tol if tol_sum is None else tol_sum
        _require_tolerance(tol, tol_sum)
        min_entry = float(arr.min())
        if not min_entry >= -tol:
            raise ValidationError(
                f"negative probability {min_entry:.3e} exceeds tolerance {tol:.1e}")
        sum_err = abs(float(arr.sum()) - 1.0)
        if not sum_err <= tol_sum:
            raise ValidationError(
                f"entries sum to 1 {sum_err:.3e} away, tolerance {tol_sum:.1e}")
        self._entries = _frozen(np.maximum(arr, 0.0))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.size

    @classmethod
    def basis(cls, index: int, n: int) -> "ProbabilityVector":
        """Point mass on configuration ``index``, one of ``0 .. n - 1``."""
        _require_index(index, n)
        e = np.zeros(n)
        e[index] = 1.0
        return cls(e)

    def __repr__(self):
        return f"ProbabilityVector({self._entries.tolist()})"


class StochasticKernel(_MatrixValue):
    """Column-stochastic transition matrix, optionally time-stamped.

    When both time stamps are given and equal, the matrix must be the
    identity (no evolution over zero elapsed time) to within ``TOL_STOCH``,
    or ``tol_colsum`` if smaller: a wider column-sum tolerance does not widen
    what counts as no evolution.
    """

    from_time = to_time = None  #: Untimed unless ``__init__`` is given times.

    def __init__(self, matrix, from_time: float | None = None,
                 to_time: float | None = None,
                 tol_entry: float = TOL_PROB, tol_colsum: float = TOL_STOCH):
        _require_stochastic(matrix, "matrix", tol_entry, tol_colsum)
        m = np.asarray(matrix, dtype=float)
        if from_time is not None and to_time is not None and from_time == to_time:
            residual = np.abs(m - np.eye(m.shape[0])).max()
            if not residual <= min(tol_colsum, TOL_STOCH):
                raise ValidationError(
                    "kernel between equal times must be the identity")
        self._matrix = _frozen(np.maximum(m, 0.0))
        self.from_time = from_time
        self.to_time = to_time

    @classmethod
    def identity(cls, n: int, from_time: float | None = None,
                 to_time: float | None = None) -> "StochasticKernel":
        return cls(np.eye(n), from_time=from_time, to_time=to_time)

    def __repr__(self):
        times = ""
        if self.from_time is not None or self.to_time is not None:
            times = f", from_time={self.from_time}, to_time={self.to_time}"
        return f"StochasticKernel({self._matrix.tolist()}{times})"


class RateMatrix(_MatrixValue):
    """Generator of a continuous-time Markov chain.

    Off-diagonal entries are nonnegative transition rates (units 1/time) and
    every column sums to zero, so that probability is conserved.
    """

    def __init__(self, matrix, tol: float = TOL_STOCH):
        _require_tolerance(tol)
        m = _square(matrix, "rate matrix", dtype=float)
        off_min = float(m[~np.eye(m.shape[0], dtype=bool)].min(initial=0.0))
        if not off_min >= -tol:
            raise ValidationError(f"negative off-diagonal rate {off_min:.3e}")
        col_err = float(np.abs(m.sum(axis=0)).max())
        if not col_err <= tol:
            raise ValidationError(
                f"columns must sum to zero, worst deviation {col_err:.3e}")
        self._matrix = _frozen(m.copy())

    def __repr__(self):
        return f"RateMatrix({self._matrix.tolist()})"


def compose(later: StochasticKernel, earlier: StochasticKernel) -> StochasticKernel:
    """Chain two kernels: first ``earlier``, then ``later`` (matrix product).

    Column-stochasticity of the product is guaranteed analytically and
    revalidated with tolerances widened by the dimension to absorb the
    accumulated round-off.
    """
    _same_dimension(later.n, earlier.n, "later kernel", "earlier kernel")
    if (later.from_time is not None and earlier.to_time is not None
            and later.from_time != earlier.to_time):
        raise ValidationError(
            f"time chain broken: earlier ends at {earlier.to_time}, "
            f"later starts at {later.from_time}")
    n = later.n
    return StochasticKernel(later.matrix @ earlier.matrix,
                            from_time=earlier.from_time, to_time=later.to_time,
                            tol_entry=TOL_PROB * n, tol_colsum=TOL_STOCH * n)


@dataclass(frozen=True)
class CkTripleResidual:
    s: float
    u: float
    t: float
    residual: float


@dataclass(frozen=True)
class CkFamilyReport:
    """Composition-law residuals for every ordered grid triple s < u < t."""

    passed: bool
    max_residual: float
    triples: tuple[CkTripleResidual, ...]


def _composition_triples(grid: np.ndarray, member: Callable[[float, float], object]
                         ) -> tuple[list, tuple[CkTripleResidual, ...], float]:
    """Test the composition law M(t,s) = M(t,u) M(u,s) on a grid.

    ``member(t, s)`` (anything with a ``matrix``) is evaluated once per grid
    pair s < t; every ordered triple s < u < t gets the max-norm difference
    between the direct member and the composed one. Returns the members, the
    triple residuals and the worst of them (NaN if any residual is).
    """
    if grid.size < 3:
        raise ValueError("composition check needs a grid with at least 3 times")
    times = [float(x) for x in grid]
    members = {(i, j): member(times[j], times[i])
               for i, j in itertools.combinations(range(len(times)), 2)}
    m = {pair: op.matrix for pair, op in members.items()}
    rows = tuple(CkTripleResidual(times[i], times[j], times[k],
                                  float(np.abs(m[i, k] - m[j, k] @ m[i, j]).max()))
                 for i, j, k in itertools.combinations(range(len(times)), 3))
    return list(members.values()), rows, float(np.max([r.residual for r in rows]))


class _TwoTimeFamily:
    """A member ``M(t, s)`` for every pair of times ``t >= s`` and a strictly
    increasing grid of times: the one member rule and coincidence table of
    ``KernelFamily`` and ``dynamics.SuperOperatorFamily``.

    The public member method is named after the family's ``_kind`` and calls
    the supplied ``fn(t, s)``, refusing a pair with ``t < s`` or a NaN time.
    A result of ``_member_type`` is returned as it is; anything else is
    coerced by ``_coerce(out, t, s)``, by default ``_member_type(out)``.
    ``identity_residuals`` maps each grid time s to ``|M(s, s) - I|_max``,
    each coincidence member evaluated once, at construction.
    """

    def __init__(self, grid: Sequence[float], fn: Callable[[float, float], object]):
        self.grid = _strict_grid(grid)
        self._fn = fn
        member = getattr(self, self._kind)  # so a wrapper of it sees these calls
        self.identity_residuals = {}
        for s in map(float, self.grid):
            m = member(s, s).matrix
            self.identity_residuals[s] = float(np.abs(m - np.eye(len(m))).max())

    def _member(self, t: float, s: float):
        if not t >= s:  # NaN fails too
            raise ValueError(f"{self._kind} requires t >= s, got t={t}, s={s}")
        out = self._fn(t, s)
        return out if isinstance(out, self._member_type) else self._coerce(out, t, s)

    def _coerce(self, out, t: float, s: float):
        return self._member_type(out)


class KernelFamily(_TwoTimeFamily):
    """Two-parameter family of transition kernels over a time grid.

    ``kernel_fn(t, s)`` must produce the transition matrix from time ``s`` to
    time ``t >= s``, as a ``StochasticKernel`` or a matrix (stamped with s
    and t). ``kernel`` refuses ``t < s`` and NaN times. The family shares its
    member rule and its coincidence table, ``identity_residuals``, with
    ``dynamics.SuperOperatorFamily``; unlike that family it is refused
    unless every residual in that table is at most ``tol_identity``, for
    either type of member.
    """

    _kind = "kernel"
    _member_type = StochasticKernel

    def __init__(self, grid: Sequence[float],
                 kernel_fn: Callable[[float, float], object],
                 tol_identity: float = TOL_STOCH):
        _require_tolerance(tol_identity)
        super().__init__(grid, kernel_fn)
        for s, residual in self.identity_residuals.items():
            if not residual <= tol_identity:
                raise ValidationError(f"kernel({s}, {s}) is not the identity")

    kernel = _TwoTimeFamily._member

    def _coerce(self, out, t: float, s: float) -> StochasticKernel:
        # Stamped after validation, so at t == s tol_identity decides alone.
        kernel = StochasticKernel(np.asarray(out, dtype=float))
        kernel.from_time, kernel.to_time = s, t
        return kernel

    @classmethod
    def from_rate_matrix(cls, rate: RateMatrix | np.ndarray,
                         grid: Sequence[float]) -> "KernelFamily":
        """Semigroup family ``exp((t - s) R)`` of a constant rate matrix."""
        r = rate if isinstance(rate, RateMatrix) else RateMatrix(rate)
        ones = np.ones(r.n)
        return cls(grid, lambda t, s: _semigroup(r.matrix, t - s, ones))

    @classmethod
    def from_theta(cls, theta_fn: Callable[[float, float], np.ndarray],
                   grid: Sequence[float]) -> "KernelFamily":
        """Family of squared moduli ``|theta(t, s)|**2`` of a complex matrix."""
        return cls(grid, lambda t, s: np.abs(np.asarray(theta_fn(t, s))) ** 2)


def check_ck_family(family: KernelFamily, tolerance: float = TOL_STOCH) -> CkFamilyReport:
    """Test the composition law kernel(t,s) = kernel(t,u) @ kernel(u,s) on
    every ordered triple of grid times, each grid pair's kernel evaluated once."""
    _require_tolerance(tolerance)
    _, rows, worst = _composition_triples(family.grid, family.kernel)
    return CkFamilyReport(worst <= tolerance, worst, rows)


@dataclass(frozen=True)
class CDivisibilityResult:
    """Verdict of a classical divisibility query.

    Divisible is a backward-error verdict: the stochastic ``witness`` X
    (entries and column sums valid to within the tolerance) reproduces
    gamma_20 as X @ gamma_10 to within the tolerance along each singular
    direction of gamma_10. ``candidate_validation`` reports on the factor
    tested last. On the feasibility route an indivisible verdict names the
    constraints that fail: ``row[i]`` when no nonnegative row i of X matches
    row i of gamma_20, ``colsum`` when the rows match one by one but not
    with unit column sums; ``infeasibility`` is how far the certificate
    misses (widest empty interval, gap of the sum condition or norm excess,
    in units of the free coordinates, or the elastic program's optimum).
    """

    divisible: bool
    witness: StochasticKernel | None
    route: str
    candidate_validation: KernelValidationReport | None = None
    infeasibility: float | None = None
    violated_constraints: tuple[str, ...] = ()


def _validated(candidate, route, tol) -> CDivisibilityResult:
    """The verdict on ``candidate``, the route's factor: its ``infeasibility``
    is None on ``"inverse"`` and 0.0 on ``"feasibility"``, where the
    certificate found the candidate."""
    report = validate_kernel(candidate, tol_entry=tol, tol_colsum=tol)
    witness = StochasticKernel._adopt(np.maximum(candidate, 0.0)) if report.passed else None
    return CDivisibilityResult(report.passed, witness, route, report,
                               None if route == "inverse" else 0.0)


def _infeasible(rows, infeasibility, colsum=False, report=None) -> CDivisibilityResult:
    labels = tuple(f"row[{i}]" for i in rows) + (("colsum",) if colsum else ())
    return CDivisibilityResult(False, None, "feasibility", report,
                               float(infeasibility), labels)


def _one_free_direction(x0, u, lo, hi, y_ls, tol) -> CDivisibilityResult:
    """Factors ``X = x0 + y u^T`` with y_i in [lo_i, hi_i] and sum(y) = sum(u).

    ``x0_ij + y_i u_j >= -tol / 2`` bounds each y_i from one side (the other
    half of the tolerance absorbs the rounding of the witness). The pair
    divides iff every interval is nonempty and sum(lo) <= sum(u) <= sum(hi).
    """
    floor = tol / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = -(x0 + floor) / u
        lo = np.maximum(lo, np.where(u > 0, bound, -np.inf).max(axis=1))
        hi = np.minimum(hi, np.where(u < 0, bound, np.inf).min(axis=1))
        hi[((u == 0) & (x0 < -floor)).any(axis=1)] = -np.inf
        gap = lo - hi
    empty = ~(gap <= 0)  # an interval like [inf, inf] gives NaN: empty
    if empty.any():
        return _infeasible(np.flatnonzero(empty),
                           np.where(gap > 0, gap, np.inf)[empty].max())
    target = u.sum()
    if not lo.sum() <= target <= hi.sum():
        return _infeasible((), max(lo.sum() - target, target - hi.sum()), colsum=True)
    # The feasible y nearest the least-squares point: clip it into the
    # intervals, then spread what the sum still misses over the rows' slack.
    y = np.clip(y_ls, lo, hi)
    miss = target - y.sum()
    if miss:
        slack = hi - y if miss > 0 else y - lo
        if np.isinf(slack).any():
            slack = np.isinf(slack).astype(float)
        y = y + miss * slack / slack.sum()
    return _validated(x0 + np.outer(y, u), "feasibility", tol)


def _several_free_directions(x0, u, lo, hi, tol) -> CDivisibilityResult:
    """Factors ``X = x0 + Y u^T`` with each Y entry inside its residual box.

    A stochastic X has entries in [0, 1], so ``|Y_i| <= sqrt(n) + |x0_i|``:
    a row whose box lies farther from the origin cannot be matched. Only
    when that certificate does not reject does a linear program decide: it
    minimizes the slack mass that ``X >= -tol / 2`` with unit column sums
    needs, and rows with slack above ``tol`` are the violated constraints.
    """
    n, k = u.shape
    with np.errstate(invalid="ignore"):
        box_empty = ~(lo - hi <= 0).all(axis=1)
    excess = (np.linalg.norm(np.clip(0.0, lo, hi), axis=1)
              - np.sqrt(n) - np.linalg.norm(x0, axis=1))
    unmatched = box_empty | (excess > 0)
    if unmatched.any():
        return _infeasible(np.flatnonzero(unmatched),
                           np.where(box_empty, np.inf, excess)[unmatched].max())

    from scipy.optimize import linprog

    m = n * n
    # Variables: Y row-major, one slack per entry of X, two per column sum.
    a_ub = np.hstack([-np.kron(np.eye(n), u), -np.eye(m), np.zeros((m, 2 * n))])
    a_eq = np.hstack([np.kron(np.ones(n), u), np.zeros((n, m)),
                      np.eye(n), -np.eye(n)])
    cost = np.concatenate([np.zeros(n * k), np.ones(m + 2 * n)])
    bounds = [*zip(lo.ravel(), hi.ravel())] + [(0.0, None)] * (m + 2 * n)
    res = linprog(cost, A_ub=a_ub, b_ub=(x0 + tol / 2.0).ravel(), A_eq=a_eq,
                  b_eq=1.0 - x0.sum(axis=0), bounds=bounds, method="highs")
    result = _validated(x0 + res.x[:n * k].reshape(n, k) @ u.T, "feasibility", tol)
    if result.divisible:
        return result
    entry_slack = res.x[n * k:n * k + m].reshape(n, n)
    return _infeasible(np.flatnonzero((entry_slack > tol).any(axis=1)), res.fun,
                       bool((res.x[n * k + m:] > tol).any()),
                       result.candidate_validation)


def c_divisibility_check(gamma_20: StochasticKernel, gamma_10: StochasticKernel,
                         tolerance: float = TOL_DIV) -> CDivisibilityResult:
    """Decide whether gamma_20 factors as (stochastic) @ gamma_10.

    One SVD ``gamma_10 = U S V^T`` decides. A singular direction is free
    when inverting along it could miss by more than ``tolerance``
    (``_arrays.numerical_rank``). With none free, the unique candidate
    ``gamma_20 V S^-1 U^T`` settles it (route ``"inverse"``). Otherwise the
    factors form the family ``X = X0 + Y U_free^T``, X0 inverting the kept
    directions, with ``|Y_il s_l - (gamma_20 v_l)_i| <= tolerance`` (route
    ``"feasibility"``). The least-squares Y with corrected column sums is
    tried first; one free direction (singular gamma_10 of nullity one
    included) is then decided by one interval per row, several by a norm
    certificate and, failing that, a linear program. A zero singular value's
    box is all of R when ``|(gamma_20 v_l)_i| <= tolerance`` and empty
    otherwise. A ``tolerance`` that is not a finite nonnegative number
    raises ``ValueError``; a zero one accepts only an exact witness, so
    ``[[1, 1], [0, 0]]`` over itself reads indivisible at 0 with no violated
    constraint and ``infeasibility`` 0: its witness misses unit column sums
    by one rounding, 2.2e-16, which ``candidate_validation`` shows.
    """
    _require_tolerance(tolerance)
    _same_dimension(gamma_20.n, gamma_10.n, "gamma_20", "gamma_10")
    n = gamma_10.n
    u, s, vt = np.linalg.svd(gamma_10.matrix)
    rank = _numerical_rank(s, tolerance)
    b = gamma_20.matrix @ vt.T
    # A kept direction of tiny (subnormal) scale can overflow x0; a
    # non-finite candidate fails validation.
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = (b[:, :rank] / s[:rank]) @ u[:, :rank].T
    if rank == n:
        return _validated(x0, "inverse", tolerance)

    b, s, u = b[:, rank:], s[rank:], u[:, rank:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y_ls = np.where(s > 0, b / s, 0.0)
        y = y_ls + (u.sum(axis=0) - y_ls.sum(axis=0)) / n
        # The column-sum correction moves the residual, so it is checked.
        if np.abs(y * s - b).max() <= tolerance:
            result = _validated(x0 + y @ u.T, "feasibility", tolerance)
            if result.divisible:
                return result
        # A zero singular value's box is all of R when |b| <= tolerance, else empty.
        wide = np.where(np.abs(b) <= tolerance, np.inf, -np.inf)
        lo = np.where(s > 0, (b - tolerance) / s, -wide)
        hi = np.where(s > 0, (b + tolerance) / s, wide)
    if n - rank == 1:
        return _one_free_direction(x0, u[:, 0], lo[:, 0], hi[:, 0], y_ls[:, 0],
                                   tolerance)
    return _several_free_directions(x0, u, lo, hi, tolerance)


@dataclass(frozen=True)
class ShortTimeReport:
    """Finite-difference short-time structure of a kernel family at a time t.

    ``first_derivative`` estimates the rate of departure from the identity,
    ``second_derivative`` its curvature; ``leakage_exponent`` is the ordinary
    least-squares log-log slope of the off-diagonal mass of
    ``kernel(t + h, t)`` against the step ``h``.
    """

    first_derivative: np.ndarray
    second_derivative: np.ndarray
    step_used: float
    leakage_exponent: float
    steps: tuple[float, ...]
    leakage_masses: tuple[float, ...]


def short_time_derivatives(family: KernelFamily, t: float,
                           steps: Sequence[float]) -> ShortTimeReport:
    """Estimate the first two step-derivatives of ``kernel(t + h, t)`` at h = 0.

    Kernels are only defined forward in time, so the stencils are one-sided,
    anchored at the exact identity value at zero elapsed time; with the two
    smallest steps they are second-order accurate for the first derivative.
    A step pair whose products ``h1 h2``, ``h1 (h2 - h1)`` or ``h2 (h2 - h1)``,
    which the stencils divide by, underflow to 0 or overflow raises
    ``ValueError``.
    """
    hs = sorted({float(h) for h in steps})
    for h in hs:
        _require_positive(h, "step size")
    if len(hs) < 2:
        raise ValueError("need at least two distinct step sizes")
    h1, h2 = hs[0], hs[1]
    gap = h2 - h1
    for product in (h1 * h2, h1 * gap, h2 * gap):
        _require_positive(product, f"stencil product of the steps {h1} and {h2}")
    values = {h: family.kernel(t + h, t).matrix for h in hs}
    n = values[hs[0]].shape[0]
    eye = np.eye(n)

    g1, g2 = values[h1], values[h2]
    d1 = (-(h1 + h2) / (h1 * h2)) * eye \
        + (h2 / (h1 * gap)) * g1 - (h1 / (h2 * gap)) * g2
    d2 = 2.0 * (eye / (h1 * h2) - g1 / (h1 * gap) + g2 / (h2 * gap))

    off = ~np.eye(n, dtype=bool)
    masses = [float(np.abs(values[h][off]).sum()) for h in hs]
    floored = np.maximum(masses, np.finfo(float).tiny)
    slope = float(np.polyfit(np.log(hs), np.log(floored), 1)[0])
    return ShortTimeReport(_frozen(d1), _frozen(d2), h1, slope,
                           tuple(hs), tuple(masses))


def ctmc_propagate(rate: RateMatrix, p0: ProbabilityVector,
                   t: float) -> ProbabilityVector:
    """Evolve ``p0`` for time ``t`` under the master equation dp/dt = R p."""
    p = _semigroup(rate.matrix, t, np.ones(rate.n)) @ p0.entries
    return ProbabilityVector(p, tol=TOL_STOCH, tol_sum=TOL_STOCH)


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    n_steps: int
    sup_error: float


def dtmc_to_ctmc_scaling(rate: RateMatrix, t_star: float, t: float,
                         epsilons: Sequence[float]) -> tuple[ScalingRow, ...]:
    """Accelerated-sampling convergence of a quadratically-leaking chain.

    For each ``eps`` the one-step matrix ``I + eps**2 * t_star * R`` is raised
    to the power ``floor(t / (eps**2 * t_star))`` by repeated squaring and
    compared in sup-norm against ``exp(t R)``. Errors shrink as ``eps**2``.
    """
    target = _semigroup(rate.matrix, t, np.ones(rate.n))
    _require_positive(t_star, "microscopic time scale")
    rows = []
    for eps in epsilons:
        eps = float(eps)
        _require_positive(eps, "epsilon")
        dt = eps * eps * t_star
        if not (dt > 0 and t / dt < np.inf):
            raise ValueError(f"epsilon={eps} and t_star={t_star} give a step {dt} too small")
        step_matrix = np.eye(rate.n) + dt * rate.matrix
        _require_stochastic(step_matrix, f"one-step matrix at epsilon={eps}")
        # Absolute nudge before floor: exact divisions like 1/0.1**2 land a
        # hair below the integer in binary floating point.
        n_steps = int(math.floor(t / dt + 1e-9))
        power = np.linalg.matrix_power(step_matrix, n_steps)
        rows.append(ScalingRow(eps, n_steps, float(np.abs(power - target).max())))
    return tuple(rows)


@dataclass(frozen=True)
class TrivialityRow:
    n_subdivisions: int
    step: float
    alpha: float
    bound: float
    product_distance: float


def theta_markov_triviality_demo(theta_step: Callable[[float], np.ndarray],
                                 t_minus_s: float,
                                 n_values: Sequence[int],
                                 tol_identity: float = TOL_STOCH
                                 ) -> tuple[TrivialityRow, ...]:
    """Composing many squared-moduli steps of a differentiable matrix family.

    For each subdivision count ``n`` the interval is split into steps of size
    ``h``, the per-step hold-back deficit ``alpha(h) = max_j (1 - diag_j)`` of
    the squared-moduli kernel is measured, and the n-fold kernel product is
    compared against the identity. Both the union bound ``n * alpha(h)`` and
    the product distance shrink as ``n`` grows, so a composition law over
    vanishing steps forces the trivial evolution. A ``tol_identity`` that is
    not a finite nonnegative number raises ``ValueError``.
    """
    _require_tolerance(tol_identity)
    _require_positive(t_minus_s, "time span")
    theta0 = np.asarray(theta_step(0.0))
    if not np.abs(theta0 - np.eye(theta0.shape[0])).max() <= tol_identity:
        raise ValidationError("theta_step(0) must be the identity")
    rows = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("subdivision counts must be positive")
        h = t_minus_s / n
        theta = np.asarray(theta_step(h))
        gamma = StochasticKernel(np.abs(theta) ** 2)
        alpha = float(max(0.0, (1.0 - np.diag(gamma.matrix)).max()))
        product = np.linalg.matrix_power(gamma.matrix, n)
        dist = float(np.abs(product - np.eye(gamma.n)).max())
        rows.append(TrivialityRow(n, h, alpha, n * alpha, dist))
    return tuple(rows)
