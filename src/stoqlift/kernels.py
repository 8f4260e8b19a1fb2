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

from ._arrays import (TOL_DIV, TOL_PROB, TOL_STOCH, expm, frozen as _frozen,
                      numerical_rank as _numerical_rank,
                      same_dimension as _same_dimension, square as _square,
                      strict_grid as _strict_grid)
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
    """
    m = _square(matrix, "kernel", dtype=float)
    neg = -m.min()
    max_neg = 0.0 if neg <= 0.0 else float(neg)  # NaN stays NaN, -0.0 does not appear
    col_err = float(np.abs(m.sum(axis=0) - 1.0).max())
    passed = max_neg <= tol_entry and col_err <= tol_colsum
    return KernelValidationReport(passed, max_neg, col_err, tol_entry, tol_colsum)


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
        """Point mass on configuration ``index``."""
        e = np.zeros(n)
        e[index] = 1.0
        return cls(e)

    def __repr__(self):
        return f"ProbabilityVector({self._entries.tolist()})"


class StochasticKernel:
    """Column-stochastic transition matrix, optionally time-stamped.

    When both time stamps are given and equal, the matrix must be the
    identity (no evolution over zero elapsed time).
    """

    def __init__(self, matrix, from_time: float | None = None,
                 to_time: float | None = None,
                 tol_entry: float = TOL_PROB, tol_colsum: float = TOL_STOCH):
        report = validate_kernel(matrix, tol_entry=tol_entry, tol_colsum=tol_colsum)
        if not report.passed:
            raise ValidationError(
                "matrix is not column-stochastic "
                f"(worst negative entry {report.max_negative_entry:.3e}, "
                f"worst column-sum error {report.max_column_sum_error:.3e})",
                report=report)
        m = np.asarray(matrix, dtype=float)
        if from_time is not None and to_time is not None and from_time == to_time:
            if np.abs(m - np.eye(m.shape[0])).max() > tol_colsum:
                raise ValidationError(
                    "kernel between equal times must be the identity")
        self._matrix = _frozen(np.maximum(m, 0.0))
        self.from_time = from_time
        self.to_time = to_time

    @classmethod
    def _passed(cls, matrix: np.ndarray) -> "StochasticKernel":
        """An untimed kernel from a matrix ``validate_kernel`` has passed."""
        kernel = cls.__new__(cls)
        kernel._matrix = _frozen(np.maximum(matrix, 0.0))
        kernel.from_time = kernel.to_time = None
        return kernel

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def identity(cls, n: int, from_time: float | None = None,
                 to_time: float | None = None) -> "StochasticKernel":
        return cls(np.eye(n), from_time=from_time, to_time=to_time)

    def __repr__(self):
        times = ""
        if self.from_time is not None or self.to_time is not None:
            times = f", from_time={self.from_time}, to_time={self.to_time}"
        return f"StochasticKernel({self._matrix.tolist()}{times})"


class RateMatrix:
    """Generator of a continuous-time Markov chain.

    Off-diagonal entries are nonnegative transition rates (units 1/time) and
    every column sums to zero, so that probability is conserved.
    """

    def __init__(self, matrix, tol: float = TOL_STOCH):
        m = _square(matrix, "rate matrix", dtype=float)
        off_min = float(m[~np.eye(m.shape[0], dtype=bool)].min(initial=0.0))
        if not off_min >= -tol:
            raise ValidationError(f"negative off-diagonal rate {off_min:.3e}")
        col_err = float(np.abs(m.sum(axis=0)).max())
        if not col_err <= tol:
            raise ValidationError(
                f"columns must sum to zero, worst deviation {col_err:.3e}")
        self._matrix = _frozen(m.copy())

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self):
        return f"RateMatrix({self._matrix.tolist()})"


class KernelFamily:
    """Two-parameter family of transition kernels over a time grid.

    ``kernel_fn(t, s)`` must produce the transition matrix from time ``s`` to
    time ``t >= s``; the family is checked to return the identity at equal
    times for every grid point.
    """

    def __init__(self, grid: Sequence[float],
                 kernel_fn: Callable[[float, float], object],
                 tol_identity: float = TOL_STOCH):
        self.grid = _strict_grid(grid)
        self._fn = kernel_fn
        for s in self.grid:
            k = self.kernel(float(s), float(s))
            if np.abs(k.matrix - np.eye(k.n)).max() > tol_identity:
                raise ValidationError(
                    f"kernel({s}, {s}) is not the identity")

    def kernel(self, t: float, s: float) -> StochasticKernel:
        if t < s:
            raise ValueError(f"kernel requires t >= s, got t={t}, s={s}")
        out = self._fn(t, s)
        if isinstance(out, StochasticKernel):
            return out
        return StochasticKernel(np.asarray(out, dtype=float),
                                from_time=s, to_time=t)

    @classmethod
    def from_rate_matrix(cls, rate: RateMatrix | np.ndarray,
                         grid: Sequence[float]) -> "KernelFamily":
        """Semigroup family ``exp((t - s) R)`` of a constant rate matrix."""
        r = rate if isinstance(rate, RateMatrix) else RateMatrix(rate)
        return cls(grid, lambda t, s: expm((t - s) * r.matrix))

    @classmethod
    def from_theta(cls, theta_fn: Callable[[float, float], np.ndarray],
                   grid: Sequence[float]) -> "KernelFamily":
        """Family of squared moduli ``|theta(t, s)|**2`` of a complex matrix."""
        return cls(grid, lambda t, s: np.abs(np.asarray(theta_fn(t, s))) ** 2)


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


def check_ck_family(family: KernelFamily, tolerance: float = TOL_STOCH) -> CkFamilyReport:
    """Test the composition law kernel(t,s) = kernel(t,u) @ kernel(u,s).

    Every ordered triple of grid times is checked; the residual is the
    max-norm difference between the direct kernel and the composed one.
    Each grid pair's kernel is evaluated once.
    """
    grid = family.grid
    if grid.size < 3:
        raise ValueError("composition check needs a grid with at least 3 times")
    times = [float(x) for x in grid]
    kernel = {(i, j): family.kernel(times[j], times[i]).matrix
              for i, j in itertools.combinations(range(len(times)), 2)}
    rows = []
    worst = 0.0
    for i, j, k in itertools.combinations(range(len(times)), 3):
        res = float(np.abs(kernel[i, k] - kernel[j, k] @ kernel[i, j]).max())
        worst = max(worst, res)
        rows.append(CkTripleResidual(times[i], times[j], times[k], res))
    return CkFamilyReport(worst <= tolerance, worst, tuple(rows))


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


def _validated(candidate, route, tol, **fields) -> CDivisibilityResult:
    report = validate_kernel(candidate, tol_entry=tol, tol_colsum=tol)
    witness = StochasticKernel._passed(candidate) if report.passed else None
    return CDivisibilityResult(report.passed, witness, route,
                               candidate_validation=report, **fields)


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
    return _validated(x0 + np.outer(y, u), "feasibility", tol, infeasibility=0.0)


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
    result = _validated(x0 + res.x[:n * k].reshape(n, k) @ u.T, "feasibility",
                        tol, infeasibility=0.0)
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
    certificate and, failing that, a linear program.
    """
    _same_dimension(gamma_20.n, gamma_10.n, "gamma_20", "gamma_10")
    n = gamma_10.n
    u, s, vt = np.linalg.svd(gamma_10.matrix)
    rank = _numerical_rank(s, tolerance)
    b = gamma_20.matrix @ vt.T
    x0 = (b[:, :rank] / s[:rank]) @ u[:, :rank].T
    if rank == n:
        return _validated(x0, "inverse", tolerance)

    b, s, u = b[:, rank:], s[rank:], u[:, rank:]
    # A zero singular value makes its box all of R or empty (b / 0 = +-inf).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y_ls = np.where(s > 0, b / s, 0.0)
        y = y_ls + (u.sum(axis=0) - y_ls.sum(axis=0)) / n
        # The column-sum correction moves the residual, so it is checked.
        if np.abs(y * s - b).max() <= tolerance:
            result = _validated(x0 + y @ u.T, "feasibility", tolerance,
                                infeasibility=0.0)
            if result.divisible:
                return result
        lo, hi = (b - tolerance) / s, (b + tolerance) / s
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


def _offdiagonal_l1(matrix: np.ndarray) -> float:
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    return float(np.abs(off).sum())


def short_time_derivatives(family: KernelFamily, t: float,
                           steps: Sequence[float]) -> ShortTimeReport:
    """Estimate the first two step-derivatives of ``kernel(t + h, t)`` at h = 0.

    Kernels are only defined forward in time, so the stencils are one-sided,
    anchored at the exact identity value at zero elapsed time; with the two
    smallest steps they are second-order accurate for the first derivative.
    """
    hs = sorted({float(h) for h in steps})
    if not all(0 < h < np.inf for h in hs):  # NaN fails too
        raise ValueError("all step sizes must be positive and finite")
    if len(hs) < 2:
        raise ValueError("need at least two distinct step sizes")
    values = {h: family.kernel(t + h, t).matrix for h in hs}
    n = values[hs[0]].shape[0]
    eye = np.eye(n)

    h1, h2 = hs[0], hs[1]
    g1, g2 = values[h1], values[h2]
    gap = h2 - h1
    d1 = (-(h1 + h2) / (h1 * h2)) * eye \
        + (h2 / (h1 * gap)) * g1 - (h1 / (h2 * gap)) * g2
    d2 = 2.0 * (eye / (h1 * h2) - g1 / (h1 * gap) + g2 / (h2 * gap))

    masses = [_offdiagonal_l1(values[h]) for h in hs]
    floored = np.maximum(masses, np.finfo(float).tiny)
    slope = float(np.polyfit(np.log(hs), np.log(floored), 1)[0])
    return ShortTimeReport(_frozen(d1), _frozen(d2), h1, slope,
                           tuple(hs), tuple(masses))


def _exp_rate(rate: RateMatrix, t: float) -> np.ndarray:
    """``exp(t R)``, checked to be stochastic at the default tolerances.

    Rounding in ``expm`` grows with ``t |R|``: the column sums drift off one
    long before the result overflows to NaN, so either is refused here with
    the offending ``t``.
    """
    if not 0 <= t < np.inf:  # NaN fails too
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    kernel = expm(t * rate.matrix)
    report = validate_kernel(kernel)
    if not report.passed:
        raise ValueError(
            f"t={t} is too large for the rates: exp(tR) is not stochastic "
            f"(column-sum error {report.max_column_sum_error:.3e}, "
            f"worst negative entry {report.max_negative_entry:.3e})")
    return kernel


def ctmc_propagate(rate: RateMatrix, p0: ProbabilityVector,
                   t: float) -> ProbabilityVector:
    """Evolve ``p0`` for time ``t`` under the master equation dp/dt = R p."""
    p = _exp_rate(rate, t) @ p0.entries
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
    target = _exp_rate(rate, t)
    if not 0 < t_star < np.inf:
        raise ValueError(
            f"microscopic time scale must be positive and finite, got {t_star}")
    rows = []
    for eps in epsilons:
        eps = float(eps)
        if not 0 < eps < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
        dt = eps * eps * t_star
        step_matrix = np.eye(rate.n) + dt * rate.matrix
        report = validate_kernel(step_matrix)
        if not report.passed:
            raise ValidationError(
                f"epsilon={eps} is too large for the given rates: one-step "
                "matrix fails stochastic validation "
                f"(worst negative entry {report.max_negative_entry:.3e})",
                report=report)
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
    vanishing steps forces the trivial evolution.
    """
    if not 0 < t_minus_s < np.inf:  # NaN fails too
        raise ValueError(f"time span must be positive and finite, got {t_minus_s}")
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
