"""Relaxed experimental design on the simplex, probabilistic quantization to
integer sample quotas, and the perturbation / sample-size analysis."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FallbackExhausted, SingularInformationMatrix
from .spectral import SpectralBasis, design_rows

_SINGULARITY_RTOL = 1e-12
_SOLVER_RTOL = 1e-6  # relative duality gap: A/D stopping rule, E certificate
_FW_MAX_ITER = 50_000


class Criterion(enum.Enum):
    A_OPT = "a"
    D_OPT = "d"
    E_OPT = "e"

    @classmethod
    def parse(cls, text: str) -> "Criterion":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown criterion {text!r}; expected a, d or e") from None


@dataclass(frozen=True)
class DesignWeights:
    """Fractional design p on the probability simplex."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise ValueError("design weights must be a vector")
        if not np.isfinite(p).all():
            raise ValueError("design weights must be finite")
        if (p < -1e-12).any():
            raise ValueError("design weights must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"design weights must sum to 1, got {p.sum()}")
        p = np.maximum(p, 0.0)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class SampleAllocation:
    """Integer sample quotas m with sum(m) == total budget."""

    m: np.ndarray
    budget: int

    def __post_init__(self):
        m = np.asarray(self.m)
        if m.dtype.kind not in "iu":
            m = np.asarray(m, dtype=float)
            if not (np.isfinite(m) & (m == np.round(m))).all():
                raise ValueError(f"quotas must be integers, got {m.tolist()}")
        m = m.astype(int)
        if (m < 0).any():
            raise ValueError("quotas must be nonnegative")
        if int(m.sum()) != self.budget:
            raise ValueError(
                f"quotas sum to {int(m.sum())}, expected budget {self.budget}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "m", m)


def information_matrix(rows: np.ndarray, weights: DesignWeights) -> np.ndarray:
    """A = sum_i p_i u_i u_i^T for the design rows u_i."""
    rows = np.asarray(rows, dtype=float)
    p = weights.p
    if rows.shape[0] != p.shape[0]:
        raise ValueError(
            f"{rows.shape[0]} rows but {p.shape[0]} weights"
        )
    return rows.T @ (p[:, None] * rows)


def _checked_eigvalsh(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric information matrix, or raise if singular."""
    w = np.linalg.eigvalsh(A)
    if w[-1] <= 0 or w[0] <= _SINGULARITY_RTOL * w[-1]:
        raise SingularInformationMatrix(
            f"sigma_min={w[0]:.3e} below threshold for norm {w[-1]:.3e}"
        )
    return w


def criterion_value(A: np.ndarray, criterion: Criterion) -> float:
    """Scalarize the inverse information matrix: -log det A, 1/lambda_min(A),
    or tr(A^-1) for D, E, A optimality respectively."""
    w = _checked_eigvalsh(np.asarray(A, dtype=float))
    if criterion is Criterion.D_OPT:
        return float(-np.sum(np.log(w)))
    if criterion is Criterion.E_OPT:
        return float(1.0 / w[0])
    return float(np.sum(1.0 / w))


def _gradient(rows, Ainv, criterion):
    """-u_i^T B u_i for every row: the gradient in p of -log det A (B = A^-1)
    or of tr(A^-1) (B = A^-2), given Ainv = A^-1."""
    B = Ainv if criterion is Criterion.D_OPT else Ainv @ Ainv
    return -np.einsum("ij,jk,ik->i", rows, B, rows)


def criterion_gradient(
    rows: np.ndarray, weights: DesignWeights, criterion: Criterion
) -> np.ndarray:
    """Gradient of the A or D criterion with respect to p; E has none."""
    if criterion is Criterion.E_OPT:
        raise ValueError("the E criterion has no gradient")
    rows = np.asarray(rows, dtype=float)
    A = information_matrix(rows, weights)
    _checked_eigvalsh(A)
    return _gradient(rows, np.linalg.inv(A), criterion)


def _e_bound(rows: np.ndarray) -> float:
    """Upper bound on max_p lambda_min(A(p)): lambda_min(A) <= tr(Z A) for any
    Z >= 0 with tr Z = 1, and max_p tr(Z A(p)) = max_i u_i^T Z u_i. Returns the
    smaller of those values for Z = e_c e_c^T (best column c) and Z = I / K."""
    sq = np.asarray(rows, dtype=float) ** 2
    return float(min(sq.max(axis=0).min(), sq.sum(axis=1).max() / rows.shape[1]))


def duality_gap(
    rows: np.ndarray, weights: DesignWeights, criterion: Criterion
) -> float:
    """An upper bound on f(p) - f*. A/D: the Frank-Wolfe linear-minimization
    gap over the simplex. E: 1/lambda_min(A(p)) - 1/_e_bound(rows) (Kiefer's
    equivalence theorem), 0 at the uniform design of a constant-column basis."""
    if criterion is Criterion.E_OPT:
        f = criterion_value(information_matrix(rows, weights), criterion)
        return f - 1.0 / _e_bound(rows)
    g = criterion_gradient(rows, weights, criterion)
    return float(weights.p @ g - g.min())


def _pairwise_step(Ainv, u_j, u_a, hi, criterion):
    """Exact minimizer on [0, hi] of gamma -> crit(A + gamma (u_j u_j^T - u_a u_a^T)).

    The swap is a rank-2 update. With x = A^-1 u_j, y = A^-1 u_a and the 2x2
    Gram entries g11 = u_j.x, g22 = u_a.y, g12 = u_j.y, Sylvester's identity
    gives det ratio q(gamma) = 1 + e gamma - d gamma^2 (e = g11 - g22,
    d = g11 g22 - g12^2). D: -log q is minimized at e / (2d). A: by Woodbury
    tr((A + ...)^-1) = tr(A^-1) + (b gamma + c gamma^2) / q(gamma), stationary
    at the positive root of (bd + ce) gamma^2 + 2c gamma + b = 0. The
    criterion is convex along the segment, so returns 0 when the swap does not
    descend at gamma = 0, and hi when it descends all the way.
    """
    x, y = Ainv @ u_j, Ainv @ u_a
    g11, g22, g12 = u_j @ x, u_a @ y, u_j @ y
    e = g11 - g22
    d = g11 * g22 - g12 * g12
    if criterion is Criterion.D_OPT:
        if e <= 0:
            return 0.0
        return float(hi if e >= 2.0 * d * hi else e / (2.0 * d))
    h11, h22, h12 = x @ x, y @ y, x @ y
    b = h22 - h11
    if b >= 0:
        return 0.0
    c = g22 * h11 + g11 * h22 - 2.0 * g12 * h12
    disc = c * c - (b * d + c * e) * b
    denom = c + math.sqrt(disc) if disc >= 0 else 0.0
    return float(hi if -b >= denom * hi else -b / denom)


def _solve_fw(rows, criterion):
    """Pairwise Frank-Wolfe with exact line search for the A/D criteria.

    Starts from the uniform design. Each iteration moves the exact
    `_pairwise_step` weight from the support node with the largest gradient
    to the node with the smallest (lowest index on ties); a step that takes
    all of a node's weight drops it from the support. Stops when the duality
    gap is at most _SOLVER_RTOL * max(1, |objective|), when the step is 0, or
    after _FW_MAX_ITER iterations. Pairwise moves conserve sum(p).
    """
    n, _ = rows.shape
    p = np.full(n, 1.0 / n)
    A = rows.T @ (p[:, None] * rows)
    for _ in range(_FW_MAX_ITER):
        Ainv = np.linalg.inv(A)
        g = _gradient(rows, Ainv, criterion)
        f = -np.linalg.slogdet(A)[1] if criterion is Criterion.D_OPT else np.trace(Ainv)
        j = int(np.argmin(g))
        gap = float(p @ g - g[j])
        if gap <= _SOLVER_RTOL * max(1.0, abs(f)):
            break
        support = np.nonzero(p > 1e-15)[0]
        a = int(support[np.argmax(g[support])])
        u_j, u_a = rows[j], rows[a]
        gamma = _pairwise_step(Ainv, u_j, u_a, p[a], criterion)
        if gamma <= 0:
            break
        p[j] += gamma
        p[a] -= gamma  # exactly 0 when gamma == p[a]
        A = A + gamma * (np.outer(u_j, u_j) - np.outer(u_a, u_a))
    return p


def solve_relaxed(rows: np.ndarray, criterion: Criterion) -> DesignWeights:
    """Solve the relaxed design problem min f(A(p)^-1) over the simplex.

    D/A: pairwise Frank-Wolfe with exact (closed-form) line search from the
    uniform design, stopping once the duality gap is at most 1e-6 times
    max(1, |objective|), or after 50,000 iterations.
    E: the uniform design, once `duality_gap` certifies it to 1e-6 times
    max(1, objective), as a constant column (the `design_rows` of a connected
    graph) always does; other rows raise ValueError. Deterministic.
    """
    rows = np.asarray(rows, dtype=float)
    n, k = rows.shape
    if n < k:
        raise ValueError(f"need at least K={k} rows, got {n}")
    if criterion is Criterion.E_OPT:
        p = np.full(n, 1.0 / n)
    else:
        p = _solve_fw(rows, criterion)
    p = np.maximum(p, 0.0)
    p /= p.sum()
    weights = DesignWeights(p)
    if criterion is Criterion.E_OPT:
        f = criterion_value(information_matrix(rows, weights), criterion)
        gap = duality_gap(rows, weights, criterion)
        if gap > _SOLVER_RTOL * max(1.0, f):
            raise ValueError(
                "E-optimal design needs rows whose uniform design is certified "
                f"optimal, such as rows with a constant column; gap is {gap:.3e}"
            )
    return weights


def _grid_split(weights: DesignWeights, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Split p * budget into its grid floor and the offset above it, with
    float noise at grid points snapped so exact multiples stay deterministic."""
    x = weights.p * budget
    floor = np.floor(x)
    frac = x - floor
    snap_up = frac > 1.0 - 1e-9
    floor[snap_up] += 1.0
    frac[snap_up] = 0.0
    frac[frac < 1e-9] = 0.0
    return floor, frac


def quantize_raw(weights: DesignWeights, budget: int, rng) -> np.ndarray:
    """One independent draw of the two-point randomized rounding of each p_i
    to an adjacent multiple of 1/budget. Unbiased; the draws need not sum
    to the budget."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(rng)
    floor, frac = _grid_split(weights, budget)
    return (floor + (rng.random(len(frac)) < frac)).astype(int)


def budget_repair(raw: np.ndarray, weights: DesignWeights, budget: int) -> SampleAllocation:
    """Adjust quotas one grid step at a time until they sum to the budget.

    Decrements the largest positive residual m_i/budget - p_i (only where
    m_i >= 1); increments the largest deficit p_i - m_i/budget. Ties go to
    the lowest index.
    """
    m = np.asarray(raw, dtype=int).copy()
    if (m < 0).any():
        raise ValueError("raw quotas must be nonnegative")
    p = weights.p
    while m.sum() > budget:
        resid = m / budget - p
        resid[m < 1] = -np.inf
        m[int(np.argmax(resid))] -= 1
    while m.sum() < budget:
        deficit = p - m / budget
        m[int(np.argmax(deficit))] += 1
    return SampleAllocation(m=m, budget=budget)


def quantized_information_matrix(
    rows: np.ndarray, alloc: SampleAllocation
) -> np.ndarray:
    """Information matrix of the quantized design sum_i (m_i/M) u_i u_i^T.

    Raises SingularInformationMatrix when the quantized design lost rank.
    """
    rows = np.asarray(rows, dtype=float)
    p = alloc.m / alloc.budget
    A = rows.T @ (p[:, None] * rows)
    _checked_eigvalsh(A)
    return A


def residual_variance_analytic(budget: int) -> float:
    """The uniform-distribution variance approximation 5 / (192 M^3)."""
    return 5.0 / (192.0 * budget**3)


def empirical_residual_variance(
    weights: DesignWeights, budget: int, draws: int = 100_000, seed=None
) -> np.ndarray:
    """Monte Carlo per-coordinate variance of the pre-repair rounding error.

    Provided alongside the analytic approximation so the two can be compared;
    the analytic value assumes p_i uniform within its grid cell.
    """
    rng = np.random.default_rng(seed)
    _, frac = _grid_split(weights, budget)
    up = rng.random((draws, len(frac))) < frac[None, :]
    delta = (up - frac[None, :]) / budget
    return delta.var(axis=0)


def invertibility_probability_bound(sigma_min: float, budget: int, n: int) -> float:
    """Lower bound on P(quantized information matrix stays invertible),
    using the analytic rounding-error variance 5/(192 M^3)."""
    if sigma_min <= 0:
        raise ValueError(f"sigma_min must be positive, got {sigma_min}")
    if budget < 1 or n < 1:
        raise ValueError("budget and n must be >= 1")
    factor = 1.0 - residual_variance_analytic(budget) / sigma_min**2
    if factor <= 0.0:
        return 0.0
    return factor**n


def min_sample_size(sigma_min: float, n: int, eta: float) -> int:
    """Smallest budget guaranteeing invertibility with probability eta,
    by the ceiling formula (5 / (192 (1 - eta^(1/n)) sigma_min^2))^(1/3)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    if sigma_min <= 0:
        raise ValueError(f"sigma_min must be positive, got {sigma_min}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    value = (5.0 / (192.0 * (1.0 - eta ** (1.0 / n)) * sigma_min**2)) ** (1.0 / 3.0)
    return max(1, math.ceil(value))


def perturbation_norm(rows: np.ndarray, delta_p: np.ndarray) -> tuple[float, float]:
    """Spectral norm of the information-matrix perturbation and its bound.

    For a quantization residual delta_p = m/M - p, the perturbation
    sum_i dp_i u_i u_i^T = R^T diag(dp) R has spectral norm at most
    max |dp_i| when R has orthonormal columns (R^T R = I), as the rows from
    `design_rows` do. Row norms <= 1 alone are not enough.
    Raises ValueError when the norm exceeds the bound, which means the rows
    break that precondition.
    """
    rows = np.asarray(rows, dtype=float)
    dp = np.asarray(delta_p, dtype=float)
    if rows.shape[0] != dp.shape[0]:
        raise ValueError("residual length does not match row count")
    dA = rows.T @ (dp[:, None] * rows)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(dA)))) if dA.size else 0.0
    bound = float(np.max(np.abs(dp))) if dp.size else 0.0
    if norm > bound + 1e-10:
        raise ValueError(
            f"perturbation norm {norm:.3e} exceeds max |dp_i| = {bound:.3e}; "
            "the bound needs rows with orthonormal columns (rows^T rows = I)"
        )
    return norm, bound


def allocate_from_weights(
    rows: np.ndarray,
    weights: DesignWeights,
    budget: int,
    seed=None,
) -> tuple[SampleAllocation, int]:
    """Quantize a relaxed design to quotas: one randomized rounding
    (`quantize_raw`, drawn from `seed`) followed by `budget_repair`. When the
    quantized matrix comes out singular, shifts one budget unit at a time
    from the most-sampled node to the unsampled node with largest weight, at
    most K times for K = rows.shape[1].

    Returns the allocation and the number of shifts applied.
    """
    rows = np.asarray(rows, dtype=float)
    alloc = budget_repair(quantize_raw(weights, budget, seed), weights, budget)
    shifts = 0
    while True:
        try:
            quantized_information_matrix(rows, alloc)
            return alloc, shifts
        except SingularInformationMatrix:
            if shifts >= rows.shape[1]:
                raise FallbackExhausted(
                    f"quantized design still singular after {shifts} budget shifts"
                )
            m = alloc.m.copy()
            unsampled = np.nonzero(m == 0)[0]
            donors = np.nonzero(m > 1)[0]
            if len(unsampled) == 0 or len(donors) == 0:
                raise FallbackExhausted("no budget shift available")
            target = int(unsampled[np.argmax(weights.p[unsampled])])
            donor = int(donors[np.argmax(m[donors])])
            m[donor] -= 1
            m[target] += 1
            alloc = SampleAllocation(m=m, budget=budget)
            shifts += 1


@dataclass(frozen=True)
class PipelineResult:
    weights: DesignWeights
    allocation: SampleAllocation
    diagnostics: dict = field(default_factory=dict)


def design_pipeline(
    basis: SpectralBasis,
    bandwidth: int,
    budget: int,
    criterion: Criterion = Criterion.A_OPT,
    seed=None,
) -> PipelineResult:
    """End-to-end design: rows -> relaxed solve -> quantize -> repair.

    `seed` drives the randomized rounding; the relaxed solve is deterministic.
    When the quantized design is singular, shifts one unit of budget at a
    time from the most-sampled node to the unsampled node with the largest
    relaxed weight, at most `bandwidth` times.
    """
    if budget < bandwidth:
        raise ValueError(
            f"budget {budget} below bandwidth {bandwidth}; design cannot be full rank"
        )
    rows = design_rows(basis, bandwidth)
    weights = solve_relaxed(rows, criterion)
    alloc, fallback_moves = allocate_from_weights(rows, weights, budget, seed=seed)
    A_hat = quantized_information_matrix(rows, alloc)
    A = information_matrix(rows, weights)
    sigma_min = float(np.linalg.eigvalsh(A)[0])
    diagnostics = {
        "relaxed_objective": criterion_value(A, criterion),
        "quantized_objective": criterion_value(A_hat, criterion),
        "duality_gap": duality_gap(rows, weights, criterion),
        "sigma_min": sigma_min,
        "invertibility_bound": invertibility_probability_bound(
            sigma_min, budget, len(weights.p)
        ),
        "fallback_moves": fallback_moves,
    }
    return PipelineResult(weights=weights, allocation=alloc, diagnostics=diagnostics)
