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
_SOLVER_RTOL = 1e-6  # A/D duality-gap stop and E improvement threshold, relative
_FW_MAX_ITER = 50_000
_E_MAX_ITER = 20_000


class Criterion(enum.Enum):
    A_OPT = "a"
    D_OPT = "d"
    E_OPT = "e"

    @classmethod
    def parse(cls, text: str) -> "Criterion":
        try:
            return cls(text.strip().lower()[0])
        except (ValueError, IndexError):
            raise ValueError(f"unknown criterion {text!r}; expected a, d or e")


@dataclass(frozen=True)
class DesignWeights:
    """Fractional design p on the probability simplex."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise ValueError("design weights must be a vector")
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
        m = np.array(self.m, dtype=int)
        if (m < 0).any():
            raise ValueError("quotas must be nonnegative")
        if int(m.sum()) != self.budget:
            raise ValueError(
                f"quotas sum to {int(m.sum())}, expected budget {self.budget}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class QuantizationResidual:
    """Per-node quantization error m_i/M - p_i."""

    delta_p: np.ndarray


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


def criterion_gradient(
    rows: np.ndarray, weights: DesignWeights, criterion: Criterion
) -> np.ndarray:
    """Gradient (subgradient for E) of the criterion with respect to p."""
    rows = np.asarray(rows, dtype=float)
    A = information_matrix(rows, weights)
    _checked_eigvalsh(A)
    if criterion is Criterion.E_OPT:
        w, V = np.linalg.eigh(A)
        v_min = V[:, 0]
        return -((rows @ v_min) ** 2)
    Ainv = np.linalg.inv(A)
    B = Ainv if criterion is Criterion.D_OPT else Ainv @ Ainv
    return -np.einsum("ij,jk,ik->i", rows, B, rows)


def duality_gap(
    rows: np.ndarray, weights: DesignWeights, criterion: Criterion
) -> float:
    """Linear-minimization gap over the simplex; zero iff p is stationary."""
    g = criterion_gradient(rows, weights, criterion)
    return float(weights.p @ g - g.min())


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort & threshold)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = np.max(np.nonzero(u - css / idx > 0)[0]) + 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _crit_of_A(A: np.ndarray, criterion: Criterion) -> float:
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0:
        return np.inf
    if criterion is Criterion.D_OPT:
        return float(-np.sum(np.log(w)))
    return float(np.sum(1.0 / w))


def _ternary_step(A, D, hi, criterion, iters=50):
    """Minimize gamma -> crit(A + gamma*D) on [0, hi] by ternary search."""
    lo = 0.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _crit_of_A(A + m1 * D, criterion) < _crit_of_A(A + m2 * D, criterion):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _forward_step(A, u_j, f, slope, criterion, k):
    """Step size toward vertex j: closed form for D, backtracking for A."""
    if criterion is Criterion.D_OPT:
        d = float(u_j @ np.linalg.solve(A, u_j))
        if d <= 1.0 + 1e-14:
            return 0.0
        return float(np.clip((d - k) / (k * (d - 1.0)), 0.0, 1.0 - 1e-12))
    gamma = 0.999
    D = np.outer(u_j, u_j) - A
    for _ in range(60):
        if _crit_of_A(A + gamma * D, criterion) <= f + 1e-4 * gamma * slope:
            return gamma
        gamma *= 0.5
    return 0.0


def _solve_fw(rows, criterion, max_iter, tol):
    """Frank-Wolfe with pairwise (swap) steps for the A/D criteria.

    Stops when the duality gap drops below tol * max(1, |objective|).
    Ties in the vertex argmin resolve to the lowest index via np.argmin.
    """
    n, k = rows.shape
    p = np.full(n, 1.0 / n)
    A = rows.T @ (p[:, None] * rows)
    for _ in range(max_iter):
        Ainv = np.linalg.inv(A)
        if criterion is Criterion.D_OPT:
            g = -np.einsum("ij,jk,ik->i", rows, Ainv, rows)
            f = float(-np.linalg.slogdet(A)[1])
        else:
            B = Ainv @ Ainv
            g = -np.einsum("ij,jk,ik->i", rows, B, rows)
            f = float(np.trace(Ainv))
        j = int(np.argmin(g))
        gap = float(p @ g - g[j])
        if gap <= tol * max(1.0, abs(f)):
            break
        support = np.nonzero(p > 1e-15)[0]
        a = int(support[np.argmax(g[support])])
        u_j, u_a = rows[j], rows[a]
        moved = False
        if a != j:
            D = np.outer(u_j, u_j) - np.outer(u_a, u_a)
            gamma = _ternary_step(A, D, p[a], criterion)
            if gamma > 0 and _crit_of_A(A + gamma * D, criterion) < f:
                p[j] += gamma
                p[a] -= gamma
                if p[a] < 1e-15:
                    p[a] = 0.0
                A = A + gamma * D
                moved = True
        if not moved:
            gamma = _forward_step(A, u_j, f, -gap, criterion, k)
            if gamma <= 0:
                break
            p *= 1.0 - gamma
            p[j] += gamma
            A = (1.0 - gamma) * A + gamma * np.outer(u_j, u_j)
        total = p.sum()
        if abs(total - 1.0) > 1e-13:
            p /= total
    return p


def _solve_e_subgradient(rows):
    """Projected subgradient with diminishing steps for the E criterion.

    Returns the best iterate seen; the subgradient has no gap certificate.
    """
    n, _ = rows.shape
    p = np.full(n, 1.0 / n)
    best_p = p.copy()
    best_val = criterion_value(information_matrix(rows, DesignWeights(p)), Criterion.E_OPT)
    stall = 0
    for t in range(_E_MAX_ITER):
        A = rows.T @ (p[:, None] * rows)
        w, V = np.linalg.eigh(A)
        if w[0] <= _SINGULARITY_RTOL * w[-1]:
            p = 0.5 * (p + 1.0 / n)
            continue
        g = -((rows @ V[:, 0]) ** 2)
        step = 0.5 / math.sqrt(t + 1.0)
        p = project_simplex(p - step * g)
        w_new = np.linalg.eigvalsh(rows.T @ (p[:, None] * rows))
        if w_new[0] <= 0:
            continue
        val = 1.0 / w_new[0]
        if val < best_val - _SOLVER_RTOL * max(1.0, best_val):
            best_val, best_p = float(val), p.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 500:
                break
    return best_p


def solve_relaxed(rows: np.ndarray, criterion: Criterion) -> DesignWeights:
    """Solve the relaxed design problem min f(A(p)^-1) over the simplex.

    D/A: pairwise Frank-Wolfe, stopping once the duality gap is at most 1e-6
    times max(1, |objective|), or after 50,000 iterations.
    E: projected subgradient with diminishing steps, at most 20,000 of them;
    the best iterate is returned. Deterministic.
    """
    rows = np.asarray(rows, dtype=float)
    n, k = rows.shape
    if n < k:
        raise ValueError(f"need at least K={k} rows, got {n}")
    if criterion is Criterion.E_OPT:
        p = _solve_e_subgradient(rows)
    else:
        p = _solve_fw(rows, criterion, _FW_MAX_ITER, _SOLVER_RTOL)
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return DesignWeights(p)


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


def probabilistic_quantize(
    weights: DesignWeights, budget: int, seed=None
) -> tuple[SampleAllocation, QuantizationResidual]:
    """Randomized rounding of p to integer quotas followed by budget repair."""
    rng = np.random.default_rng(seed)
    raw = quantize_raw(weights, budget, rng)
    alloc = budget_repair(raw, weights, budget)
    return alloc, QuantizationResidual(delta_p=alloc.m / budget - weights.p)


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


def perturbation_norm(
    rows: np.ndarray, residual: QuantizationResidual
) -> tuple[float, float]:
    """Spectral norm of the information-matrix perturbation and its bound.

    The perturbation sum_i dp_i u_i u_i^T = R^T diag(dp) R has spectral norm
    at most max |dp_i| when R has orthonormal columns (R^T R = I), as the
    rows from `design_rows` do. Row norms <= 1 alone are not enough.
    Raises ValueError when the norm exceeds the bound, which means the rows
    break that precondition.
    """
    rows = np.asarray(rows, dtype=float)
    dp = np.asarray(residual.delta_p, dtype=float)
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
    """Quantize a relaxed design to quotas, repairing the budget and, when the
    quantized matrix comes out singular, shifting one budget unit at a time
    from the most-sampled node to the unsampled node with largest weight, at
    most K times for K = rows.shape[1].

    Returns the allocation and the number of shifts applied.
    """
    rows = np.asarray(rows, dtype=float)
    alloc, _ = probabilistic_quantize(weights, budget, seed=seed)
    m = alloc.m.copy()
    shifts = 0
    while True:
        try:
            quantized_information_matrix(rows, SampleAllocation(m=m, budget=budget))
            return SampleAllocation(m=m, budget=budget), shifts
        except SingularInformationMatrix:
            if shifts >= rows.shape[1]:
                raise FallbackExhausted(
                    f"quantized design still singular after {shifts} budget shifts"
                )
            unsampled = np.nonzero(m == 0)[0]
            donors = np.nonzero(m > 1)[0]
            if len(unsampled) == 0 or len(donors) == 0:
                raise FallbackExhausted("no budget shift available")
            target = int(unsampled[np.argmax(weights.p[unsampled])])
            donor = int(donors[np.argmax(m[donors])])
            m[donor] -= 1
            m[target] += 1
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
