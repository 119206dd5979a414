"""Relaxed experimental design on the simplex, probabilistic quantization to
integer sample quotas, and the sample-size analysis."""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FallbackExhausted, SingularInformationMatrix
from .spectral import SpectralBasis, _integer, _rank_deficient, _sampled_eigh, design_rows

_SOLVER_RTOL = 1e-6  # relative duality gap: A/D stopping rule, E certificate
_FW_MAX_ITER = 50_000


class Criterion(enum.Enum):
    A_OPT = "a"
    D_OPT = "d"
    E_OPT = "e"

    @classmethod
    def _missing_(cls, value):
        """`Criterion(text)` takes a letter in any case, whitespace ignored."""
        text = value.strip().lower() if isinstance(value, str) else None
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown criterion {value!r}; expected a, d or e")


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


def _positive(value, what: str = "budget") -> int:
    """`value` as an int; ValueError unless it is an integer, not a bool,
    and at least 1."""
    value = _integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _integers(values, what: str) -> np.ndarray:
    """`values` as a new int array; ValueError unless the dtype is integer or
    real float and every entry is a finite integer (so strings, bools,
    complex and object entries are rejected; integral floats are accepted)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" and not (
        a.dtype.kind == "f" and (np.isfinite(a) & (a == np.round(a))).all()
    ):
        raise ValueError(f"{what} must be integers, got {a.tolist()}")
    return a.astype(int)


@dataclass(frozen=True)
class SampleAllocation:
    """Integer sample quotas m with sum(m) == budget >= 1; `indices` expands them."""

    m: np.ndarray
    budget: int

    def __post_init__(self):
        _positive(self.budget)
        m = _integers(self.m, "quotas")
        if m.ndim != 1:
            raise ValueError("quotas must be a vector")
        if (m < 0).any():
            raise ValueError("quotas must be nonnegative")
        if int(m.sum()) != self.budget:
            raise ValueError(
                f"quotas sum to {int(m.sum())}, expected budget {self.budget}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        """The sampling sequence, read-only: node i repeated m_i times, ascending."""
        idx = np.repeat(np.arange(len(self.m)), self.m)
        idx.flags.writeable = False
        return idx


def _as_rows(rows, finite: bool = False) -> np.ndarray:
    """`rows` as a float array; ValueError unless it is 2-D with a column
    and, when `finite`, every entry is finite."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0 or (finite and not np.isfinite(rows).all()):
        raise ValueError("design rows must be a finite 2-D array with a column")
    return rows


def information_matrix(rows: np.ndarray, weights: DesignWeights) -> np.ndarray:
    """A = sum_i p_i u_i u_i^T for the design rows u_i."""
    rows = _as_rows(rows)
    p = weights.p
    if rows.shape[0] != p.shape[0]:
        raise ValueError(
            f"{rows.shape[0]} rows but {p.shape[0]} weights"
        )
    return rows.T @ (p[:, None] * rows)


def _checked(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues `w` of an information matrix, or raise
    SingularInformationMatrix when they fail the rank rule."""
    if _rank_deficient(w):
        raise SingularInformationMatrix(
            f"sigma_min={w[0]:.3e} below threshold for norm {w[-1]:.3e}"
        )
    return w


def _scalarized(w: np.ndarray, criterion: Criterion) -> float:
    """`criterion_value` from the ascending eigenvalues `w` of A."""
    if criterion is Criterion.D_OPT:
        return float(-np.sum(np.log(w)))
    if criterion is Criterion.E_OPT:
        return float(1.0 / w[0])
    return float(np.sum(1.0 / w))


def criterion_value(A: np.ndarray, criterion: Criterion) -> float:
    """Scalarize the inverse information matrix: -log det A, 1/lambda_min(A),
    or tr(A^-1) for D, E, A optimality respectively. ValueError unless A is
    a non-empty square matrix with finite entries."""
    criterion = Criterion(criterion)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0 or not np.isfinite(A).all():
        raise ValueError(f"information matrix must be finite, square and non-empty, got {A.shape}")
    return _scalarized(_checked(np.linalg.eigvalsh(A)), criterion)


def _gradient(rows, Ainv, criterion):
    """-u_i^T B u_i for every row: the gradient in p of -log det A (B = A^-1)
    or of tr(A^-1) (B = A^-2), given Ainv = A^-1."""
    B = Ainv if criterion is Criterion.D_OPT else Ainv @ Ainv
    return -((rows @ B) * rows).sum(axis=1)


def criterion_gradient(
    rows: np.ndarray, weights: DesignWeights, criterion: Criterion
) -> np.ndarray:
    """Gradient of the A or D criterion with respect to p; E has none."""
    criterion = Criterion(criterion)
    if criterion is Criterion.E_OPT:
        raise ValueError("the E criterion has no gradient")
    rows = _as_rows(rows, finite=True)
    A = information_matrix(rows, weights)
    criterion_value(A, criterion)  # refuses an overflowing or singular A
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
    criterion = Criterion(criterion)
    rows = _as_rows(rows, finite=True)
    if criterion is Criterion.E_OPT:
        f = criterion_value(information_matrix(rows, weights), criterion)
        return f - 1.0 / _e_bound(rows)
    g = criterion_gradient(rows, weights, criterion)
    return float(weights.p @ g - g.min())


def _fw_change(Linv, E, criterion):
    """f(A + E) - f(A) for f = -log det A (D) or tr(A^-1) (A), given Linv =
    L^-1 for the Cholesky factor L of A; +inf unless A + E is positive definite.

    With A + E = L (I + M) L^T, M = Linv E Linv^T = W diag(mu) W^T, the change
    is -sum log1p(mu) (D) or -sum_j mu_j / (1 + mu_j) |Linv^T w_j|^2 (A). It
    keeps its relative accuracy when it is far below the rounding error of
    f(A) itself, where f(A + E) - f(A) is noise: near an ill-conditioned
    optimum a Newton step's decrease is that small.
    """
    mu, W = np.linalg.eigh(Linv @ E @ Linv.T)
    if not mu.min() > -1.0:
        return math.inf
    if criterion is Criterion.D_OPT:
        return float(-np.log1p(mu).sum())
    return float(-(mu / (1.0 + mu)) @ ((W.T @ Linv) ** 2).sum(axis=1))


def _newton_step(rows, p, S, Ainv, Linv, criterion):
    """One damped Newton step on the node set S, in place.

    With U the rows of S, X = U A^-1 and P = X U^T, the criterion's
    gradient and Hessian on S are g = -diag(P), H = P∘P (D) or
    g = -diag(X X^T), H = 2 P∘(X X^T) (A). The KKT system [[H, 1], [1^T, 0]]
    gives a direction d, centred so sum(d) = 0; a ratio test keeps p >= 0
    (a node the full ratio step empties gets exactly 0) and Armijo
    backtracking (1e-4, halving) on `_fw_change` accepts the step. Ainv =
    A^-1 and Linv = L^-1 come from `_solve_fw`'s one factorization A = L L^T.
    Returns False, leaving p unchanged, when the KKT matrix is singular, d
    does not descend, d shrinks a node at weight 0, or no step length passes.
    """
    U = rows[S]
    X = U @ Ainv
    P = X @ U.T
    if criterion is Criterion.D_OPT:
        g, H = -np.diag(P), P * P
    else:
        Q = X @ X.T
        g, H = -np.diag(Q), 2.0 * P * Q
    s = len(S)
    kkt = np.ones((s + 1, s + 1))
    kkt[:s, :s] = H
    kkt[s, s] = 0.0
    try:
        d = np.linalg.solve(kkt, np.append(-g, 0.0))[:s]
    except np.linalg.LinAlgError:
        return False
    d -= d.sum() / s
    slope = float(g @ d)
    if not (np.isfinite(d).all() and slope < 0):
        return False
    shrink = d < 0
    ratios = p[S][shrink] / -d[shrink]
    t_block = float(ratios.min()) if ratios.size else math.inf
    if t_block == 0.0:
        return False
    t = min(1.0, t_block)
    blocked = S[shrink][np.argmin(ratios)] if t_block <= 1.0 else None
    for _ in range(60):  # t is below 1e-18 by the last try
        if _fw_change(Linv, t * (U.T * d) @ U, criterion) <= 1e-4 * t * slope:
            p[S] += t * d
            if blocked is not None:
                p[blocked] = 0.0
            np.maximum(p, 0.0, out=p)
            return True
        t *= 0.5
        blocked = None
    return False


def _volume_rows(rows):
    """K row indices by pivoted Gram-Schmidt (Businger & Golub 1965): pick
    the largest residual norm (lowest index on ties), project its direction
    out of every residual, repeat. On rows that pass the rank rule a picked
    row's residual is rounding noise, so the K picks are distinct."""
    r = rows.copy()
    picks = []
    for _ in range(rows.shape[1]):
        i = int(np.argmax((r * r).sum(axis=1)))
        picks.append(i)
        q = r[i] / np.linalg.norm(r[i])
        r -= np.outer(r @ q, q)
    return picks


def _solve_fw(rows, criterion):
    """Fully-corrective Frank-Wolfe (Holloway 1974) with damped Newton steps,
    for the A/D criteria.

    Starts from uniform weight on the K rows `_volume_rows` picks, the
    core-set start for D-optimal design (Kumar & Yildirim 2005). Each
    iteration factors A(p) = L L^T once: the stop bound's objective comes
    from L, the gradient g from A^-1, and both Newton tries share A^-1 and
    L^-1. It stops once the duality gap is at most _SOLVER_RTOL * max(1,
    |objective|), and otherwise takes a `_newton_step` on the support plus
    the Frank-Wolfe vertex argmin g (lowest index on ties), or, when that
    does not move, on the support alone. ValueError, naming the gap and its
    bound, when A is not positive definite, neither step moves or
    _FW_MAX_ITER iterations pass.
    """
    n, k = rows.shape
    p = np.zeros(n)
    p[_volume_rows(rows)] = 1.0 / k
    gap = bound = math.nan  # until an iterate is factored
    stop = f"iteration cap {_FW_MAX_ITER} reached"
    for _ in range(_FW_MAX_ITER):
        A = rows.T @ (p[:, None] * rows)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            stop = "information matrix not positive definite"
            break
        Linv = np.linalg.inv(L)
        Ainv = np.linalg.inv(A)
        g = _gradient(rows, Ainv, criterion)
        gap = p @ g - g.min()
        f = -2.0 * np.log(np.diag(L)).sum() if criterion is Criterion.D_OPT else (Linv**2).sum()
        bound = _SOLVER_RTOL * max(1.0, abs(f))
        if gap <= bound:
            return p
        support = np.nonzero(p > 0)[0]
        entering = np.nonzero((p > 0) | (np.arange(n) == np.argmin(g)))[0]
        if not (_newton_step(rows, p, entering, Ainv, Linv, criterion)
                or _newton_step(rows, p, support, Ainv, Linv, criterion)):
            stop = "neither Newton step moved"
            break
    raise ValueError(f"relaxed {criterion.value.upper()} solve stopped uncertified ({stop}): "
                     f"duality gap {gap:.3e} above its bound {bound:.3e}")


def solve_relaxed(rows: np.ndarray, criterion: Criterion) -> DesignWeights:
    """Solve the relaxed design problem min f(A(p)^-1) over the simplex.

    The uniform design is evaluated first, for every criterion: when its
    information matrix is singular (so every design's is) this raises
    SingularInformationMatrix, and when `duality_gap` certifies it to 1e-6
    times max(1, |objective|), as a constant column (the `design_rows` of a
    connected graph) always does for E, it is returned. E without that
    certificate raises ValueError. D/A otherwise run `_solve_fw`: damped
    Newton steps on the support plus the Frank-Wolfe vertex, from uniform
    weight on K rows picked by pivoted Gram-Schmidt, stopping once the duality
    gap is at most 1e-6 times max(1, |objective|), and raising ValueError if
    A(p) is not positive definite, no step moves or 50,000 iterations pass
    first. Deterministic.
    """
    criterion = Criterion(criterion)
    rows = _as_rows(rows, finite=True)
    n, k = rows.shape
    if n < k:
        raise ValueError(f"need at least K={k} rows, got {n}")
    p = np.full(n, 1.0 / n)
    p /= p.sum()
    uniform = DesignWeights(p)
    f = criterion_value(information_matrix(rows, uniform), criterion)
    gap = duality_gap(rows, uniform, criterion)
    if gap <= _SOLVER_RTOL * max(1.0, abs(f)):
        return uniform
    if criterion is Criterion.E_OPT:
        raise ValueError(
            "E-optimal design needs rows whose uniform design is certified "
            f"optimal, such as rows with a constant column; gap is {gap:.3e}"
        )
    p = _solve_fw(rows, criterion)
    return DesignWeights(p / p.sum())


def _grid_budget(budget) -> int:
    """`_positive(budget)`; ValueError above 2**53, where a grid step
    1/budget is finer than the weights can resolve."""
    if (budget := _positive(budget)) > 2**53:
        raise ValueError(f"budget {budget} is above 2**53, too fine a grid to round to")
    return budget


def _grid_split(weights: DesignWeights, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Split p * budget into its grid floor and the offset above it, with
    float noise at grid points snapped so exact multiples stay deterministic."""
    budget = _grid_budget(budget)
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
    to the budget. When no p_i * budget has a fractional part the draw is
    the floor and nothing is random: no generator is built from `rng`, and
    a passed Generator is not advanced."""
    floor, frac = _grid_split(weights, budget)
    if not frac.any():
        return floor.astype(int)
    rng = np.random.default_rng(rng)
    return (floor + (rng.random(len(frac)) < frac)).astype(int)


def budget_repair(raw: np.ndarray, weights: DesignWeights, budget: int) -> SampleAllocation:
    """Bring one rounding draw's quotas to the budget.

    `raw` must be what `quantize_raw` draws: one integer per weight with
    |m_i - p_i budget| < 1 for a `_grid_budget` budget (ValueError
    otherwise). Each residual m_i/budget - p_i then lies in
    (-1/budget, 1/budget) and they sum to
    (sum(m) - budget)/budget, so one unit comes off each of the
    sum(m) - budget largest residuals, or goes onto each of the
    budget - sum(m) smallest, ties to the lowest index. No node moves twice,
    so this is moving one unit at a time to or from the largest remaining
    residual.
    """
    budget = _grid_budget(budget)
    p = weights.p
    m = _integers(raw, "raw quotas")
    if m.shape != p.shape or not (np.abs(m - p * budget) < 1).all():
        raise ValueError(
            f"raw quotas must be one rounding draw of the {len(p)} weights, "
            "each within 1 of p_i * budget"
        )
    excess = int(m.sum()) - budget
    if excess:
        resid = m / budget - p
        order = np.argsort(-resid if excess > 0 else resid, kind="stable")
        m[order[:abs(excess)]] -= np.sign(excess)
    return SampleAllocation(m=m, budget=budget)


def _check_sample_size_inputs(sigma_min: float, n: int) -> int:
    """`n` as an int; ValueError unless sigma_min is positive and finite and n
    an integer in [1, max double]."""
    if not 0.0 < sigma_min < math.inf:
        raise ValueError(f"sigma_min must be positive and finite, got {sigma_min}")
    n = _positive(n, "n")
    if n > sys.float_info.max:
        raise ValueError(f"n {n} is beyond double precision")
    return n


def invertibility_probability_bound(sigma_min: float, budget: int, n: int) -> float:
    """The paper's estimate of P(quantized information matrix stays invertible)
    from its rounding-variance approximation 5/(192 M^3); not a guarantee."""
    n = _check_sample_size_inputs(sigma_min, n)
    if sigma_min**2 == 0.0:
        raise ValueError(f"sigma_min {sigma_min} squares to 0 in double precision")
    budget = _positive(budget)
    v = 5 / (192 * budget**3) / sigma_min**2  # in integers, a large M's cube cannot overflow
    if v >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-v))  # (1 - v)**n without rounding 1 - v


def min_sample_size(sigma_min: float, n: int, eta: float) -> int:
    """Smallest budget at which the paper's invertibility estimate reaches eta,
    by the ceiling formula (5 / (192 (1 - eta^(1/n)) sigma_min^2))^(1/3)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    n = _check_sample_size_inputs(sigma_min, n)
    # -expm1(log(eta) / n) is 1 - eta^(1/n) without its cancellation at large n
    denom = 192.0 * -math.expm1(math.log(eta) / n) * sigma_min**2
    # refused where sigma_min^2 or 1 - eta^(1/n) rounds to 0 or the quotient overflows
    if denom == 0.0 or 5.0 / denom == math.inf:
        raise ValueError(
            f"sigma_min {sigma_min}, n {n} and eta {eta} give a sample size "
            "beyond double precision"
        )
    return max(1, math.ceil((5.0 / denom) ** (1.0 / 3.0)))


def allocate_from_weights(
    rows: np.ndarray,
    weights: DesignWeights,
    budget: int,
    raw: np.ndarray,
) -> tuple[SampleAllocation, int]:
    """Quotas for one rounding draw `raw` of a relaxed design, as
    `quantize_raw` draws it: `budget_repair`, then, while the quantized
    matrix comes out singular, one budget unit shifted from the most-sampled
    node to the unsampled node with largest weight, at most K times for
    K = rows.shape[1]. A pure function of its arguments, so equal draws give
    equal allocations. ValueError unless the rows are finite.

    Returns the allocation and the number of shifts applied.
    """
    rows = _as_rows(rows, finite=True)
    alloc = budget_repair(raw, weights, budget)
    shifts = 0
    while _rank_deficient(_sampled_eigh(rows, alloc)[1]):
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
    return alloc, shifts


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
    A singular quantized design gets `allocate_from_weights`'s budget shifts.
    """
    criterion = Criterion(criterion)
    budget = _grid_budget(budget)
    rows = design_rows(basis, bandwidth)
    if budget < bandwidth:
        raise ValueError(
            f"budget {budget} below bandwidth {bandwidth}; design cannot be full rank"
        )
    weights = solve_relaxed(rows, criterion)
    alloc, fallback_moves = allocate_from_weights(
        rows, weights, budget, quantize_raw(weights, budget, seed))
    w = _checked(np.linalg.eigvalsh(information_matrix(rows, weights)))
    w_hat = _checked(_sampled_eigh(rows, alloc)[1]) / budget
    diagnostics = {
        "relaxed_objective": _scalarized(w, criterion),
        "quantized_objective": _scalarized(w_hat, criterion),
        "duality_gap": duality_gap(rows, weights, criterion),
        "sigma_min": float(w[0]),
        "invertibility_bound": invertibility_probability_bound(
            float(w[0]), budget, len(weights.p)
        ),
        "fallback_moves": fallback_moves,
    }
    return PipelineResult(weights=weights, allocation=alloc, diagnostics=diagnostics)
