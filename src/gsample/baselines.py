"""Reference sampling-set selectors used for comparison (no repeats)."""

from __future__ import annotations

import numpy as np

from .design import DesignWeights, _integer
from .estimation import SamplingSequence
from .spectral import _rank_deficient


def _checked_budget(budget, n: int) -> int:
    budget = _integer(budget, "budget")
    if not 1 <= budget <= n:
        raise ValueError(f"budget {budget} is outside [1, node count {n}]")
    return budget


def _sigma_min_scores(chosen_rows: np.ndarray, cand_rows: np.ndarray) -> np.ndarray:
    """sqrt(λ_min(BᵀB + u uᵀ)) for chosen rows B and each candidate row u,
    by one `eigvalsh` on the stacked Grams; 0 where that Gram fails the rank
    rule of BLUE (`spectral._rank_deficient`). Only one stack is alive at a
    time: it is freed on return."""
    stacked = cand_rows[:, :, None] * cand_rows[:, None, :]
    stacked += chosen_rows.T @ chosen_rows
    w = np.linalg.eigvalsh(stacked)
    return np.sqrt(np.where(_rank_deficient(w), 0.0, w[:, 0]))


def greedy_sigma_min(rows: np.ndarray, budget: int) -> SamplingSequence:
    """Greedy selection maximizing the smallest singular value of the grown
    row submatrix.

    While fewer rows than columns are chosen, the square submatrix on the
    first `chosen+1` columns is scored instead, so early picks are still
    discriminated. Each step forms the Gram G = BᵀB of the chosen rows B
    on those columns and scores every unchosen row u at once as
    sqrt(λ_min(G + u uᵀ)), by one `eigvalsh` call on the stacked
    (n_cand, cols, cols) array: n·K²·8 bytes at most, 0.64 MB at N=200,
    K=20 and 1.2 MB at N=1500, K=10. A candidate whose λ_min is at most
    1e-12·λ_max of its own G + u uᵀ cannot raise the rank and scores 0, so
    rounding noise never decides a pick. Candidates are scanned in
    ascending index and a later one wins only by more than 1e-15, so ties,
    including a step where no candidate raises the rank, go to the lowest
    index. Returns `budget` distinct nodes in ascending
    order; ValueError unless `rows` is a finite 2-D array and `budget` an
    integer in [1, n].
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not np.isfinite(rows).all():
        raise ValueError("rows must be a finite 2-D array")
    n, k = rows.shape
    budget = _checked_budget(budget, n)
    chosen: list[int] = []
    remaining = np.ones(n, dtype=bool)
    for _ in range(budget):
        cols = min(len(chosen) + 1, k)
        cand = np.flatnonzero(remaining)
        scores = _sigma_min_scores(rows[chosen, :cols], rows[cand, :cols])
        best_i, best_score = None, -np.inf
        for i, score in zip(cand.tolist(), scores.tolist()):
            if score > best_score + 1e-15:
                best_i, best_score = i, score
        chosen.append(best_i)
        remaining[best_i] = False
    return SamplingSequence(np.sort(chosen))


def top_m_selection(weights: DesignWeights, budget: int) -> SamplingSequence:
    """The `budget` nodes with largest design weight, each sampled once.

    Ties go to the lowest index; output ascending.
    """
    p = weights.p
    budget = _checked_budget(budget, len(p))
    # stable sort on -p keeps lowest index first among ties
    order = np.argsort(-p, kind="stable")
    return SamplingSequence(np.sort(order[:budget]))
