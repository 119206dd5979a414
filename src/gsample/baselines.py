"""Reference sampling-set selectors used for comparison (no repeats)."""

from __future__ import annotations

import numpy as np

from .design import DesignWeights, SampleAllocation, _as_rows, _positive
from .spectral import _rank_deficient


def _checked_budget(budget, n: int) -> int:
    budget = _positive(budget)
    if budget > n:
        raise ValueError(f"budget {budget} is above the node count {n}")
    return budget


def _sigma_min_scores(chosen_rows: np.ndarray, cand_rows: np.ndarray) -> np.ndarray:
    """sqrt(λ_min(BᵀB + u uᵀ)) for chosen rows B and each candidate row u,
    by one `eigvalsh` on the stacked Grams; 0 where that Gram fails the rank
    rule of BLUE (`spectral._rank_deficient`). Each candidate's score is
    the same bits whichever other candidates share its stack, so
    `greedy_sigma_min` passes only the candidates its bound cannot rule
    out. Only one stack is alive at a time: it is freed on return."""
    stacked = cand_rows[:, :, None] * cand_rows[:, None, :]
    stacked += chosen_rows.T @ chosen_rows
    w = np.linalg.eigvalsh(stacked)
    return np.sqrt(np.where(_rank_deficient(w), 0.0, w[:, 0]))


_EPS = np.finfo(float).eps


def _ritz_upper_bounds(chosen_rows: np.ndarray, cand_rows: np.ndarray):
    """For each candidate row u, an upper bound on λ_min(G + u uᵀ), G = BᵀB,
    that holds for the λ_min `eigvalsh` computes, and λ_max(G) + ‖u‖², which
    bounds every eigenvalue of G + u uᵀ.

    With G = Q diag(λ) Qᵀ (λ ascending) and z = Qᵀu, the Rayleigh–Ritz
    value of G + u uᵀ on span{q₁, q₂} is the smaller eigenvalue of
    [[λ₁ + z₁², z₁z₂], [z₁z₂, λ₂ + z₂²]], and no eigenvalue of a matrix is
    below its smallest Ritz value. The bound adds 1e3·cols·eps·(λ_max(G) +
    ‖u‖²), far above the rounding of `eigh`, of z, of this closed form and
    of the `eigvalsh` that scores u, all of order cols·eps·‖G + u uᵀ‖."""
    lam, q = np.linalg.eigh(chosen_rows.T @ chosen_rows)
    z = cand_rows @ q[:, :2]
    a = lam[0] + z[:, 0] ** 2
    c = lam[1] + z[:, 1] ** 2
    ritz = 0.5 * (a + c) - np.hypot(0.5 * (a - c), z[:, 0] * z[:, 1])
    scale = lam[-1] + (cand_rows**2).sum(axis=1)
    return ritz + 1e3 * chosen_rows.shape[1] * _EPS * scale, scale


def _candidates_to_score(chosen_rows: np.ndarray, cand_rows: np.ndarray, n: int):
    """Positions in `cand_rows` that may still decide the pick: every
    candidate but those whose bound shows a score below s_t − τ, where s_t
    is the exact score of the candidate with the largest bound.

    The scan keeps a running best b and takes a later score x only when
    x > fl(b + 1e-15). That sum rounds by at most eps·ŝ, ŝ bounding every
    score, so with w = max(2e-15, 4·eps·ŝ) any x > b + w is taken and no
    x ≤ b is. τ = (n + 2)·w splits [s_t − τ, s_t] into n + 2 pieces of
    width w. The lowest holds the dropped scores, which may round up by a
    few eps·ŝ. The top one holds s_t. At most n − 1 other scores fill at
    most n − 1 of the n pieces between them, so some piece (g, g + w] holds
    no score and lies above every dropped score and below s_t. The first
    candidate (in scan order) scoring above g + w meets a running best ≤ g
    in either scan, so it becomes the best in both. From then on the best
    stays above g + w and no score ≤ g can displace it, so both scans make
    the same moves to the same pick."""
    upper, scale = _ritz_upper_bounds(chosen_rows, cand_rows)
    t = int(upper.argmax())
    s_t = _sigma_min_scores(chosen_rows, cand_rows[t : t + 1])[0]
    cut = s_t - (n + 2) * max(2e-15, 4 * _EPS * np.sqrt(scale.max()))
    if not cut > 0:  # also NaN: keep every candidate
        return slice(None)
    return np.flatnonzero(~(upper < cut * cut))  # a NaN bound is kept


def greedy_sigma_min(rows: np.ndarray, budget: int) -> SampleAllocation:
    """Greedy selection maximizing the smallest singular value of the grown
    row submatrix.

    While fewer rows than columns are chosen, the square submatrix on the
    first `chosen+1` columns is scored instead, so early picks are still
    discriminated. Each step forms the Gram G = BᵀB of the chosen rows B
    on those columns, and a candidate row u scores sqrt(λ_min(G + u uᵀ)).
    On two or more columns a step bounds first and verifies second: one
    `eigh` of G gives every candidate a closed-form upper bound on
    λ_min(G + u uᵀ) (`_ritz_upper_bounds`), the candidate with the largest
    bound is scored exactly, and every candidate whose bound shows it
    cannot change the scan's pick is dropped (`_candidates_to_score`). The
    rest, typically 5–10%, are scored by one `eigvalsh` call on their
    stacked (n_cand, cols, cols) Grams: n·K²·8 bytes at most, 0.64 MB at
    N=200, K=20 and 1.2 MB at N=1500, K=10. The picks are those of scoring
    every candidate. A candidate whose λ_min is at most 1e-12·λ_max of its
    own G + u uᵀ cannot raise the rank and scores 0, so rounding noise never
    decides a pick. Candidates are scanned in ascending index and a later
    one wins only by more than 1e-15, so ties, including a step where no
    candidate raises the rank, go to the lowest index. Returns quota 1 on
    `budget` distinct nodes, 0 elsewhere; ValueError unless `rows` is a
    finite 2-D array with a column whose squared Frobenius norm is below a
    quarter of the double range and `budget` an integer in [1, n].
    """
    rows = _as_rows(rows, finite=True)
    with np.errstate(over="ignore"):
        # ‖rows‖²_F bounds every Gram entry, bound and score formed below
        frobenius_sq = float(np.vdot(rows, rows))
    if not np.isfinite(4.0 * frobenius_sq):
        raise ValueError("rows overflow: their squared norms exceed double precision")
    n, k = rows.shape
    budget = _checked_budget(budget, n)
    chosen: list[int] = []
    remaining = np.ones(n, dtype=bool)
    for _ in range(budget):
        cols = min(len(chosen) + 1, k)
        cand = np.flatnonzero(remaining)
        chosen_rows, cand_rows = rows[chosen, :cols], rows[cand, :cols]
        if cols >= 2:
            keep = _candidates_to_score(chosen_rows, cand_rows, n)
            cand, cand_rows = cand[keep], cand_rows[keep]
        scores = _sigma_min_scores(chosen_rows, cand_rows)
        best_i, best_score = None, -np.inf
        for i, score in zip(cand.tolist(), scores.tolist()):
            if score > best_score + 1e-15:
                best_i, best_score = i, score
        chosen.append(best_i)
        remaining[best_i] = False
    return SampleAllocation(np.bincount(chosen, minlength=n), budget)


def top_m_selection(weights: DesignWeights, budget: int) -> SampleAllocation:
    """Quota 1 on each of the `budget` nodes with largest design weight, 0
    elsewhere. Ties go to the lowest index.
    """
    p = weights.p
    budget = _checked_budget(budget, len(p))
    # stable sort on -p keeps lowest index first among ties
    order = np.argsort(-p, kind="stable")
    return SampleAllocation(np.bincount(order[:budget], minlength=len(p)), budget)
