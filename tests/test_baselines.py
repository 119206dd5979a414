import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import baselines, graphs, spectral
from gsample.design import DesignWeights, SampleAllocation


def svd_greedy(rows, budget):
    """The obvious greedy: one SVD per candidate per step, same tie rule
    (ascending scan, a later candidate wins only by more than 1e-15)."""
    n, k = rows.shape
    chosen, remaining = [], list(range(n))
    for _ in range(budget):
        cols = min(len(chosen) + 1, k)
        best_i, best_score = None, -np.inf
        for i in remaining:
            score = np.linalg.svd(rows[chosen + [i], :cols], compute_uv=False)[-1]
            if score > best_score + 1e-15:
                best_i, best_score = i, score
        chosen.append(best_i)
        remaining.remove(best_i)
    return np.sort(chosen)


def assert_matches_svd(rows, budget):
    got = baselines.greedy_sigma_min(rows, budget).indices
    assert got.tolist() == svd_greedy(rows, budget).tolist()


def stacked_scores(chosen_rows, cand_rows):
    """Every candidate's sqrt(λ_min(BᵀB + u uᵀ)) by one stacked `eigvalsh`,
    0 under the rank rule of BLUE."""
    stacked = cand_rows[:, :, None] * cand_rows[:, None, :]
    stacked += chosen_rows.T @ chosen_rows
    w = np.linalg.eigvalsh(stacked)
    return np.sqrt(np.where(spectral._rank_deficient(w), 0.0, w[:, 0]))


def unpruned_greedy(rows, budget):
    """The greedy without bounds: every unchosen row of every step goes
    through the stacked scorer, then the same ascending scan."""
    n, k = rows.shape
    chosen, remaining = [], np.ones(n, dtype=bool)
    for _ in range(budget):
        cols = min(len(chosen) + 1, k)
        cand = np.flatnonzero(remaining)
        scores = stacked_scores(rows[chosen, :cols], rows[cand, :cols])
        best_i, best_score = None, -np.inf
        for i, score in zip(cand.tolist(), scores.tolist()):
            if score > best_score + 1e-15:
                best_i, best_score = i, score
        chosen.append(best_i)
        remaining[best_i] = False
    return np.sort(chosen)


@st.composite
def hard_rows(draw):
    """Row sets where a loose bound or a rounded score would move a pick:
    wide scales, exact ties among small integers, repeated rows, and
    orthonormal rows whose Gram has equal leading eigenvalues."""
    kind = draw(st.sampled_from(["scaled", "integer", "duplicated", "orthonormal"]))
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "scaled":
        rows = draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3])) * rng.standard_normal((n, k))
    elif kind == "integer":
        rows = rng.integers(-2, 3, size=(n, k)).astype(float)
    elif kind == "duplicated":
        base = rng.standard_normal((max(1, n // 3), k))
        factors = rng.choice([1.0, -1.0, 2.0], size=(n, 1))
        rows = factors * base[rng.integers(0, len(base), size=n)]
    else:
        basis = np.eye(k) if draw(st.booleans()) else np.linalg.qr(rng.standard_normal((k, k)))[0]
        copies = np.vstack([basis] * (n // k + 2))
        rows = np.vstack([copies, 0.5 * rng.standard_normal((n, k))])
        rows = rows[rng.permutation(len(rows))]
    budget = draw(st.integers(min_value=1, max_value=len(rows)))
    return rows, budget


@pytest.fixture(scope="module")
def g2_desk_basis():
    g = graphs.random_geometric(200, 0.6, 0.3, seed=[0, 0])
    return spectral.eigendecompose(graphs.laplacian(g))


class TestGreedyMatchesSvdReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=5),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_random_rows(self, n, k, scale, seed, data):
        rows = scale * np.random.default_rng(seed).standard_normal((n, k))
        budget = data.draw(st.integers(min_value=1, max_value=n))
        assert_matches_svd(rows, budget)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_duplicate_and_scaled_rows(self, k, extra, seed, data):
        # k + extra distinct rows, so every step has a candidate that is
        # not a copy of a chosen row; copies score exactly 0 before rank k
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((k + extra, k))
        copies = base[rng.integers(0, len(base), size=len(base))]
        factors = rng.choice([1.0, 1.0, 2.0, 0.5, -1.0], size=(len(base), 1))
        rows = np.vstack([base, factors * copies])[rng.permutation(2 * len(base))]
        budget = data.draw(st.integers(min_value=1, max_value=len(rows)))
        assert_matches_svd(rows, budget)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_constant_first_column_ties(self, n, k, seed, data):
        # a graph basis starts with the constant eigenvector, so the first
        # step is an all-way tie
        k = min(k, n)
        a = np.random.default_rng(seed).standard_normal((n, k))
        a[:, 0] = 1.0
        rows, _ = np.linalg.qr(a)
        budget = data.draw(st.integers(min_value=1, max_value=n))
        assert_matches_svd(rows, budget)

    @pytest.mark.parametrize("k", [10, 15, 20])
    def test_g2_desk_basis(self, g2_desk_basis, k):
        assert_matches_svd(spectral.design_rows(g2_desk_basis, k), 4 * k)

    def test_watts_strogatz_basis(self):
        g = graphs.watts_strogatz(200, 5, 0.1, seed=[0, 0])
        basis = spectral.eigendecompose(graphs.laplacian(g))
        assert_matches_svd(spectral.design_rows(basis, 15), 60)


class TestBoundThenVerify:
    @settings(max_examples=300, deadline=None)
    @given(case=hard_rows())
    def test_same_picks_as_unpruned(self, case):
        rows, budget = case
        got = baselines.greedy_sigma_min(rows, budget).indices
        assert got.tolist() == unpruned_greedy(rows, budget).tolist()

    @settings(max_examples=200, deadline=None)
    @given(case=hard_rows(), chosen=st.integers(min_value=1, max_value=30))
    def test_bound_never_below_eigvalsh(self, case, chosen):
        rows, _ = case
        if rows.shape[1] < 2:
            rows = np.hstack([rows, rows[:, ::-1]])
        chosen = min(chosen, len(rows))
        upper, scale = baselines._ritz_upper_bounds(rows[:chosen], rows)
        stacked = rows[:, :, None] * rows[:, None, :] + rows[:chosen].T @ rows[:chosen]
        lam = np.linalg.eigvalsh(stacked)
        assert (upper >= lam[:, 0]).all()
        assert (scale >= lam[:, -1] * (1 - 1e-12)).all()

    def test_near_tie_below_the_probe_goes_to_lowest_index(self):
        # after [2e-4, 0], the row [0, y] scores exactly |y|; rows 0 and 1
        # tie within the scan's 1e-15, so row 0 is picked, although the
        # bound alone, with its margin of ~1e-20, rules it out below row 1
        y = 1e-4
        rows = np.array([[0.0, y - 6e-16], [0.0, y], [2e-4, 0.0]])
        assert unpruned_greedy(rows, 2).tolist() == [0, 2]
        assert baselines.greedy_sigma_min(rows, 2).indices.tolist() == [0, 2]

    def test_most_candidates_are_pruned(self, g2_desk_basis, monkeypatch):
        scored = []
        score = baselines._sigma_min_scores
        monkeypatch.setattr(baselines, "_sigma_min_scores",
                            lambda b, u: scored.append(len(u)) or score(b, u))
        rows = spectral.design_rows(g2_desk_basis, 20)
        baselines.greedy_sigma_min(rows, 80)
        unpruned = sum(len(rows) - step for step in range(80))  # 12,840
        assert sum(scored) < 0.2 * unpruned


class TestGreedySigmaMin:
    def test_rank_forcing_pair(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        seq = baselines.greedy_sigma_min(rows, 2)
        assert set(seq.indices) == {0, 1}

    def test_rank_saturated_steps_go_to_lowest_index(self):
        # two distinct rows in K = 4 columns: the first two picks are the
        # first copy of each (the larger |first entry| leads); after them no
        # candidate raises the rank, so the other picks are the lowest
        # unchosen indices rather than whichever rounding noise is largest
        for seed in range(200):
            rng = np.random.default_rng(seed)
            base = rng.standard_normal((2, 4))
            labels = rng.permutation(np.arange(12) % 2)
            lead = int(np.argmax(np.abs(base[:, 0])))
            firsts = [int(np.flatnonzero(labels == lead)[0]),
                      int(np.flatnonzero(labels != lead)[0])]
            rest = [i for i in range(12) if i not in firsts][:3]
            seq = baselines.greedy_sigma_min(base[labels], 5)
            assert seq.indices.tolist() == sorted(firsts + rest), seed

    def test_full_budget_selects_all(self, rng):
        rows = random_orthonormal_rows(5, 2, rng)
        seq = baselines.greedy_sigma_min(rows, 5)
        assert np.array_equal(seq.indices, np.arange(5))

    def test_matches_per_step_enumeration(self, rng):
        assert_matches_svd(random_orthonormal_rows(6, 2, rng), 3)

    def test_never_strands_rank(self, rng):
        # whenever some size-M subset is full rank, greedy finds one
        for trial in range(10):
            rows = rng.standard_normal((7, 3))
            m = 4
            any_full = any(
                np.linalg.matrix_rank(rows[list(c)]) == 3
                for c in itertools.combinations(range(7), m)
            )
            if not any_full:
                continue
            seq = baselines.greedy_sigma_min(rows, m)
            assert np.linalg.matrix_rank(rows[seq.indices]) == 3

    def test_budget_exceeds_nodes(self, rng):
        with pytest.raises(ValueError):
            baselines.greedy_sigma_min(random_orthonormal_rows(4, 2, rng), 5)

    def test_distinct_sorted_output(self, rng):
        rows = random_orthonormal_rows(10, 3, rng)
        seq = baselines.greedy_sigma_min(rows, 6)
        assert len(set(seq.indices)) == 6
        assert np.array_equal(seq.indices, np.sort(seq.indices))

    @pytest.mark.parametrize("budget", [0, -1, True, False, 2.0, 1.5, "2", None])
    def test_bad_budget_rejected(self, rng, budget):
        with pytest.raises(ValueError, match="budget"):
            baselines.greedy_sigma_min(random_orthonormal_rows(4, 2, rng), budget)

    def test_numpy_integer_budget_accepted(self, rng):
        rows = random_orthonormal_rows(4, 2, rng)
        seq = baselines.greedy_sigma_min(rows, np.int64(2))
        assert np.array_equal(seq.indices, baselines.greedy_sigma_min(rows, 2).indices)

    @pytest.mark.parametrize(
        "rows",
        [
            np.ones(4),
            np.ones((2, 3, 2)),
            np.ones((3, 0)),
            np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]),
            np.array([[1.0, np.inf], [0.0, 1.0]]),
        ],
    )
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="finite 2-D"):
            baselines.greedy_sigma_min(rows, 1)

    @pytest.mark.parametrize("big", [1e200, 1e154])
    def test_overflowing_gram_rejected_without_warning(self, big):
        # 1e200 squares to inf; 1e154 squares to 1e308, and the bound's
        # lambda_max(G) + |u|^2 overflows
        rows = np.array([[big, 1.0], [1.0, big], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                baselines.greedy_sigma_min(rows, 3)

    def test_signature_and_single_path(self):
        params = inspect.signature(baselines.greedy_sigma_min).parameters
        assert list(params) == ["rows", "budget"]
        assert "np.linalg.svd" not in inspect.getsource(baselines)


class TestBaselineAllocations:
    """Both baselines sample each pick once: quotas of 0 or 1 whose
    `indices` are the picks in ascending order."""

    def test_greedy_quotas_are_the_picks(self, rng):
        rows = random_orthonormal_rows(12, 3, rng)
        alloc = baselines.greedy_sigma_min(rows, 5)
        assert isinstance(alloc, SampleAllocation) and alloc.budget == 5
        assert alloc.m.shape == (12,) and set(alloc.m.tolist()) == {0, 1}
        assert np.array_equal(alloc.indices, np.flatnonzero(alloc.m))

    def test_top_m_quotas_are_the_picks(self):
        alloc = baselines.top_m_selection(DesignWeights(np.array([0.1, 0.4, 0.2, 0.3])), 2)
        assert isinstance(alloc, SampleAllocation) and alloc.budget == 2
        assert alloc.m.tolist() == [0, 1, 0, 1]
        assert alloc.indices.tolist() == [1, 3]


class TestTopMSelection:
    def test_simple_sort(self):
        w = DesignWeights(np.array([0.5, 0.3, 0.2]))
        seq = baselines.top_m_selection(w, 2)
        assert np.array_equal(seq.indices, [0, 1])

    def test_uniform_ties_go_low(self):
        w = DesignWeights(np.full(6, 1 / 6))
        seq = baselines.top_m_selection(w, 3)
        assert np.array_equal(seq.indices, [0, 1, 2])

    def test_matches_sort_oracle(self, rng):
        p = rng.dirichlet(np.ones(12))
        seq = baselines.top_m_selection(DesignWeights(p), 5)
        expected = np.sort(np.argsort(-p)[:5])
        assert np.array_equal(seq.indices, expected)

    def test_budget_exceeds_nodes(self):
        with pytest.raises(ValueError):
            baselines.top_m_selection(DesignWeights(np.array([0.5, 0.5])), 3)

    @pytest.mark.parametrize("budget", [0, -1, True, False, 2.0, 1.5, "2", None])
    def test_bad_budget_rejected(self, budget):
        w = DesignWeights(np.full(4, 0.25))
        with pytest.raises(ValueError, match="budget"):
            baselines.top_m_selection(w, budget)
