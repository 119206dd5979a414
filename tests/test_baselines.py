import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import baselines, graphs, spectral
from gsample.design import DesignWeights


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
            np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]]),
            np.array([[1.0, np.inf], [0.0, 1.0]]),
        ],
    )
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="finite 2-D"):
            baselines.greedy_sigma_min(rows, 1)

    def test_signature_and_single_path(self):
        params = inspect.signature(baselines.greedy_sigma_min).parameters
        assert list(params) == ["rows", "budget"]
        assert "np.linalg.svd" not in inspect.getsource(baselines)


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
