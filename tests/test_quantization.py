import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design, estimation
from gsample.design import Criterion, DesignWeights, SampleAllocation
from gsample.exceptions import SingularInformationMatrix


def quantize(weights, budget, seed):
    """Quotas from `allocate_from_weights` on one-column rows, which no
    allocation makes singular, so no fallback shift applies."""
    rows = np.ones((len(weights.p), 1))
    alloc, shifts = design.allocate_from_weights(rows, weights, budget, seed=seed)
    assert shifts == 0
    return alloc


class TestProbabilisticQuantize:
    def test_grid_points_are_fixed(self):
        w = DesignWeights(np.array([0.3, 0.7]))
        for seed in range(20):
            alloc = quantize(w, 10, seed)
            assert np.array_equal(alloc.m, [3, 7])
            assert np.allclose(alloc.m / 10 - w.p, 0.0, atol=1e-12)

    def test_grid_points_small_budget(self):
        w = DesignWeights(np.array([0.25, 0.75]))
        for seed in range(20):
            alloc = quantize(w, 4, seed)
            assert np.array_equal(alloc.m, [1, 3])

    @pytest.mark.parametrize("seed", [0, 7, [3, 1, 4]])
    def test_one_rounding_then_repair(self, seed, rng):
        # the allocation is budget_repair of one quantize_raw draw from `seed`
        w = DesignWeights(rng.dirichlet(np.ones(9)))
        raw = design.quantize_raw(w, 25, seed)
        expected = design.budget_repair(raw, w, 25)
        assert np.array_equal(quantize(w, 25, seed).m, expected.m)

    def test_midpoint_splits_evenly(self):
        # p=0.25 with M=10 sits between 2/10 and 3/10 with equal probability
        w = DesignWeights(np.array([0.25, 0.75]))
        rng = np.random.default_rng(0)
        draws = np.array([design.quantize_raw(w, 10, rng)[0] for _ in range(4000)])
        assert set(np.unique(draws)) == {2, 3}
        frac_up = np.mean(draws == 3)
        assert abs(frac_up - 0.5) < 0.03

    def test_unbiased_pre_repair(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(6))
        w = DesignWeights(p)
        budget = 10
        draws = 20000
        gen = np.random.default_rng(1)
        total = np.zeros(6)
        sq = np.zeros(6)
        for _ in range(draws):
            q = design.quantize_raw(w, budget, gen) / budget
            total += q
            sq += q * q
        mean = total / draws
        var = sq / draws - mean**2
        stderr = np.sqrt(var / draws)
        assert (np.abs(mean - p) <= 4 * stderr + 1e-12).all()

    def test_sum_matches_budget_after_repair(self, rng):
        for _ in range(50):
            n = rng.integers(2, 12)
            p = rng.dirichlet(np.ones(n))
            budget = int(rng.integers(1, 30))
            alloc = quantize(DesignWeights(p), budget, rng)
            delta_p = alloc.m / budget - p
            assert alloc.m.sum() == budget
            assert abs(delta_p.sum()) < 1e-12
            assert np.abs(delta_p).max() <= 2.0 / budget + 1e-12


class TestBudgetRepair:
    def test_consistent_quotas_unchanged(self):
        w = DesignWeights(np.array([0.2, 0.3, 0.5]))
        alloc = design.budget_repair(np.array([2, 3, 5]), w, 10)
        assert np.array_equal(alloc.m, [2, 3, 5])

    def test_increment_trace(self):
        # deficit always largest at index 1; three increments land on (3, 7)
        w = DesignWeights(np.array([0.25, 0.75]))
        alloc = design.budget_repair(np.array([3, 4]), w, 10)
        assert np.array_equal(alloc.m, [3, 7])

    def test_decrement_trace(self):
        # residual 3/4-0.5 beats 2/4-0.5, so index 1 loses the unit
        w = DesignWeights(np.array([0.5, 0.5]))
        alloc = design.budget_repair(np.array([2, 3]), w, 4)
        assert np.array_equal(alloc.m, [2, 2])

    def test_ties_go_to_lowest_index(self):
        w = DesignWeights(np.array([0.5, 0.5]))
        alloc = design.budget_repair(np.array([1, 1]), w, 3)
        assert np.array_equal(alloc.m, [2, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        budget=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_repair_reaches_budget(self, n, budget, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n))
        raw = design.quantize_raw(DesignWeights(p), budget, rng)
        alloc = design.budget_repair(raw, DesignWeights(p), budget)
        assert alloc.m.sum() == budget
        assert (alloc.m >= 0).all()
        # repair moves each quota by whole grid steps only
        assert (np.abs(alloc.m - raw) <= max(abs(raw.sum() - budget), 1)).all()


class TestQuantizedInformationMatrix:
    def test_exact_grid_reproduces_relaxed_matrix(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        p = np.array([0.2, 0.1, 0.3, 0.1, 0.2, 0.1])
        alloc = SampleAllocation(m=(p * 10).astype(int), budget=10)
        A = design.quantized_information_matrix(rows, alloc)
        assert np.allclose(A, design.information_matrix(rows, DesignWeights(p)), atol=1e-12)

    def test_rank_deficient_allocation_rejected(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        m = np.zeros(6, dtype=int)
        m[0] = 5  # all mass on one row cannot span 2 dimensions
        with pytest.raises(SingularInformationMatrix):
            design.quantized_information_matrix(rows, SampleAllocation(m=m, budget=5))

    def test_matches_summation_oracle(self, rng):
        rows = rng.standard_normal((6, 2))
        m = np.array([1, 0, 2, 1, 0, 1])
        A = design.quantized_information_matrix(rows, SampleAllocation(m=m, budget=5))
        expected = sum((m[i] / 5) * np.outer(rows[i], rows[i]) for i in range(6))
        assert np.allclose(A, expected, atol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_sampled_gram(self, n, k, extra, seed):
        # the design side (m/M weights) and the estimation side (the Gram
        # V_S^T V_S of the expanded sampling sequence) see the same matrix
        k = min(k, n)
        rng = np.random.default_rng(seed)
        rows = random_orthonormal_rows(n, k, rng)
        m = rng.multinomial(extra, np.ones(n) / n)
        m[rng.choice(n, size=k, replace=False)] += 1  # K distinct rows: full rank
        budget = int(m.sum())
        alloc = SampleAllocation(m=m, budget=budget)
        A_hat = design.quantized_information_matrix(rows, alloc)
        V_S = rows[estimation.sequence_from_allocation(alloc).indices]
        G = V_S.T @ V_S
        assert np.abs(A_hat * budget - G).max() <= 1e-12 * np.abs(G).max()
        # eigenvalue rounding moves 1/lambda_min by about eps * cond(G)
        rel = 1e-13 * np.linalg.cond(G)
        for crit, expected in [
            (Criterion.A_OPT, budget * design.criterion_value(G, Criterion.A_OPT)),
            (Criterion.E_OPT, budget * design.criterion_value(G, Criterion.E_OPT)),
            (Criterion.D_OPT,
             design.criterion_value(G, Criterion.D_OPT) + k * np.log(budget)),
        ]:
            value = design.criterion_value(A_hat, crit)
            assert value == pytest.approx(expected, rel=rel, abs=rel)
