import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design, graphs, spectral
from gsample.design import Criterion, DesignWeights, SampleAllocation


def quantize(weights, budget, seed):
    """Quotas from `allocate_from_weights` on one-column rows, which no
    allocation makes singular, so no fallback shift applies."""
    rows = np.ones((len(weights.p), 1))
    alloc, shifts = design.allocate_from_weights(
        rows, weights, budget, design.quantize_raw(weights, budget, seed))
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

    def test_grid_point_draw_leaves_the_generator_alone(self):
        w = DesignWeights(np.array([0.25, 0.75]))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        assert np.array_equal(design.quantize_raw(w, 4, gen), [1, 3])
        assert gen.bit_generator.state == state
        design.quantize_raw(w, 10, gen)  # off the grid: one uniform per node
        assert gen.bit_generator.state != state

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
        # deficits 0.08, 0.07 and 0.05: the two largest gain a unit each
        w = DesignWeights(np.array([0.18, 0.27, 0.55]))
        alloc = design.budget_repair(np.array([1, 2, 5]), w, 10)
        assert np.array_equal(alloc.m, [2, 3, 5])

    def test_decrement_trace(self):
        # residual 2/4-0.3 beats 3/4-0.7, so index 0 loses the unit
        w = DesignWeights(np.array([0.3, 0.7]))
        alloc = design.budget_repair(np.array([2, 3]), w, 4)
        assert np.array_equal(alloc.m, [1, 3])

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
        # every repaired quota stays within one grid step of its weight, which
        # Weyl's inequality turns into invertibility once M >= 1/sigma_min
        assert (np.abs(alloc.m / budget - p) < 1 / budget).all()

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["dirichlet", "sparse", "grid", "tied"]),
        n=st.integers(min_value=1, max_value=12),
        budget=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_one_unit_at_a_time(self, kind, n, budget, seed):
        w = DesignWeights(fuzzed_weights(kind, n, budget, np.random.default_rng(seed)))
        raw = design.quantize_raw(w, budget, seed)
        assert np.array_equal(design.budget_repair(raw, w, budget).m,
                              unit_steps_repair(raw, w, budget))

    @pytest.mark.parametrize("raw, budget, match", [
        ([1, 1, 1], 2**53, "rounding draw"),  # would take 9e15 one-unit moves
        ([1, 1, 1], 4, "rounding draw"),  # 1 is a full unit below 0.5 * 4
        ([3, 1, 0], 4, "rounding draw"),
        ([1, 1], 3, "rounding draw"),
        ([[2, 1, 1]], 4, "rounding draw"),
        ([1.5, 1, 1], 3, "integers"),
        (["1", "1", "1"], 3, "integers"),
    ])
    def test_non_draws_rejected(self, raw, budget, match):
        with pytest.raises(ValueError, match=match):
            design.budget_repair(np.array(raw), W3, budget)


def unit_steps_repair(raw, weights, budget):
    """Repair one grid unit per step: take a unit from the largest residual
    m_i/M - p_i among m_i >= 1 while over budget, give one to the largest
    deficit p_i - m_i/M while under it; ties to the lowest index."""
    m = np.asarray(raw, dtype=int).copy()
    p = weights.p
    while m.sum() > budget:
        resid = m / budget - p
        resid[m < 1] = -np.inf
        m[int(np.argmax(resid))] -= 1
    while m.sum() < budget:
        deficit = p - m / budget
        m[int(np.argmax(deficit))] += 1
    return m


def fuzzed_weights(kind, n, budget, rng):
    """Weights that stress the repair: generic, mostly zero, on the grid
    1/budget, or with repeated values."""
    if kind == "sparse":
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.4)
        if p.sum() == 0:
            p[rng.integers(n)] = 1.0
    elif kind == "grid":
        p = rng.multinomial(budget, np.ones(n) / n) + rng.random(n) * (rng.random(n) < 0.5)
    elif kind == "tied":
        p = rng.integers(1, 3, n).astype(float)
    else:
        p = rng.dirichlet(np.ones(n))
    return p / p.sum()


class TestQuantizedInformationMatrix:
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
        A_hat = design.information_matrix(rows, DesignWeights(m / budget))
        V_S = rows[alloc.indices]
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


W3 = DesignWeights(np.array([0.5, 0.3, 0.2]))
RING = spectral.eigendecompose(graphs.laplacian(graphs.watts_strogatz(10, 2, 0.0, seed=0)))
BUDGET_USES = {
    "quantize_raw": lambda b: design.quantize_raw(W3, b, 0),
    "budget_repair": lambda b: design.budget_repair(np.array([2, 1, 1]), W3, b),
    "allocate_from_weights": lambda b: design.allocate_from_weights(
        np.ones((3, 1)), W3, b, np.array([2, 1, 1])),
    "invertibility_probability_bound": lambda b: design.invertibility_probability_bound(
        0.1, b, 10),
    "design_pipeline": lambda b: design.design_pipeline(RING, 1, b, seed=0),
}


class TestBudgetRule:
    """Every entry point takes a budget by one rule: an integer, not a bool,
    at least 1; the rounding and its repair also refuse budgets above 2**53."""

    @pytest.mark.parametrize("use", BUDGET_USES)
    @pytest.mark.parametrize("budget", [0, -1, True, False, 2.5, 2.0, "2", None])
    def test_bad_budget_rejected(self, use, budget):
        with pytest.raises(ValueError, match="budget"):
            BUDGET_USES[use](budget)

    @pytest.mark.parametrize("use", BUDGET_USES)
    def test_numpy_integer_budget_accepted(self, use):
        BUDGET_USES[use](np.int64(4))

    def test_pipeline_takes_bandwidth_by_the_integer_rule(self):
        with pytest.raises(ValueError, match="bandwidth must be an integer"):
            design.design_pipeline(RING, "5", 20)

    @pytest.mark.parametrize("use", ["quantize_raw", "allocate_from_weights", "budget_repair"])
    @pytest.mark.parametrize("budget", [2**53 + 1, 10**20,
                                        pytest.param(10**400, id="10**400")])
    def test_rounding_refuses_budgets_beyond_the_weights_resolution(self, use, budget):
        with pytest.raises(ValueError, match=f"budget {budget} is above 2\\*\\*53"):
            BUDGET_USES[use](budget)

    def test_rounding_takes_the_largest_budget(self):
        raw = design.quantize_raw(W3, 2**53, 0)
        assert np.abs(raw - W3.p * 2**53).max() <= 1

    def test_analytic_variance_takes_any_integer_budget(self):
        assert design.invertibility_probability_bound(0.1, 10**400, 10) == 1.0
