import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows, score
from gsample import design, graphs, spectral
from gsample.design import Criterion, DesignWeights, SampleAllocation
from gsample.exceptions import FallbackExhausted


# the weight kinds `fuzzed_weights` draws
KINDS = ["dirichlet", "sparse", "grid", "near-grid", "tied"]


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
        design.quantize_raw(w, 10, gen)  # off the grid: one uniform
        assert gen.bit_generator.state != state

    @pytest.mark.parametrize("seed", [-1, [1, -2], 1.5, "abc"], ids=["-1", "list", "1.5", "abc"])
    def test_bad_seed_refused_on_and_off_the_grid(self, seed):
        # whether a seed is valid does not depend on whether the draw is random
        w = DesignWeights(np.array([0.25, 0.75]))
        with pytest.raises((ValueError, TypeError)) as off_grid:
            design.quantize_raw(w, 10, seed)
        with pytest.raises(off_grid.type, match=f"^{re.escape(str(off_grid.value))}$"):
            design.quantize_raw(w, 4, seed)

    @pytest.mark.parametrize("seed", [0, 7, [3, 1, 4]])
    def test_allocation_is_the_draw(self, seed, rng):
        # with no fallback shift the allocation is the quantize_raw draw itself
        w = DesignWeights(rng.dirichlet(np.ones(9)))
        raw = design.quantize_raw(w, 25, seed)
        assert np.array_equal(quantize(w, 25, seed).m, raw)

    def test_midpoint_splits_evenly(self):
        # p=0.25 with M=10 sits between 2/10 and 3/10 with equal probability
        w = DesignWeights(np.array([0.25, 0.75]))
        rng = np.random.default_rng(0)
        draws = np.array([design.quantize_raw(w, 10, rng)[0] for _ in range(4000)])
        assert set(np.unique(draws)) == {2, 3}
        frac_up = np.mean(draws == 3)
        assert abs(frac_up - 0.5) < 0.03

    def test_unbiased_draws(self):
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

    def test_draws_sum_to_the_budget(self, rng):
        for _ in range(50):
            n = rng.integers(2, 12)
            p = rng.dirichlet(np.ones(n))
            budget = int(rng.integers(1, 30))
            alloc = quantize(DesignWeights(p), budget, rng)
            delta_p = alloc.m / budget - p
            assert alloc.m.sum() == budget
            assert abs(delta_p.sum()) < 1e-12
            assert (np.abs(delta_p) < 1.0 / budget).all()

    @settings(max_examples=200, deadline=None)
    @given(
        # near-grid weights are snapped to the grid within 1e-9, so their
        # marginals are off by that much
        kind=st.sampled_from([k for k in KINDS if k != "near-grid"]),
        n=st.integers(min_value=1, max_value=12),
        budget=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_enumerated_draws_have_exact_marginals(self, kind, n, budget, seed):
        # floor(C_i + U) steps where U crosses frac(-C_i), so those points cut
        # [0, 1) into intervals on each of which the draw is one allocation;
        # weighted by length, the allocations are the draw's whole law
        w = DesignWeights(fuzzed_weights(kind, n, budget, np.random.default_rng(seed)))
        law = design._draws(w, budget)
        quotas = np.array([law.quotas(i) for i in range(len(law.cuts))])
        assert (quotas.sum(axis=1) == budget).all()
        assert (np.abs(quotas - w.p * budget) < 1).all()
        assert law.lengths.sum() == 1.0 and (law.lengths >= 0).all()
        assert np.abs(law.lengths @ quotas - w.p * budget).max() <= 1e-12
        assert len({m.tobytes() for m in quotas}) == len(law.cuts)
        assert len(law.cuts) <= np.count_nonzero(w.p) + 1
        if not law.on.size:  # on the grid: one allocation
            assert len(law.cuts) == 1


class TestSystematicDraw:
    @pytest.mark.parametrize("p, budget, u, expected", [
        # floor (0, 1, 0), C = (0.5, 1): U in [0, 0.5) rounds the last node up
        ([0.25, 0.5, 0.25], 2, 0.0, [0, 1, 1]),
        ([0.25, 0.5, 0.25], 2, 0.2, [0, 1, 1]),
        ([0.25, 0.5, 0.25], 2, 0.5, [1, 1, 0]),
        ([0.25, 0.5, 0.25], 2, 0.7, [1, 1, 0]),
        # floor (0, 0, 0, 1), C = (0.3, 0.9, 1.8, 2): two of the four go up
        ([0.1, 0.2, 0.3, 0.4], 3, 0.05, [0, 0, 1, 2]),
        ([0.1, 0.2, 0.3, 0.4], 3, 0.15, [0, 1, 0, 2]),
        ([0.1, 0.2, 0.3, 0.4], 3, 0.5, [0, 1, 1, 1]),
        ([0.1, 0.2, 0.3, 0.4], 3, 0.75, [1, 0, 1, 1]),
    ])
    def test_hand_worked_draws(self, p, budget, u, expected):
        law = design._draws(DesignWeights(np.array(p)), budget)
        assert law.quotas(law.interval(u)).tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(min_value=1, max_value=12),
        budget=st.one_of(st.integers(min_value=1, max_value=60),
                         st.integers(min_value=2**40, max_value=2**53)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lookup_matches_the_formula_at_every_cut(self, kind, n, budget, seed):
        # on both sides of each interval end, and at its middle, the lookup
        # agrees with the floating-point formula wherever U is clear of a
        # cut; next to one, C_j + U can round up to the integer early
        w = DesignWeights(fuzzed_weights(kind, n, budget, np.random.default_rng(seed)))
        if (law := checked_law(w, budget)) is None:
            return
        gap = clear_gap(w, budget)
        ends = np.append(law.cuts, 1.0)
        mids = (ends[:-1] + ends[1:]) / 2
        for u in np.concatenate([ends - gap, ends + gap, mids]):
            if 0.0 <= u < 1.0 and np.abs(ends[1:] - u).min() >= gap:
                assert np.array_equal(law.quotas(law.interval(u)), formula(w, budget, u))

    def test_quantize_raw_is_the_formula_at_its_uniform(self, rng):
        w = DesignWeights(rng.dirichlet(np.ones(9)))
        ends = np.append(design._draws(w, 25).cuts[1:], 1.0)
        for seed in range(50):
            u = np.random.default_rng(seed).random()
            assert np.abs(ends - u).min() >= clear_gap(w, 25)
            assert np.array_equal(design.quantize_raw(w, 25, seed), formula(w, 25, u))

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(min_value=1, max_value=12),
        budget=st.one_of(st.integers(min_value=1, max_value=60),
                         st.integers(min_value=2**40, max_value=2**53)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cuts_are_exact(self, kind, n, budget, seed):
        # each cut is ceil(C_j) - C_j of a float running sum C_j below the
        # clip, rounded to the nearest double, and that is no rounding at all
        # where floor(C_j) >= 1 or C_j >= 1/2
        w = DesignWeights(fuzzed_weights(kind, n, budget, np.random.default_rng(seed)))
        if (law := checked_law(w, budget)) is None:
            return
        floor, frac = split(w, budget)
        r = budget - floor.sum()
        expected = {0.0}
        for c in np.cumsum(frac[frac > 0])[:-1]:  # the last sum always gains r
            t = math.ceil(c) - Fraction(c)
            if math.floor(c) < r and 0 < t < 1:
                expected.add(float(t))
                if c >= 0.5:
                    assert Fraction(float(t)) == t
        assert law.cuts.tolist() == sorted(expected)

    def test_whole_nodes_never_move(self):
        # p * 8 = (2.4, 2, 2.6, 1): only nodes 0 and 2 have a fractional part
        w = DesignWeights(np.array([0.3, 0.25, 0.325, 0.125]))
        draws = {tuple(design.quantize_raw(w, 8, seed)) for seed in range(200)}
        assert draws == {(2, 2, 3, 1), (3, 2, 2, 1)}

    @pytest.mark.parametrize("seed", [0, 2**40, [3, 1, 4]], ids=["0", "2**40", "list"])
    def test_same_seed_same_draw(self, seed):
        w = DesignWeights(np.array([0.1, 0.2, 0.3, 0.4]))
        first = design.quantize_raw(w, 7, seed)
        assert np.array_equal(design.quantize_raw(w, 7, seed), first)
        assert np.array_equal(design.quantize_raw(w, 7, np.random.SeedSequence(seed)), first)


class TestOffSimplexWeights:
    """Weights whose p_i * budget miss the budget are refused up front, for
    every U alike, where some draw would break the contract."""

    @pytest.mark.parametrize("p, budget, broken", [
        # p_i * budget rounds to integers that sum to the budget minus 1
        ([0.6666666666666666, 0.3333333333333333], 7_560_851_077_007_530,
         [5040567384671686, 2520283692335843]),
        # p sums to 1 - 2.1e-11: U below 1e-10 gives the last node 2 units
        ([0.335, 0.334999999999, 0.32999999998], 100, [33, 33, 34]),
    ])
    def test_regression_refused(self, p, budget, broken):
        w = DesignWeights(np.array(p))
        drawn = formula(w, budget, 0.0)
        assert drawn.tolist() == broken and not keeps_contract(drawn, w, budget)
        for seed in range(5):
            with pytest.raises(ValueError, match="too far from the simplex"):
                design.quantize_raw(w, budget, seed)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(min_value=1, max_value=12),
        off=st.floats(min_value=-0.999e-10, max_value=0.999e-10),
        budget=st.one_of(st.integers(min_value=1, max_value=200),
                         st.integers(min_value=2**30, max_value=2**53)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_refused_or_every_draw_keeps_the_contract(self, kind, n, off, budget, seed):
        w = DesignWeights(fuzzed_weights(kind, n, budget, np.random.default_rng(seed))
                          * (1.0 + off))
        if (law := checked_law(w, budget)) is not None:
            for i in range(len(law.cuts)):
                assert keeps_contract(law.quotas(i), w, budget)


class TestAllocateFromWeights:
    @pytest.mark.parametrize("raw, budget, match", [
        ([1, 1, 1], 2**53, "rounding draw"),  # 1 is far below 0.5 * 2**53
        ([1, 1, 1], 4, "rounding draw"),  # 1 is a full unit below 0.5 * 4
        ([3, 1, 0], 4, "rounding draw"),
        ([1, 1], 3, "rounding draw"),
        ([[2, 1, 1]], 4, "rounding draw"),
        ([1.5, 1, 1], 3, "integers"),
        (["1", "1", "1"], 3, "integers"),
        ([2, 2, 1], 4, "quotas sum to 5, expected budget 4"),  # a draw, but not of 4
    ])
    def test_non_draws_rejected(self, raw, budget, match):
        with pytest.raises(ValueError, match=match):
            design.allocate_from_weights(np.ones((3, 1)), W3, budget, np.array(raw))

    @pytest.mark.parametrize("rows, p, budget, raw, expected, shifts", [
        # donor tie between nodes 0 and 1: the lower index gives the unit
        ([[1, 0], [1, 0], [0, 1]], [0.45, 0.45, 0.1], 4, [2, 2, 0], [1, 2, 1], 1),
        # target tie between nodes 2 and 3: the lower index takes it
        ([[1, 0], [1, 0], [0, 1], [0, 1]], [0.4, 0.4, 0.1, 0.1], 3,
         [2, 1, 0, 0], [1, 1, 1, 0], 1),
        # the unsampled node of largest weight takes the unit
        ([[1, 0], [1, 0], [0, 1], [0, 1]], [0.4, 0.4, 0.05, 0.15], 3,
         [2, 1, 0, 0], [1, 1, 0, 1], 1),
        # K = 3: the first shift leaves rank 2, the second reaches rank 3
        ([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [0.45, 0.45, 0.05, 0.05], 4,
         [2, 2, 0, 0], [1, 1, 1, 1], 2),
    ])
    def test_fallback_shift_trace(self, rows, p, budget, raw, expected, shifts):
        alloc, n = design.allocate_from_weights(
            np.array(rows, dtype=float), DesignWeights(np.array(p)), budget, np.array(raw))
        assert (alloc.m.tolist(), n) == (expected, shifts)

    def test_no_donor_no_shift(self):
        # each node holds one unit, so no shift can reach node 2
        with pytest.raises(FallbackExhausted, match="no budget shift available"):
            design.allocate_from_weights(
                np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                DesignWeights(np.array([0.45, 0.45, 0.1])), 2, np.array([1, 1, 0]))


def split(weights, budget):
    """p * budget as its floor and its fractional part, a part within 1e-9
    of 0 or 1 snapped away: the reference for `_draws`' split."""
    x = weights.p * budget
    floor = np.floor(x)
    frac = x - floor
    floor[frac > 1.0 - 1e-9] += 1.0
    frac[(frac < 1e-9) | (frac > 1.0 - 1e-9)] = 0.0
    return floor, frac


def formula(weights, budget, u):
    """Systematic sampling in floating point, the reference for the law:
    floor + diff(min(floor(C_j + u), r)) with the last sum set to r, for the
    running sums C_j of the nonzero fractional parts and r = budget -
    sum(floor)."""
    floor, frac = split(weights, budget)
    on = np.flatnonzero(frac)
    r = budget - floor.sum()
    k = np.minimum(np.floor(np.cumsum(frac[on]) + u), r)
    k[-1:] = r
    floor[on] += np.diff(k, prepend=0.0)
    return floor.astype(int)


def clear_gap(weights, budget):
    """How far U must be from a cut, or from 1, for `formula` to agree with
    the law: 2**-52, or the spacing of the doubles at floor(C_j) + 1 for the
    largest running sum C_j if that is coarser, since C_j + U rounds to the
    integer above it from half a spacing below."""
    c = np.cumsum(split(weights, budget)[1])
    return np.spacing(np.floor(c.max()) + 1.0)


def keeps_contract(m, weights, budget):
    """Whether quotas m sum to the budget and lie within 1 of p_i * budget."""
    return m.sum() == budget and (np.abs(m - weights.p * budget) < 1).all()


def checked_law(weights, budget):
    """`_draws(weights, budget)`, or None where it refuses the pair, which it
    may do only when `formula` at U = 0 breaks the contract."""
    try:
        return design._draws(weights, budget)
    except ValueError as exc:
        assert "too far from the simplex" in str(exc)
        assert not keeps_contract(formula(weights, budget, 0.0), weights, budget)
        return None


def fuzzed_weights(kind, n, budget, rng):
    """Weights that stress the rounding: generic, mostly zero, on the grid
    1/budget, within 1e-8 of it (so running sums land next to integers), or
    with repeated values."""
    if kind == "sparse":
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.4)
        if p.sum() == 0:
            p[rng.integers(n)] = 1.0
    elif kind == "grid":
        p = rng.multinomial(budget, np.ones(n) / n) + rng.random(n) * (rng.random(n) < 0.5)
    elif kind == "near-grid":
        p = rng.multinomial(budget, np.ones(n) / n) + 1e-8 * rng.random(n)
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
        A_hat = rows.T @ ((m / budget)[:, None] * rows)
        V_S = rows[alloc.indices]
        G = V_S.T @ V_S
        assert np.abs(A_hat * budget - G).max() <= 1e-12 * np.abs(G).max()
        # eigenvalue rounding moves 1/lambda_min by about eps * cond(G)
        rel = 1e-13 * np.linalg.cond(G)
        for crit, expected in [
            (Criterion.A_OPT, budget * score(G, Criterion.A_OPT)),
            (Criterion.E_OPT, budget * score(G, Criterion.E_OPT)),
            (Criterion.D_OPT, score(G, Criterion.D_OPT) + k * np.log(budget)),
        ]:
            value = design._scalarized(
                design._evaluate(rows, DesignWeights(m / budget), crit)[0], crit)
            assert value == pytest.approx(expected, rel=rel, abs=rel)


W3 = DesignWeights(np.array([0.5, 0.3, 0.2]))
RING = spectral.eigendecompose(graphs.laplacian(graphs.watts_strogatz(10, 2, 0.0, seed=0)))
BUDGET_USES = {
    "quantize_raw": lambda b: design.quantize_raw(W3, b, 0),
    "allocate_from_weights": lambda b: design.allocate_from_weights(
        np.ones((3, 1)), W3, b, np.array([2, 1, 1])),
    "paper_invertibility_estimate": lambda b: design.paper_invertibility_estimate(
        0.1, b, 10),
    "design_pipeline": lambda b: design.design_pipeline(RING, 1, b, seed=0),
}


class TestBudgetRule:
    """Every entry point takes a budget by one rule: an integer, not a bool,
    at least 1; the rounding and the allocation also refuse budgets above 2**53."""

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

    @pytest.mark.parametrize("use", ["quantize_raw", "allocate_from_weights"])
    @pytest.mark.parametrize("budget", [2**53 + 1, 10**20,
                                        pytest.param(10**400, id="10**400")])
    def test_rounding_refuses_budgets_beyond_the_weights_resolution(self, use, budget):
        with pytest.raises(ValueError, match=f"budget {budget} is above 2\\*\\*53"):
            BUDGET_USES[use](budget)

    def test_rounding_takes_the_largest_budget(self):
        raw = design.quantize_raw(W3, 2**53, 0)
        assert np.abs(raw - W3.p * 2**53).max() <= 1

    def test_analytic_variance_takes_any_integer_budget(self):
        assert design.paper_invertibility_estimate(0.1, 10**400, 10) == 1.0
