import itertools

import numpy as np
import pytest

from conftest import random_orthonormal_rows
from gsample import design, estimation, graphs, spectral
from gsample.design import Criterion, DesignWeights, SampleAllocation


@pytest.fixture(scope="module")
def basis():
    g = graphs.random_geometric(20, 0.6, 0.3, seed=8)
    return spectral.eigendecompose(graphs.laplacian(g))


def integer_designs(n, budget):
    """All nonnegative integer vectors of length n summing to budget."""
    for cuts in itertools.combinations(range(budget + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(budget + n - 2 - prev)
        yield np.array(parts)


def combinatorial_optimum(rows, budget, crit):
    best = np.inf
    for m in integer_designs(rows.shape[0], budget):
        A = rows.T @ ((m / budget)[:, None] * rows)
        w = np.linalg.eigvalsh(A)
        if w[0] <= 1e-12 * max(w[-1], 1e-300):
            continue
        val = -np.sum(np.log(w)) if crit is Criterion.D_OPT else np.sum(1.0 / w)
        best = min(best, val)
    return best


class TestDesignPipeline:
    def test_bandwidth_one_any_budget(self, basis):
        result = design.design_pipeline(basis, 1, 3, Criterion.A_OPT, seed=0)
        assert result.allocation.m.sum() == 3
        seq = result.allocation
        f = spectral.synthesize_bandlimited(basis, np.array([2.0]))
        est = estimation.blue_estimate(basis, 1, seq, f[seq.indices], f_true=f)
        assert est.error_l2 <= 1e-8

    def test_quantized_objective_dominates_relaxed(self, basis):
        result = design.design_pipeline(basis, 3, 12, Criterion.A_OPT, seed=1)
        diag = result.diagnostics
        assert diag["quantized_objective"] >= diag["relaxed_objective"] - 1e-8
        assert diag["duality_gap"] <= 1e-6 * max(1.0, diag["relaxed_objective"])

    def test_chain_against_enumeration(self, rng):
        # 56 integer designs for N=6, M=3: relaxed <= combinatorial <= quantized
        rows = random_orthonormal_rows(6, 2, rng)
        assert sum(1 for _ in integer_designs(6, 3)) == 56
        weights = design.solve_relaxed(rows, Criterion.A_OPT)
        relaxed = design.criterion_value(
            design.information_matrix(rows, weights), Criterion.A_OPT
        )
        gap = design.duality_gap(rows, weights, Criterion.A_OPT)
        comb = combinatorial_optimum(rows, 3, Criterion.A_OPT)
        alloc, _ = design.allocate_from_weights(rows, weights, 3, seed=5)
        quantized = design.criterion_value(
            design.quantized_information_matrix(rows, alloc), Criterion.A_OPT
        )
        assert relaxed - gap <= comb + 1e-8
        assert comb <= quantized + 1e-8

    def test_budget_below_bandwidth_rejected(self, basis):
        with pytest.raises(ValueError):
            design.design_pipeline(basis, 4, 3, Criterion.A_OPT)

    def test_diagnostics_reported(self, basis):
        result = design.design_pipeline(basis, 2, 8, Criterion.D_OPT, seed=2)
        for key in (
            "relaxed_objective",
            "quantized_objective",
            "duality_gap",
            "sigma_min",
            "invertibility_bound",
            "fallback_moves",
        ):
            assert key in result.diagnostics
        assert 0.0 <= result.diagnostics["invertibility_bound"] <= 1.0


class TestFallback:
    def test_singular_draw_repaired_by_budget_shift(self, rng):
        # a design concentrated on one row of a K=2 problem is singular;
        # the shift moves a unit to the unsampled node with largest weight
        rows = np.array(
            [[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)], [0.0, 1.0]]
        )
        weights = DesignWeights(np.array([0.98, 0.01, 0.01]))
        # force raw quotas all on node 0 by monkey-free determinism: budget 2
        # quantizes 0.98*2=1.96 -> 2 almost surely; check the repair path
        for seed in range(10):
            alloc, shifts = design.allocate_from_weights(rows, weights, 2, seed=seed)
            A = design.quantized_information_matrix(rows, alloc)
            assert np.linalg.eigvalsh(A)[0] > 0
            assert alloc.m.sum() == 2
