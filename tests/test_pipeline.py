import itertools
import math

import numpy as np
import pytest

from conftest import random_orthonormal_rows, score
from gsample import design, estimation, graphs, spectral
from gsample.design import Criterion, DesignWeights, SampleAllocation
from gsample.exceptions import FallbackExhausted


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
        relaxed = score(rows.T @ (weights.p[:, None] * rows), Criterion.A_OPT)
        gap = design.duality_gap(rows, weights, Criterion.A_OPT)
        comb = combinatorial_optimum(rows, 3, Criterion.A_OPT)
        alloc, _ = design.allocate_from_weights(
            rows, weights, 3, design.quantize_raw(weights, 3, 5))
        quantized = score(rows.T @ ((alloc.m / alloc.budget)[:, None] * rows), Criterion.A_OPT)
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
            "certified_budget",
            "paper_invertibility_estimate",
            "invertible_probability",
            "fallback_moves",
        ):
            assert key in result.diagnostics
        assert 0.0 <= result.diagnostics["paper_invertibility_estimate"] <= 1.0
        assert 0.0 <= result.diagnostics["invertible_probability"] <= 1.0
        assert result.diagnostics["certified_budget"] == math.ceil(
            1 / result.diagnostics["sigma_min"])


class TestInvertibleProbability:
    """`invertible_probability` is the exact probability that one rounding
    draw passes the rank rule before any fallback shift."""

    @pytest.mark.parametrize("k, budget", [(3, 3), (4, 5), (6, 7)])
    def test_matches_monte_carlo(self, basis, k, budget):
        result = design.design_pipeline(basis, k, budget, Criterion.A_OPT, seed=0)
        prob = result.diagnostics["invertible_probability"]
        assert 0.0 < prob < 1.0
        rows = spectral.design_rows(basis, k)
        draws, passed = 2000, 0
        for seed in range(draws):
            raw = design.quantize_raw(result.weights, budget, [7, seed])
            try:
                passed += design.allocate_from_weights(rows, result.weights, budget, raw)[1] == 0
            except FallbackExhausted:
                pass
        assert abs(passed / draws - prob) <= 4 * math.sqrt(prob * (1 - prob) / draws)

    @pytest.mark.parametrize("crit", list(Criterion))
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_one_from_the_certified_budget(self, basis, crit, k):
        # every quota is within 1 of p_i * budget, so Weyl's inequality keeps
        # every draw invertible from ceil(1 / sigma_min) on
        certified = design.design_pipeline(basis, k, 1000, crit)
        for budget in (certified.diagnostics["certified_budget"] + extra for extra in (0, 1, 7)):
            diag = design.design_pipeline(basis, k, budget, crit, seed=0).diagnostics
            assert diag["invertible_probability"] == 1.0

    @pytest.mark.parametrize("crit", list(Criterion))
    @pytest.mark.parametrize("budget", [15, 16, 17, 20, 25, 60])
    def test_sums_the_lengths_of_unshifted_draws(self, ci_basis, crit, budget):
        # exactly the summed length of the law's intervals whose draw
        # `allocate_from_weights` takes with no shift; a draw that ends in
        # FallbackExhausted was shifted
        result = design.design_pipeline(ci_basis, 15, budget, crit, seed=0)
        rows = spectral.design_rows(ci_basis, 15)
        law = design._draws(result.weights, budget)

        def unshifted(i):
            try:
                return design.allocate_from_weights(
                    rows, result.weights, budget, law.quotas(i))[1] == 0
            except FallbackExhausted:
                return False

        mask = np.array([unshifted(i) for i in range(len(law.cuts))])
        assert result.diagnostics["invertible_probability"] == float(law.lengths[mask].sum())


@pytest.fixture(scope="module")
def ci_basis():
    """The graph the CLI's design checks use: random_geometric(200, 0.6, 0.3), seed 0."""
    g = graphs.random_geometric(200, 0.6, 0.3, seed=0)
    return spectral.eigendecompose(graphs.laplacian(g))


def reference_evaluation(rows, weights, crit):
    """Objective, sigma_min and duality gap at `weights`, from one
    A(p) -> eigh, whose Q diag(1/w) Q^T is the A^-1 `_gradient` takes."""
    w, Q = np.linalg.eigh(rows.T @ (weights.p[:, None] * rows))
    objective = {Criterion.A_OPT: float(np.sum(1.0 / w)),
                 Criterion.D_OPT: float(-np.sum(np.log(w))),
                 Criterion.E_OPT: float(1.0 / w[0])}[crit]
    if crit is Criterion.E_OPT:
        gap = float(1.0 / w[0]) - 1.0 / design._e_bound(rows)
    else:
        g = design._gradient(rows, (Q / w) @ Q.T, crit)
        gap = float(weights.p @ g - g.min())
    return objective, float(w[0]), gap


def counting(monkeypatch, *names):
    """Wrap each `np.linalg` function in `names` to log its arguments; returns
    the dict of name -> list of argument tuples."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, _fn=fn, _log=calls[name]: _log.append(args) or _fn(*args))
    return calls


def badly_scaled_rows(seed):
    """Random orthonormal rows with their columns scaled across four decades."""
    rng = np.random.default_rng(seed)
    return random_orthonormal_rows(30, 5, rng) * np.logspace(-2, 2, 5)


class TestOneEvaluation:
    """`duality_gap`, `solve_relaxed`'s uniform check and `design_pipeline`'s
    diagnostics read one evaluation of A(p), from one `eigh`; its values keep
    their bits."""

    @pytest.mark.parametrize("crit", list(Criterion))
    def test_duality_gap_matches_reference_bit_for_bit(self, ci_basis, crit):
        rows = spectral.design_rows(ci_basis, 15)
        uniform = DesignWeights(np.full(len(rows), 1.0 / len(rows)))
        for weights in (uniform, design.solve_relaxed(rows, crit)):
            assert design.duality_gap(rows, weights, crit) == reference_evaluation(
                rows, weights, crit)[2]

    @pytest.mark.parametrize("crit", list(Criterion))
    def test_pipeline_diagnostics_match_reference_bit_for_bit(self, ci_basis, crit):
        result = design.design_pipeline(ci_basis, 15, 60, crit, seed=0)
        diag = result.diagnostics
        rows = spectral.design_rows(ci_basis, 15)
        assert (diag["relaxed_objective"], diag["sigma_min"], diag["duality_gap"]) == \
            reference_evaluation(rows, result.weights, crit)

    @pytest.mark.parametrize("crit", list(Criterion))
    def test_each_design_factored_once(self, ci_basis, crit, monkeypatch):
        # one eigh for solve_relaxed's uniform check and one for the pipeline's
        # relaxed design, and no eigvalsh or inv in either; the A/D solver
        # itself factors by Cholesky
        calls = counting(monkeypatch, "eigh", "eigvalsh", "inv")
        per_evaluation = []
        evaluate = design._evaluate

        def counted(*args):
            before = {name: len(log) for name, log in calls.items()}
            result = evaluate(*args)
            per_evaluation.append({name: len(log) - before[name] for name, log in calls.items()})
            return result

        monkeypatch.setattr(design, "_evaluate", counted)
        design.design_pipeline(ci_basis, 15, 60, crit, seed=0)
        assert per_evaluation == [{"eigh": 1, "eigvalsh": 0, "inv": 0}] * 2
        assert calls["eigvalsh"] == []

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    @pytest.mark.parametrize("source", ["ci", "badly-scaled-0", "badly-scaled-1"])
    def test_solver_inverts_only_cholesky_factors(self, ci_basis, source, crit, monkeypatch):
        # A^-1 = L^-T L^-1 comes from the iterate's Cholesky factor L, so every
        # matrix the solve inverts is that lower-triangular L, never A itself
        rows = (spectral.design_rows(ci_basis, 15) if source == "ci"
                else badly_scaled_rows(int(source[-1])))
        calls = counting(monkeypatch, "inv")
        design.solve_relaxed(rows, crit)
        assert calls["inv"]
        for (M,) in calls["inv"]:
            assert np.array_equal(M, np.tril(M))

    @pytest.mark.parametrize("crit", list(Criterion))
    def test_duality_gap_takes_one_eigh_and_no_inv(self, ci_basis, crit, monkeypatch):
        rows = spectral.design_rows(ci_basis, 15)
        weights = design.solve_relaxed(rows, crit)
        calls = counting(monkeypatch, "eigh", "eigvalsh", "inv")
        design.duality_gap(rows, weights, crit)
        assert {name: len(log) for name, log in calls.items()} == \
            {"eigh": 1, "eigvalsh": 0, "inv": 0}


class TestFallback:
    def test_singular_draw_repaired_by_budget_shift(self, rng):
        # a design concentrated on one row of a K=2 problem is singular;
        # the shift moves a unit to the unsampled node with largest weight
        rows = np.array(
            [[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)], [0.0, 1.0]]
        )
        weights = DesignWeights(np.array([0.98, 0.01, 0.01]))
        # force raw quotas all on node 0 by monkey-free determinism: budget 2
        # quantizes 0.98*2=1.96 -> 2 almost surely; check the shift path
        for seed in range(10):
            alloc, shifts = design.allocate_from_weights(
                rows, weights, 2, design.quantize_raw(weights, 2, seed))
            A = rows.T @ ((alloc.m / alloc.budget)[:, None] * rows)
            assert np.linalg.eigvalsh(A)[0] > 0
            assert alloc.m.sum() == 2
