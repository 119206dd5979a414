import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design, spectral
from gsample.design import DesignWeights


class TestInvertibilityBound:
    def test_frozen_reference_value(self):
        # (1 - (5/192000)/0.01)^5, evaluated in extended precision
        bound = design.paper_invertibility_estimate(0.1, 10, 5)
        assert bound == pytest.approx(0.9870471, abs=1e-6)

    def test_clamps_to_zero(self):
        # variance exceeds sigma^2: the Chebyshev factor goes nonpositive
        assert design.paper_invertibility_estimate(1e-4, 1, 3) == 0.0

    def test_monotone_decreasing_in_n(self):
        bounds = [
            design.paper_invertibility_estimate(0.1, 10, n) for n in range(1, 30)
        ]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            design.paper_invertibility_estimate(0.0, 10, 5)

    def test_rejects_sigma_whose_square_underflows(self):
        with pytest.raises(ValueError, match="sigma_min 1e-170 squares to 0"):
            design.paper_invertibility_estimate(1e-170, 10, 10)

    def test_rejects_n_beyond_double_range(self):
        # n * log1p(-v) would raise OverflowError
        with pytest.raises(ValueError, match="n 1000.* is beyond double precision"):
            design.paper_invertibility_estimate(0.1, 10, 10**400)


class TestMinSampleSize:
    def test_frozen_reference_value(self):
        # 5/(192 * (1-0.9^{1/10}) * 0.01) = 248.47, cube root 6.29
        assert design.paper_min_sample_size(0.1, 10, 0.9) == 7

    def test_small_eta_clamps_to_one(self):
        assert design.paper_min_sample_size(10.0, 5, 1e-9) == 1

    def test_monotone_in_eta_n_sigma(self):
        etas = [0.5, 0.9, 0.99]
        ns = [5, 20, 100]
        sigmas = [0.05, 0.1, 0.5]
        for n in ns:
            for s in sigmas:
                ms = [design.paper_min_sample_size(s, n, e) for e in etas]
                assert ms == sorted(ms)
        for e in etas:
            for s in sigmas:
                ms = [design.paper_min_sample_size(s, n, e) for n in ns]
                assert ms == sorted(ms)
            for n in ns:
                ms = [design.paper_min_sample_size(s, n, e) for s in sigmas]
                assert ms == sorted(ms, reverse=True)

    def test_sigma_doubling_scales_pre_ceiling_value(self):
        # doubling sigma divides the pre-ceiling value by 2^(2/3)
        base = (5.0 / (192.0 * (1 - 0.9 ** (1 / 10)) * 0.1**2)) ** (1 / 3)
        halved = (5.0 / (192.0 * (1 - 0.9 ** (1 / 10)) * 0.2**2)) ** (1 / 3)
        assert halved == pytest.approx(base / 2 ** (2 / 3), rel=1e-12)
        assert design.paper_min_sample_size(0.2, 10, 0.9) == int(np.ceil(halved))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            design.paper_min_sample_size(0.1, 10, 1.0)
        with pytest.raises(ValueError):
            design.paper_min_sample_size(-1.0, 10, 0.5)

    def test_rejects_n_beyond_double_range(self):
        # log(eta) / n would raise OverflowError
        with pytest.raises(ValueError, match="n 1000.* is beyond double precision"):
            design.paper_min_sample_size(0.1, 10**400, 0.9)

    def test_consistent_with_probability_bound(self):
        # the bound evaluated at the recommended budget reaches eta
        for eta in [0.5, 0.8, 0.9, 0.95, 0.99]:
            for n in [2, 10, 50, 10**11, 10**13, 10**15]:
                for sigma in [0.05, 0.1, 0.3]:
                    m_star = design.paper_min_sample_size(sigma, n, eta)
                    bound = design.paper_invertibility_estimate(sigma, m_star, n)
                    assert bound >= eta - 1e-12


class TestInvertibilityCertificate:
    # every draw keeps |m/M - p| < 1/M, so by Weyl's inequality and the
    # perturbation bound ||sum_i dp_i u_i u_i^T|| <= max |dp_i| for orthonormal
    # columns, lambda_min(A(m/M)) > lambda_min(A(p)) - 1/M >= 0 whenever
    # M >= 1/lambda_min(A(p)): such a design is never singular
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=11),
        k=st.integers(min_value=1, max_value=5),
        source=st.sampled_from(["simplex", "a", "d"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_budget_of_one_over_lambda_min_is_always_invertible(self, n, k, source, seed):
        rng = np.random.default_rng(seed)
        rows = random_orthonormal_rows(n, min(k, n), rng)
        weights = (DesignWeights(rng.dirichlet(np.ones(n))) if source == "simplex"
                   else design.solve_relaxed(rows, design.Criterion(source)))
        lam = np.linalg.eigvalsh(rows.T @ (weights.p[:, None] * rows))[0]
        least = math.ceil(1 / lam)
        for budget in (least, least + 1, least + int(rng.integers(2, 3 * least + 3))):
            for _ in range(20):
                m = design.quantize_raw(weights, budget, rng)
                assert m.sum() == budget
                A = rows.T @ ((m / budget)[:, None] * rows)
                w = np.linalg.eigvalsh(A)
                assert not spectral._rank_deficient(w)
                shift = np.abs(m / budget - weights.p).max()
                assert w[0] >= lam - shift - 1e-12


class TestResidualVariance:
    @pytest.mark.parametrize("budget", [7, 20, 100])
    def test_rounding_variance_far_above_analytic_cubic(self, budget):
        # the paper's approximation 5/(192 M^3) decays like 1/M^3; the raw
        # rounding error m_i/M - p_i is a two-point variable with variance
        # frac (1 - frac) / M^2, which sits far above it for interior weights.
        # The bound operations use the paper's value.
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(8))
        draws = 20_000
        gen = np.random.default_rng(1)
        weights = DesignWeights(p)
        delta = np.array([design.quantize_raw(weights, budget, gen)
                          for _ in range(draws)]) / budget - p
        emp = delta.var(axis=0)
        frac = p * budget - np.floor(p * budget)
        truth = frac * (1 - frac) / budget**2
        # standard error of a two-point sample variance: sqrt((mu4 - var^2) / draws)
        mu4 = truth * (1 - 3 * frac + 3 * frac**2) / budget**2
        assert (np.abs(emp - truth) <= 5 * np.sqrt((mu4 - truth**2) / draws) + 1e-15).all()
        assert emp.max() > 10 * (5 / (192 * budget**3))

    @pytest.mark.parametrize(
        "p, budget, quotas",
        [
            ([0.3, 0.7], 10, [3, 7]),
            ([15 / 22, 7 / 22], 22, [15, 7]),  # 15/22 * 22 lands 2e-15 below 15
            ([7 / 25, 18 / 25], 25, [7, 18]),  # 7/25 * 25 lands 9e-16 above 7
            ([0.5 - 1e-13, 0.5 + 1e-13], 10, [5, 5]),  # 1e-12 off the grid point
        ],
    )
    def test_grid_point_weights_round_deterministically(self, p, budget, quotas):
        w = DesignWeights(np.array(p))
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert design.quantize_raw(w, budget, rng).tolist() == quotas


@pytest.mark.parametrize("n", [2.5, 10.0, True, "10", None])
def test_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        design.paper_min_sample_size(0.1, n, 0.9)
    with pytest.raises(ValueError, match="n must be an integer"):
        design.paper_invertibility_estimate(0.1, 10, n)
