import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design
from gsample.design import DesignWeights


class TestInvertibilityBound:
    def test_frozen_reference_value(self):
        # (1 - (5/192000)/0.01)^5, evaluated in extended precision
        bound = design.invertibility_probability_bound(0.1, 10, 5)
        assert bound == pytest.approx(0.9870471, abs=1e-6)

    def test_clamps_to_zero(self):
        # variance exceeds sigma^2: the Chebyshev factor goes nonpositive
        assert design.invertibility_probability_bound(1e-4, 1, 3) == 0.0

    def test_monotone_decreasing_in_n(self):
        bounds = [
            design.invertibility_probability_bound(0.1, 10, n) for n in range(1, 30)
        ]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            design.invertibility_probability_bound(0.0, 10, 5)

    def test_rejects_n_beyond_double_range(self):
        # factor**n would raise OverflowError
        with pytest.raises(ValueError, match="n 1000.* is beyond double precision"):
            design.invertibility_probability_bound(0.1, 10, 10**400)


class TestMinSampleSize:
    def test_frozen_reference_value(self):
        # 5/(192 * (1-0.9^{1/10}) * 0.01) = 248.47, cube root 6.29
        assert design.min_sample_size(0.1, 10, 0.9) == 7

    def test_small_eta_clamps_to_one(self):
        assert design.min_sample_size(10.0, 5, 1e-9) == 1

    def test_monotone_in_eta_n_sigma(self):
        etas = [0.5, 0.9, 0.99]
        ns = [5, 20, 100]
        sigmas = [0.05, 0.1, 0.5]
        for n in ns:
            for s in sigmas:
                ms = [design.min_sample_size(s, n, e) for e in etas]
                assert ms == sorted(ms)
        for e in etas:
            for s in sigmas:
                ms = [design.min_sample_size(s, n, e) for n in ns]
                assert ms == sorted(ms)
            for n in ns:
                ms = [design.min_sample_size(s, n, e) for s in sigmas]
                assert ms == sorted(ms, reverse=True)

    def test_sigma_doubling_scales_pre_ceiling_value(self):
        # doubling sigma divides the pre-ceiling value by 2^(2/3)
        base = (5.0 / (192.0 * (1 - 0.9 ** (1 / 10)) * 0.1**2)) ** (1 / 3)
        halved = (5.0 / (192.0 * (1 - 0.9 ** (1 / 10)) * 0.2**2)) ** (1 / 3)
        assert halved == pytest.approx(base / 2 ** (2 / 3), rel=1e-12)
        assert design.min_sample_size(0.2, 10, 0.9) == int(np.ceil(halved))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            design.min_sample_size(0.1, 10, 1.0)
        with pytest.raises(ValueError):
            design.min_sample_size(-1.0, 10, 0.5)

    def test_rejects_n_beyond_double_range(self):
        # 1.0 / n would raise OverflowError
        with pytest.raises(ValueError, match="n 1000.* is beyond double precision"):
            design.min_sample_size(0.1, 10**400, 0.9)

    def test_consistent_with_probability_bound(self):
        # the bound evaluated at the recommended budget reaches eta
        for eta in [0.5, 0.8, 0.9, 0.95, 0.99]:
            for n in [2, 10, 50]:
                for sigma in [0.05, 0.1, 0.3]:
                    m_star = design.min_sample_size(sigma, n, eta)
                    bound = design.invertibility_probability_bound(sigma, m_star, n)
                    assert bound >= eta - 1e-12


class TestPerturbationNorm:
    def test_zero_residual(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        norm, bound = design.perturbation_norm(rows, np.zeros(6))
        assert norm == 0.0 and bound == 0.0

    def test_single_spike_is_rank_one(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        dp = np.zeros(6)
        dp[2] = 0.1
        norm, bound = design.perturbation_norm(rows, dp)
        assert norm == pytest.approx(0.1 * np.sum(rows[2] ** 2), rel=1e-10)
        assert norm <= bound + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_norm_bounded_by_max_residual(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_orthonormal_rows(8, 3, rng)
        dp = rng.uniform(-0.1, 0.1, size=8)
        norm, bound = design.perturbation_norm(rows, dp)
        assert norm <= bound + 1e-10

    def test_non_orthonormal_rows_rejected(self):
        # unit-norm rows, but rows^T rows != I: the norm 0.2 exceeds
        # max |dp_i| = 0.1, so the bound does not hold
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        dp = np.array([0.1, 0.1])
        with pytest.raises(ValueError, match="orthonormal"):
            design.perturbation_norm(rows, dp)

    @pytest.mark.parametrize("rows, dp", [
        pytest.param(np.ones(3), np.zeros(3), id="1-D-rows"),
        pytest.param([[1.0, 0.0], [np.nan, 0.0]], [0.1, 0.0], id="nan-row"),
        pytest.param([[1.0, 0.0], [np.inf, 0.0]], [0.0, 0.0], id="inf-row"),
        pytest.param(np.eye(2), [np.nan, 0.0], id="nan-residual"),
        pytest.param(np.eye(2), [np.inf, 0.0], id="inf-residual"),
    ])
    def test_non_finite_input_rejected(self, rows, dp):
        with pytest.raises(ValueError, match="finite"):
            design.perturbation_norm(np.array(rows), np.array(dp))


class TestResidualVariance:
    def test_empirical_variance_disagrees_with_analytic_cubic(self):
        # the analytic approximation decays like 1/M^3; a direct Monte Carlo
        # estimate of the rounding error decays like 1/M^2 and sits far above
        # it for interior weights. Both are exposed; the bound operations use
        # the analytic value.
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(8))
        budget = 20
        emp = design.empirical_residual_variance(
            DesignWeights(p), budget, draws=200_000, seed=1
        )
        analytic = design.residual_variance_analytic(budget)
        # per-coordinate truth: frac(1-frac)/M^2 with frac the grid offset
        frac = p * budget - np.floor(p * budget)
        truth = frac * (1 - frac) / budget**2
        assert np.allclose(emp, truth, rtol=0.02, atol=1e-6)
        assert emp.max() > 10 * analytic

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
        emp = design.empirical_residual_variance(w, budget, draws=1000, seed=0)
        assert np.array_equal(emp, np.zeros(len(p)))
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert design.quantize_raw(w, budget, rng).tolist() == quotas


@pytest.mark.parametrize("n", [2.5, 10.0, True, "10", None])
def test_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        design.min_sample_size(0.1, n, 0.9)
    with pytest.raises(ValueError, match="n must be an integer"):
        design.invertibility_probability_bound(0.1, 10, n)
