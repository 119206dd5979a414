import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sampling, score
from gsample import design, estimation, graphs, spectral
from gsample.design import Criterion, SampleAllocation
from gsample.exceptions import RankDeficientSampling


@pytest.fixture(scope="module")
def basis():
    g = graphs.random_geometric(30, 0.5, 0.25, seed=3)
    return spectral.eigendecompose(graphs.laplacian(g))


class TestSamplingSequence:
    """The sampling sequence is `SampleAllocation.indices`: the quotas it
    expands are checked as integers, copied, and the sequence is read-only."""

    @pytest.mark.parametrize(
        "indices",
        [
            [1.5, 2.9], [0.0, np.nan], [1.0, np.inf], [-np.inf, 2.0],
            ["2", "0"], [True, False], np.array([1 + 0j]), np.array([1, 2], dtype=object),
        ],
    )
    def test_non_integral_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="quotas must be integers"):
            SampleAllocation(indices, 2)

    @pytest.mark.parametrize("m", [
        [2**63, 1], [2.0**63, 0.0], [-(2.0**63) - 2**11, 1], [1e20, 1],
        np.array([2**63, 1], dtype=np.uint64),
    ], ids=["2**63", "2.0**63", "-2**63-2**11", "1e20", "uint64"])
    def test_quotas_beyond_int64_refused_without_a_warning(self, m):
        # the cast to int64 wrapped them, with a RuntimeWarning, to quotas
        # refused as negative
        with pytest.raises(ValueError, match=r"quotas must lie in \[-2\*\*63, 2\*\*63\)"):
            SampleAllocation(m, 1)

    def test_int64_minimum_is_in_range(self):
        with pytest.raises(ValueError, match="quotas must be nonnegative"):
            SampleAllocation([-(2.0**63), 1], 1)

    def test_integral_floats_accepted(self):
        seq = SampleAllocation([0.0, 1.0, 2.0], 3)
        assert seq.indices.dtype.kind == "i"
        assert seq.indices.tolist() == [1, 2, 2]

    def test_integer_input_copied_and_frozen(self):
        m = np.array([0, 1, 0, 2], dtype=np.int32)
        seq = SampleAllocation(m, 3)
        m[0] = 5
        assert seq.indices.tolist() == [1, 3, 3]
        assert not seq.indices.flags.writeable
        with pytest.raises(ValueError):
            seq.indices[0] = 0

    def test_expanded_once_per_allocation(self, monkeypatch):
        repeat, calls = np.repeat, []
        monkeypatch.setattr(np, "repeat", lambda *a: calls.append(1) or repeat(*a))
        seq = SampleAllocation([2, 0, 1], 3)
        assert calls == []  # computed on first use
        assert seq.indices is seq.indices
        assert len(calls) == 1

    def test_proposed_trial_expands_once(self, basis, monkeypatch):
        # only the observation expands the sequence: the allocation's rank
        # check and BLUE work on the nodes it samples
        k = 4
        rows = spectral.design_rows(basis, k)
        weights = design.DesignWeights(np.full(basis.n, 1.0 / basis.n))
        repeat, calls = np.repeat, []
        monkeypatch.setattr(np, "repeat", lambda *a: calls.append(1) or repeat(*a))
        seq, _ = design.allocate_from_weights(
            rows, weights, 3 * k, design.quantize_raw(weights, 3 * k, 0))
        assert "indices" not in seq.__dict__
        f = spectral.synthesize_bandlimited(basis, np.ones(k))
        sigma = estimation.noise_std_for_snr(f, 10.0)
        y = f[seq.indices] + sigma * np.random.default_rng(1).standard_normal(seq.budget)
        estimation.blue_estimate(basis, k, seq, y, f_true=f)
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [[0, 0, 0], []])
    def test_empty_sequence_rejected(self, m):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            SampleAllocation(m, 0)


class TestSequenceFromAllocation:
    def test_expands_in_node_order(self):
        alloc = SampleAllocation(m=np.array([2, 0, 1]), budget=3)
        assert np.array_equal(alloc.indices, [0, 0, 2])

    def test_point_mass(self):
        alloc = SampleAllocation(m=np.array([0, 4, 0]), budget=4)
        assert np.array_equal(alloc.indices, [1, 1, 1, 1])

    def test_round_trip_counts(self, rng):
        m = rng.multinomial(12, np.ones(5) / 5)
        seq = SampleAllocation(m=m, budget=12)
        assert np.array_equal(np.bincount(seq.indices, minlength=5), m)
        assert np.array_equal(sampling(seq.indices, 5).m, m)


class TestNoiseStdForSnr:
    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_undefined_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR"):
            estimation.noise_std_for_snr(np.ones(4), snr_db)

    @pytest.mark.parametrize("snr_db", [3090.0, 1e308, np.inf])
    def test_overflowing_power_ratio_is_noiseless(self, snr_db):
        assert estimation.noise_std_for_snr(np.ones(4), snr_db) == 0.0

    @pytest.mark.parametrize("snr_db", [-3200.0, -3240.0])
    def test_non_finite_noise_level_rejected(self, snr_db):
        with pytest.raises(ValueError, match=f"SNR {snr_db} dB"):
            estimation.noise_std_for_snr(np.ones(4), snr_db)
        assert estimation.noise_std_for_snr(np.zeros(4), snr_db) == 0.0

    @pytest.mark.parametrize("signal", [[1e200, 1.0, 1.0], [1e154] * 8])
    def test_signal_power_beyond_double_range_rejected(self, signal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="signal power"):
                estimation.noise_std_for_snr(np.array(signal), 10.0)
            assert estimation.noise_std_for_snr(np.array(signal), np.inf) == 0.0

    @pytest.mark.parametrize("signal", [[2**40, 1], [3_037_000_500, 0]])
    def test_integer_signal_squared_as_float(self, signal):
        # squared in int64 the first wraps silently, the second goes negative
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = estimation.noise_std_for_snr(np.array(signal), 10.0)
        assert sigma == estimation.noise_std_for_snr(np.array(signal, dtype=float), 10.0)

    @pytest.mark.parametrize("snr_db", [10.0, np.inf])
    def test_nan_signal_rejected(self, snr_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="signal values must be finite"):
                estimation.noise_std_for_snr(np.array([1.0, np.nan]), snr_db)

    @pytest.mark.parametrize("signal", [np.array([]), []])
    def test_empty_signal_rejected(self, signal):
        # np.mean of no values warns and reads as NaN, a non-finite signal
        with pytest.raises(ValueError, match="signal must have at least one value"):
            estimation.noise_std_for_snr(signal, 10.0)

    def test_zero_signal_convention(self):
        assert estimation.noise_std_for_snr(np.zeros(4), 10.0) == 0.0

    def test_constant_signal_noise_level(self):
        # 10 dB on a constant signal c means sigma = c / sqrt(10)
        c = 2.0
        sigma = estimation.noise_std_for_snr(np.full(6, c), 10.0)
        assert sigma == pytest.approx(c / np.sqrt(10), rel=1e-15)


class TestNodeCount:
    """An allocation made for another node count is refused, even when its
    sampled nodes are in range."""

    def test_blue_refuses_it(self, basis):
        with pytest.raises(ValueError, match="30 nodes but the allocation 3 quotas"):
            estimation.blue_estimate(basis, 3, SampleAllocation([1, 1, 1], 3), np.zeros(3))


class TestBlueEstimate:
    def test_hand_worked_bandwidth_one(self):
        # V_K = 0.5 * ones for n=4; sampling node 0 twice with y=(3,5)
        i, j = np.triu_indices(4, 1)
        L = graphs.laplacian(graphs.WeightedGraph(4, i, j, np.ones(i.size)))
        basis = spectral.eigendecompose(L)
        seq = sampling([0, 0], 4)
        est = estimation.blue_estimate(basis, 1, seq, np.array([3.0, 5.0]))
        assert est.coeff_estimate[0] == pytest.approx(8.0, abs=1e-10)
        assert np.allclose(est.signal_estimate, 4.0, atol=1e-10)

    def test_observation_of_another_length_rejected(self, basis):
        seq = sampling([0, 1, 2], basis.n)
        with pytest.raises(ValueError, match="observation length does not match sequence"):
            estimation.blue_estimate(basis, 3, seq, np.zeros(2))

    def test_noiseless_recovery(self, basis, rng):
        k = 4
        f = spectral.synthesize_bandlimited(basis, rng.standard_normal(k))
        seq = sampling(rng.choice(basis.n, size=3 * k, replace=False), basis.n)
        est = estimation.blue_estimate(basis, k, seq, f[seq.indices], f_true=f)
        assert est.error_l2 <= 1e-8

    @settings(max_examples=300, deadline=None)
    @given(design=st.integers(2, 30).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, 29), min_size=1, max_size=k - 1))))
    @example(design=(3, [0, 1]))
    def test_underdetermined_rejected(self, basis, design):
        # fewer samples M than coefficients K: the rank rule alone refuses it
        k, nodes = design
        seq = sampling(nodes, basis.n)
        with pytest.raises(RankDeficientSampling):
            estimation.blue_estimate(basis, k, seq, np.zeros(len(nodes)))

    def test_estimate_lies_in_band(self, basis, rng):
        k = 4
        f = spectral.synthesize_bandlimited(basis, rng.standard_normal(k))
        seq = sampling(rng.choice(basis.n, size=12, replace=True), basis.n)
        y = f[seq.indices] + 0.5 * rng.standard_normal(seq.budget)
        est = estimation.blue_estimate(basis, k, seq, y)
        tail = (basis.eigenvectors.T @ est.signal_estimate)[k:]
        assert np.abs(tail).max() <= 1e-10

    def test_unbiased_coefficients(self, basis, rng):
        k = 3
        coeffs = rng.standard_normal(k)
        f = spectral.synthesize_bandlimited(basis, coeffs)
        seq = sampling(rng.choice(basis.n, size=9, replace=False), basis.n)
        sigma = 0.5
        draws = 10_000
        z = rng.standard_normal((draws, seq.budget))
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        ys = f[seq.indices][:, None] + sigma * z.T
        ests = np.linalg.lstsq(V_mk, ys, rcond=None)[0]
        # the vectorized lstsq stands in for blue_estimate; spot-check equality
        spot = estimation.blue_estimate(basis, k, seq, ys[:, 0])
        assert np.allclose(spot.coeff_estimate, ests[:, 0], atol=1e-10)
        mean = ests.mean(axis=1)
        stderr = ests.std(axis=1, ddof=1) / np.sqrt(draws)
        assert (np.abs(mean - coeffs) <= 4 * stderr).all()

    @pytest.mark.parametrize("value", [
        pytest.param(3e307, id="rescaled"), pytest.param(1e200, id="square-overflows")])
    def test_overflowing_estimate_rescaled(self, value):
        # a 30-node ring sampled 8 times per node: the constant 3e307 signal's
        # one coefficient, 3e307 * sqrt(30) = 1.6e308, fits in a double, but
        # each node's sum of observations (2.4e308) does not. At 1e200 nothing
        # overflows but the coefficient's square
        basis = spectral.eigendecompose(graphs.laplacian(graphs.watts_strogatz(30, 2, 0.0, 0)))
        seq = SampleAllocation(np.full(30, 8), 240)
        f = np.full(30, value)
        y = f[seq.indices]
        scale = np.abs(y).max()
        expected = scale * np.linalg.lstsq(basis.eigenvectors[seq.indices, :1], y / scale,
                                           rcond=None)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimation.blue_estimate(basis, 1, seq, y, f_true=f)
        assert np.isfinite(est.coeff_estimate).all() and np.isfinite(est.signal_estimate).all()
        assert est.coeff_estimate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("y", [
        pytest.param(np.full(30, 1.7e308), id="estimate-beyond-range"),
        pytest.param(np.r_[np.nan, np.ones(29)], id="nan"),
        pytest.param(np.r_[np.ones(29), -np.inf], id="inf"),
    ])
    def test_estimate_beyond_double_range_rejected(self, y):
        # thirty samples on 3 ring nodes: the coefficient of thirty 1.7e308
        # values is 1.7e308 * sqrt(30), beyond the double range even rescaled
        basis = spectral.eigendecompose(graphs.laplacian(graphs.watts_strogatz(30, 2, 0.0, 0)))
        seq = SampleAllocation(np.r_[np.full(3, 10), np.zeros(27, int)], 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="within the double range"):
                estimation.blue_estimate(basis, 1, seq, y)


def sampled_gram(basis, k, seq):
    """V_S^T V_S: the inverse of the unit-noise BLUE error covariance."""
    V = basis.eigenvectors[:, :k][seq.indices]
    return V.T @ V


class TestErrorCovariance:
    """The design criteria of the sampled Gram are the scalars of the BLUE
    error covariance (V_S^T V_S)^-1: A its trace, E its largest eigenvalue,
    D its log determinant."""

    def test_bandwidth_one_trace(self, basis):
        alloc = SampleAllocation(m=np.array([3] + [0] * (basis.n - 1)), budget=3)
        G = sampled_gram(basis, 1, alloc)
        # the constant first eigenvector gives the 1x1 Gram 3 / N
        value = {c: score(G, c) for c in Criterion}
        assert value[Criterion.A_OPT] == pytest.approx(basis.n / 3, rel=1e-9)
        assert value[Criterion.E_OPT] == pytest.approx(basis.n / 3, rel=1e-9)
        assert value[Criterion.D_OPT] == pytest.approx(np.log(basis.n / 3), rel=1e-9)

    def test_identity_rows_each_once(self):
        # a 2-node graph's eigenbasis rotated away: construct directly
        basis = spectral.SpectralBasis(
            eigenvalues=np.array([0.0, 2.0]), eigenvectors=np.eye(2)
        )
        seq = sampling([0, 1], 2)
        tr = score(sampled_gram(basis, 2, seq), Criterion.A_OPT)
        assert tr == pytest.approx(2.0, abs=1e-12)

    def test_matches_monte_carlo(self, basis, rng):
        k = 3
        seq = sampling(rng.choice(basis.n, size=10, replace=True), basis.n)
        tr = score(sampled_gram(basis, k, seq), Criterion.A_OPT)
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        pinv = np.linalg.pinv(V_mk)
        z = rng.standard_normal((20_000, seq.budget))
        errs = (z @ pinv.T) ** 2
        assert errs.sum(axis=1).mean() == pytest.approx(tr, rel=0.05)

    def test_repetition_scales_trace(self, basis, rng):
        m = np.zeros(basis.n, dtype=int)
        m[rng.choice(basis.n, size=5, replace=False)] = 1
        seq1 = SampleAllocation(m=m, budget=5)
        seq3 = SampleAllocation(m=3 * m, budget=15)
        tr1 = score(sampled_gram(basis, 3, seq1), Criterion.A_OPT)
        tr3 = score(sampled_gram(basis, 3, seq3), Criterion.A_OPT)
        assert tr3 == pytest.approx(tr1 / 3, rel=1e-9)


class TestReconstructionError:
    def test_identical_signals(self):
        assert estimation.reconstruction_error(np.ones(4), np.ones(4)) == 0.0

    def test_pythagorean_example(self):
        err = estimation.reconstruction_error(np.zeros(3), np.array([3.0, 4.0, 0.0]))
        assert err == 5.0

    def test_matches_extended_precision_norm(self, rng):
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        expected = float(np.sqrt(np.sum((np.asarray(b, dtype=np.longdouble) - a) ** 2)))
        assert estimation.reconstruction_error(a, b) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimation.reconstruction_error(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("d, expected", [
        pytest.param(np.full(30, 1e307), np.sqrt(30) * 1e307, id="thirty-1e307"),
        pytest.param(np.full(30, -1e307), np.sqrt(30) * 1e307, id="negative"),
        pytest.param(np.array([1e200, 3.0, 4.0]), 1e200, id="one-huge-entry"),
        pytest.param(np.array([1e300, -1e300]), np.sqrt(2) * 1e300, id="mixed-signs"),
    ])
    def test_norm_whose_square_overflows(self, d, expected):
        # the sum of squares (3e615 for thirty 1e307) is beyond the double
        # range; the norm is not
        err = estimation.reconstruction_error(np.zeros(len(d)), d)
        assert err == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("d", [
        pytest.param(np.arange(-3.0, 5.0), id="small"),
        pytest.param(np.full(4, 1e150), id="square-near-limit"),
        pytest.param(np.full(3, 1e-100), id="tiny"),
    ])
    def test_finite_norm_keeps_numpy_bits(self, d):
        assert estimation.reconstruction_error(np.zeros(len(d)), d) == np.linalg.norm(d)

    @pytest.mark.parametrize("bad, check", [
        pytest.param(-np.inf, np.isposinf, id="inf"),
        pytest.param(np.nan, np.isnan, id="nan"),
    ])
    def test_non_finite_difference_passes_through(self, bad, check):
        assert check(estimation.reconstruction_error(np.zeros(3), np.array([1.0, bad, 2.0])))
