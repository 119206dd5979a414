import inspect
import warnings

import numpy as np
import pytest

from gsample import design, estimation, graphs, spectral
from gsample.design import Criterion, SampleAllocation
from gsample.estimation import SamplingSequence
from gsample.exceptions import RankDeficientSampling


@pytest.fixture(scope="module")
def basis():
    g = graphs.random_geometric(30, 0.5, 0.25, seed=3)
    return spectral.eigendecompose(graphs.laplacian(g))


class TestSamplingSequence:
    @pytest.mark.parametrize(
        "indices",
        [
            [1.5, 2.9], [0.0, np.nan], [1.0, np.inf], [-np.inf, 2.0],
            ["2", "0"], [True, False], np.array([1 + 0j]), np.array([1, 2], dtype=object),
        ],
    )
    def test_non_integral_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="node indices must be integers"):
            SamplingSequence(indices)

    def test_integral_floats_accepted(self):
        seq = SamplingSequence([1.0, 2.0, 2.0])
        assert seq.indices.dtype.kind == "i"
        assert seq.indices.tolist() == [1, 2, 2]

    def test_integer_input_copied_and_frozen(self):
        idx = np.array([3, 1, 3], dtype=np.int32)
        seq = SamplingSequence(idx)
        idx[0] = 0
        assert seq.indices.tolist() == [3, 1, 3]
        assert not seq.indices.flags.writeable


class TestSequenceFromAllocation:
    def test_expands_in_node_order(self):
        alloc = SampleAllocation(m=np.array([2, 0, 1]), budget=3)
        seq = estimation.sequence_from_allocation(alloc)
        assert np.array_equal(seq.indices, [0, 0, 2])

    def test_point_mass(self):
        alloc = SampleAllocation(m=np.array([0, 4, 0]), budget=4)
        seq = estimation.sequence_from_allocation(alloc)
        assert np.array_equal(seq.indices, [1, 1, 1, 1])

    def test_round_trip_counts(self, rng):
        m = rng.multinomial(12, np.ones(5) / 5)
        seq = estimation.sequence_from_allocation(SampleAllocation(m=m, budget=12))
        assert np.array_equal(np.bincount(seq.indices, minlength=5), m)


class TestSampleWithNoise:
    def test_infinite_snr_is_exact(self, rng):
        f = rng.standard_normal(10)
        seq = SamplingSequence(np.array([0, 3, 3, 7]))
        samples = estimation.sample_with_noise(f, seq, np.inf, seed=1)
        assert np.array_equal(samples.y, f[[0, 3, 3, 7]])
        assert samples.noise_std == 0.0

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

    def test_zero_signal_convention(self):
        seq = SamplingSequence(np.array([0, 1]))
        samples = estimation.sample_with_noise(np.zeros(4), seq, 10.0, seed=1)
        assert np.array_equal(samples.y, [0.0, 0.0])

    def test_constant_signal_noise_level(self):
        # 10 dB on a constant signal c means sigma = c / sqrt(10)
        c = 2.0
        f = np.full(6, c)
        seq = SamplingSequence(np.arange(6))
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [
                estimation.sample_with_noise(f, seq, 10.0, seed=rng).y - c
                for _ in range(20000)
            ]
        )
        assert abs(draws.std() - c / np.sqrt(10)) < 0.02 * c / np.sqrt(10)

    def test_noise_drawn_from_seed_only(self):
        assert list(inspect.signature(estimation.sample_with_noise).parameters) == [
            "f", "seq", "snr_db", "seed"]
        f = np.arange(5.0)
        seq = SamplingSequence(np.array([1, 2]))
        z = np.random.default_rng(7).standard_normal(2)
        samples = estimation.sample_with_noise(f, seq, 0.0, seed=7)
        assert np.array_equal(samples.y, f[[1, 2]] + estimation.noise_std_for_snr(f, 0.0) * z)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, value):
        f = np.ones(4)
        f[2] = value
        with pytest.raises(ValueError, match="finite"):
            estimation.sample_with_noise(f, SamplingSequence([0, 1]), 10.0, seed=1)


class TestBlueEstimate:
    def test_hand_worked_bandwidth_one(self):
        # V_K = 0.5 * ones for n=4; sampling node 0 twice with y=(3,5)
        i, j = np.triu_indices(4, 1)
        L = graphs.laplacian(graphs.WeightedGraph(4, i, j, np.ones(i.size)))
        basis = spectral.eigendecompose(L)
        seq = SamplingSequence(np.array([0, 0]))
        est = estimation.blue_estimate(basis, 1, seq, np.array([3.0, 5.0]))
        assert est.coeff_estimate[0] == pytest.approx(8.0, abs=1e-10)
        assert np.allclose(est.signal_estimate, 4.0, atol=1e-10)

    def test_noiseless_recovery(self, basis, rng):
        k = 4
        f = spectral.synthesize_bandlimited(basis, rng.standard_normal(k))
        seq = SamplingSequence(rng.choice(basis.n, size=3 * k, replace=False))
        est = estimation.blue_estimate(basis, k, seq, f[seq.indices], f_true=f)
        assert est.error_l2 <= 1e-8

    def test_underdetermined_rejected(self, basis):
        seq = SamplingSequence(np.array([0, 1]))
        with pytest.raises(RankDeficientSampling):
            estimation.blue_estimate(basis, 3, seq, np.zeros(2))

    def test_estimate_lies_in_band(self, basis, rng):
        k = 4
        f = spectral.synthesize_bandlimited(basis, rng.standard_normal(k))
        seq = SamplingSequence(rng.choice(basis.n, size=12, replace=True))
        y = estimation.sample_with_noise(f, seq, 5.0, seed=2).y
        est = estimation.blue_estimate(basis, k, seq, y)
        tail = spectral.gft(basis, est.signal_estimate)[k:]
        assert np.abs(tail).max() <= 1e-10

    def test_unbiased_coefficients(self, basis, rng):
        k = 3
        coeffs = rng.standard_normal(k)
        f = spectral.synthesize_bandlimited(basis, coeffs)
        seq = SamplingSequence(rng.choice(basis.n, size=9, replace=False))
        sigma = 0.5
        draws = 10_000
        z = rng.standard_normal((draws, len(seq)))
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        ys = f[seq.indices][:, None] + sigma * z.T
        ests = np.linalg.lstsq(V_mk, ys, rcond=None)[0]
        # the vectorized lstsq stands in for blue_estimate; spot-check equality
        spot = estimation.blue_estimate(basis, k, seq, ys[:, 0])
        assert np.allclose(spot.coeff_estimate, ests[:, 0], atol=1e-10)
        mean = ests.mean(axis=1)
        stderr = ests.std(axis=1, ddof=1) / np.sqrt(draws)
        assert (np.abs(mean - coeffs) <= 4 * stderr).all()


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
        G = sampled_gram(basis, 1, estimation.sequence_from_allocation(alloc))
        # the constant first eigenvector gives the 1x1 Gram 3 / N
        value = {c: design.criterion_value(G, c) for c in Criterion}
        assert value[Criterion.A_OPT] == pytest.approx(basis.n / 3, rel=1e-9)
        assert value[Criterion.E_OPT] == pytest.approx(basis.n / 3, rel=1e-9)
        assert value[Criterion.D_OPT] == pytest.approx(np.log(basis.n / 3), rel=1e-9)

    def test_identity_rows_each_once(self):
        # a 2-node graph's eigenbasis rotated away: construct directly
        basis = spectral.SpectralBasis(
            eigenvalues=np.array([0.0, 2.0]), eigenvectors=np.eye(2)
        )
        seq = SamplingSequence(np.array([0, 1]))
        tr = design.criterion_value(sampled_gram(basis, 2, seq), Criterion.A_OPT)
        assert tr == pytest.approx(2.0, abs=1e-12)

    def test_matches_monte_carlo(self, basis, rng):
        k = 3
        seq = SamplingSequence(rng.choice(basis.n, size=10, replace=True))
        tr = design.criterion_value(sampled_gram(basis, k, seq), Criterion.A_OPT)
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        pinv = np.linalg.pinv(V_mk)
        z = rng.standard_normal((20_000, len(seq)))
        errs = (z @ pinv.T) ** 2
        assert errs.sum(axis=1).mean() == pytest.approx(tr, rel=0.05)

    def test_repetition_scales_trace(self, basis, rng):
        m = np.zeros(basis.n, dtype=int)
        m[rng.choice(basis.n, size=5, replace=False)] = 1
        seq1 = estimation.sequence_from_allocation(SampleAllocation(m=m, budget=5))
        seq3 = estimation.sequence_from_allocation(SampleAllocation(m=3 * m, budget=15))
        tr1 = design.criterion_value(sampled_gram(basis, 3, seq1), Criterion.A_OPT)
        tr3 = design.criterion_value(sampled_gram(basis, 3, seq3), Criterion.A_OPT)
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
