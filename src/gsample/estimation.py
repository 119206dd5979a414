"""Sampling with noise and best-linear-unbiased reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SampleAllocation
from .exceptions import RankDeficientSampling
from .spectral import SpectralBasis

_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class SamplingSequence:
    """Ordered node indices to measure; repeats allowed."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=int)
        if idx.ndim != 1 or len(idx) < 1:
            raise ValueError("sampling sequence must be a nonempty vector")
        if (idx < 0).any():
            raise ValueError("negative node index")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class NoisySamples:
    y: np.ndarray
    noise_std: float


@dataclass(frozen=True)
class EstimateResult:
    coeff_estimate: np.ndarray
    signal_estimate: np.ndarray
    error_l2: float | None = None


def sequence_from_allocation(alloc: SampleAllocation) -> SamplingSequence:
    """Expand quotas into a sequence: node i repeated m_i times, ascending."""
    return SamplingSequence(np.repeat(np.arange(len(alloc.m)), alloc.m))


def noise_std_for_snr(signal: np.ndarray, snr_db: float) -> float:
    """Noise standard deviation giving the requested SNR in dB.

    Signal power is the mean square over the whole signal, so the noise level
    depends only on the signal, not on which nodes a method samples; a zero
    signal (or snr_db = inf) yields sigma = 0.
    """
    if np.isinf(snr_db):
        return 0.0
    power = float(np.mean(np.square(signal)))
    if power == 0.0:
        return 0.0
    return float(np.sqrt(power / 10.0 ** (snr_db / 10.0)))


def sample_with_noise(
    f: np.ndarray, seq: SamplingSequence, snr_db: float, seed=None, noise=None
) -> NoisySamples:
    """Observe f at the sequence nodes with additive iid Gaussian noise.

    `noise`, if given, is a pre-drawn standard-normal vector of length M
    (used by the benchmark to share one realization across methods);
    otherwise the noise is drawn from `seed`.
    """
    f = np.asarray(f, dtype=float)
    idx = seq.indices
    if idx.max() >= len(f):
        raise ValueError("sampling index out of range for signal")
    sampled = f[idx]
    sigma = noise_std_for_snr(f, snr_db)
    if noise is None:
        noise = np.random.default_rng(seed).standard_normal(len(idx))
    else:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != idx.shape:
            raise ValueError("noise vector length does not match sequence")
    return NoisySamples(y=sampled + sigma * noise, noise_std=sigma)


def _sampled_rows(basis: SpectralBasis, bandwidth: int, seq: SamplingSequence):
    if not 1 <= bandwidth <= basis.n:
        raise ValueError(f"bandwidth {bandwidth} out of range")
    if seq.indices.max() >= basis.n:
        raise ValueError("sampling index out of range for basis")
    return basis.eigenvectors[:, :bandwidth][seq.indices, :]


def _checked_gram_eigh(V_mk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, Q) of the Gram matrix V^T V, or raise
    RankDeficientSampling when the sampled rows have numerical rank below K."""
    w, Q = np.linalg.eigh(V_mk.T @ V_mk)
    if len(V_mk) < V_mk.shape[1] or w[0] <= _RANK_RTOL * max(w[-1], 1e-300):
        raise RankDeficientSampling(
            f"sampled rows have numerical rank below {V_mk.shape[1]}"
        )
    return w, Q


def blue_estimate(
    basis: SpectralBasis,
    bandwidth: int,
    seq: SamplingSequence,
    y: np.ndarray,
    f_true: np.ndarray | None = None,
) -> EstimateResult:
    """Least-squares estimate of the bandlimited coefficients and signal."""
    y = np.asarray(y, dtype=float)
    if y.shape != seq.indices.shape:
        raise ValueError("observation length does not match sequence")
    V_mk = _sampled_rows(basis, bandwidth, seq)
    # least squares through the normal equations
    w, Q = _checked_gram_eigh(V_mk)
    coeffs = Q @ ((Q.T @ (V_mk.T @ y)) / w)
    signal = basis.eigenvectors[:, :bandwidth] @ coeffs
    err = None
    if f_true is not None:
        err = reconstruction_error(f_true, signal)
    return EstimateResult(coeff_estimate=coeffs, signal_estimate=signal, error_l2=err)


def error_covariance_scalars(
    basis: SpectralBasis, bandwidth: int, seq_or_alloc
) -> tuple[float, float, float]:
    """(trace, largest eigenvalue, log det) of the unit-noise error covariance
    (sum_t u_{S_t} u_{S_t}^T)^{-1}."""
    if isinstance(seq_or_alloc, SampleAllocation):
        seq = sequence_from_allocation(seq_or_alloc)
    else:
        seq = seq_or_alloc
    w, _ = _checked_gram_eigh(_sampled_rows(basis, bandwidth, seq))
    return (
        float(np.sum(1.0 / w)),
        float(1.0 / w[0]),
        float(-np.sum(np.log(w))),
    )


def reconstruction_error(f_true: np.ndarray, f_est: np.ndarray) -> float:
    """Euclidean norm of the reconstruction error."""
    f_true = np.asarray(f_true, dtype=float)
    f_est = np.asarray(f_est, dtype=float)
    if f_true.shape != f_est.shape:
        raise ValueError("signal lengths differ")
    return float(np.linalg.norm(f_est - f_true))
