"""Sampling with noise and best-linear-unbiased reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import SampleAllocation
from .exceptions import RankDeficientSampling
from .spectral import SpectralBasis, _band, _rank_deficient, _sampled_eigh


@dataclass(frozen=True)
class NoisySamples:
    y: np.ndarray
    noise_std: float


@dataclass(frozen=True)
class EstimateResult:
    coeff_estimate: np.ndarray
    signal_estimate: np.ndarray
    error_l2: float | None = None


def _snr_power_ratio(snr_db: float) -> float:
    """The power ratio 10^(snr_db/10) of an SNR in dB, inf where it
    overflows; ValueError for NaN and -inf."""
    snr_db = float(snr_db)
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"SNR must be a number above -inf dB, got {snr_db}")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return np.inf


def noise_std_for_snr(signal: np.ndarray, snr_db: float) -> float:
    """Noise standard deviation giving the requested SNR in dB.

    Signal power is the mean square over the whole signal, so the noise level
    depends only on the signal, not on which nodes a method samples; a zero
    signal, or an SNR whose power ratio overflows (as +inf does), yields
    sigma = 0. ValueError for NaN, -inf, an SNR that leaves sigma infinite
    and a signal whose power is beyond the double range.
    """
    ratio = _snr_power_ratio(snr_db)
    with np.errstate(over="ignore"):
        power = float(np.mean(np.square(np.asarray(signal, dtype=float))))
    if power == 0.0 or ratio == np.inf:
        return 0.0
    if power == np.inf:
        raise ValueError("signal power (mean square) is beyond the double range")
    if ratio == 0.0 or power / ratio == np.inf:
        raise ValueError(f"SNR {snr_db} dB gives this signal a non-finite noise level")
    return float(np.sqrt(power / ratio))


def sample_with_noise(
    f: np.ndarray, seq: SampleAllocation, snr_db: float, seed=None
) -> NoisySamples:
    """Observe f at `seq.indices`, each node m_i times, with additive iid
    Gaussian noise drawn from `seed`. ValueError unless f is finite and has
    one value per quota."""
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("signal values must be finite")
    if f.shape != seq.m.shape:
        raise ValueError(f"signal has {f.size} values but the allocation {len(seq.m)} quotas")
    idx = seq.indices
    sigma = noise_std_for_snr(f, snr_db)
    noise = np.random.default_rng(seed).standard_normal(len(idx))
    return NoisySamples(y=f[idx] + sigma * noise, noise_std=sigma)


def blue_estimate(
    basis: SpectralBasis,
    bandwidth: int,
    seq: SampleAllocation,
    y: np.ndarray,
    f_true: np.ndarray | None = None,
) -> EstimateResult:
    """Least-squares estimate of the bandlimited coefficients and signal. ValueError
    unless the allocation has one quota per node of the basis and a finite sampled Gram."""
    y = np.asarray(y, dtype=float)
    if y.shape != seq.indices.shape:
        raise ValueError("observation length does not match sequence")
    # least squares through the normal equations; a repeated allocation reuses
    # the memoized factorization of its Gram, the rank test runs every call
    V_K = _band(basis, bandwidth)
    V_mk, w, Q = _sampled_eigh(V_K, seq)
    if len(V_mk) < bandwidth or _rank_deficient(w):
        raise RankDeficientSampling(f"sampled rows have numerical rank below {bandwidth}")
    coeffs = Q @ ((Q.T @ (V_mk.T @ y)) / w)
    signal = V_K @ coeffs
    err = None if f_true is None else reconstruction_error(f_true, signal)
    return EstimateResult(coeff_estimate=coeffs, signal_estimate=signal, error_l2=err)


def reconstruction_error(f_true: np.ndarray, f_est: np.ndarray) -> float:
    """Euclidean norm of the reconstruction error."""
    f_true = np.asarray(f_true, dtype=float)
    f_est = np.asarray(f_est, dtype=float)
    if f_true.shape != f_est.shape:
        raise ValueError("signal lengths differ")
    d = f_est - f_true
    # np.linalg.norm's own sum of squares, without its per-call overhead; it
    # overflows once the norm passes about 1.3e154, and then d is max-scaled
    with np.errstate(over="ignore"):
        norm = math.sqrt(d.dot(d))
        if norm == math.inf and (s := np.abs(d).max()) < math.inf:
            norm = s * np.linalg.norm(d / s)
    return float(norm)
