"""Noise levels and best-linear-unbiased reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import SampleAllocation
from .exceptions import RankDeficientSampling
from .spectral import SpectralBasis, _band, _rank_deficient, _sampled_eigh


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
    sigma = 0. ValueError for an SNR of NaN or -inf or one that leaves sigma
    infinite, an empty signal, a signal with a NaN and a signal whose power
    is beyond the double range.
    """
    ratio = _snr_power_ratio(snr_db)
    if np.size(signal) == 0:
        raise ValueError("signal must have at least one value")
    with np.errstate(over="ignore"):
        power = float(np.mean(np.square(np.asarray(signal, dtype=float))))
    if math.isnan(power):
        raise ValueError("signal values must be finite")
    if power == 0.0 or ratio == np.inf:
        return 0.0
    if power == np.inf:
        raise ValueError("signal power (mean square) is beyond the double range")
    if ratio == 0.0 or power / ratio == np.inf:
        raise ValueError(f"SNR {snr_db} dB gives this signal a non-finite noise level")
    return float(np.sqrt(power / ratio))


def blue_estimate(
    basis: SpectralBasis,
    bandwidth: int,
    seq: SampleAllocation,
    y: np.ndarray,
    f_true: np.ndarray | None = None,
) -> EstimateResult:
    """Least-squares estimate of the bandlimited coefficients and signal. ValueError
    unless the allocation has one quota per node of the basis and a finite sampled
    Gram, and unless `y` is finite with an estimate inside the double range."""
    y = np.asarray(y, dtype=float)
    if y.shape != (seq.budget,):
        raise ValueError("observation length does not match sequence")
    # least squares through the normal equations over the sampled nodes; the
    # allocation keeps the factorization of its Gram, and the rank test runs every call
    V_K = _band(basis, bandwidth)
    w, P, starts = _sampled_eigh(V_K, seq)
    if _rank_deficient(w):
        raise RankDeficientSampling(f"sampled rows have numerical rank below {bandwidth}")
    # a finite estimate keeps its bits; one that overflows is solved again on
    # y / max|y| and rescaled. V_K has orthonormal columns, so a finite signal
    # means finite coefficients, and |signal_i| <= |c|: a finite c.c (|c| below
    # 1.3e154) rules out overflow without the elementwise test
    with np.errstate(all="ignore"):
        coeffs = P @ np.add.reduceat(y, starts)
        signal = V_K @ coeffs
        if not math.isfinite(coeffs.dot(coeffs)) and not np.isfinite(signal).all():
            scale = np.abs(y).max()  # not finite unless y is
            if np.isfinite(scale):
                coeffs = scale * (P @ np.add.reduceat(y / scale, starts))
                signal = V_K @ coeffs
            if not np.isfinite(signal).all():
                raise ValueError("observations must be finite and give an estimate "
                                 "within the double range")
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
