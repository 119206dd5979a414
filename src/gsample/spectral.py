"""Laplacian eigenbasis, graph Fourier transform, bandlimited synthesis, and
the memoized eigensolver for sampled Gram matrices."""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

_DEGENERACY_TOL = 1e-8
_EIGEN_MEMO_SIZE = 32
_SINGULARITY_RTOL = 1e-12  # rank rule: singular unless lambda_min > rtol * lambda_max


@dataclass(frozen=True)
class SpectralBasis:
    """Eigendecomposition of a graph Laplacian.

    eigenvalues are sorted ascending; column k of eigenvectors pairs with
    eigenvalue k. Signs are fixed so each column's largest-magnitude entry
    (lowest index on ties) is nonnegative, making output reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


def _integer(value, what: str) -> int:
    """`value` as an int; ValueError unless it is an integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _band(basis: SpectralBasis, bandwidth: int) -> np.ndarray:
    """V_K, the first `bandwidth` eigenvectors, as a view; bandwidth an integer in [1, N]."""
    bandwidth = _integer(bandwidth, "bandwidth")
    if not 1 <= bandwidth <= basis.n:
        raise ValueError(f"bandwidth {bandwidth} out of range [1, {basis.n}]")
    return basis.eigenvectors[:, :bandwidth]


def eigendecompose(L: np.ndarray) -> SpectralBasis:
    """Full symmetric eigendecomposition with the deterministic sign convention."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    if not np.isfinite(L).all():
        raise ValueError("Laplacian has a non-finite entry")
    if not np.allclose(L, L.T, atol=1e-10):
        raise ValueError("Laplacian must be symmetric")
    w, V = np.linalg.eigh(L)
    # fix signs: largest-|entry| of each column nonnegative
    pivot = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[pivot, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs
    w.flags.writeable = V.flags.writeable = False
    return SpectralBasis(eigenvalues=w, eigenvectors=V)


def gft(basis: SpectralBasis, f: np.ndarray) -> np.ndarray:
    """Forward graph Fourier transform: coefficients V^T f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (basis.n,):
        raise ValueError(f"signal length {f.shape} does not match n={basis.n}")
    return basis.eigenvectors.T @ f


def igft(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform: signal V coeffs."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n,):
        raise ValueError(
            f"coefficient length {coeffs.shape} does not match n={basis.n}"
        )
    return basis.eigenvectors @ coeffs


def synthesize_bandlimited(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Signal with the given low-frequency coefficients: f = V_K coeffs.

    Bandwidth is len(coeffs); the resulting GFT vanishes at indices >= K.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return _band(basis, coeffs.shape[0]) @ coeffs


def design_rows(basis: SpectralBasis, k: int) -> np.ndarray:
    """The N x K matrix whose row i is node i's row of the first K eigenvectors.

    Warns when eigenvalues K-1 and K coincide: the low-frequency subspace is
    then not unique and designs may differ across eigensolvers.
    """
    V_K = _band(basis, k)
    w = basis.eigenvalues
    if k < basis.n and abs(w[k] - w[k - 1]) <= _DEGENERACY_TOL:
        warnings.warn(
            f"eigenvalue {k - 1} and {k} coincide within {_DEGENERACY_TOL}; "
            "the bandlimited subspace is not unique",
            stacklevel=2,
        )
    return V_K.copy()


@functools.lru_cache(maxsize=_EIGEN_MEMO_SIZE)
def _memo_eigh(gram: bytes, k: int):
    G = np.frombuffer(gram).reshape(k, k)
    if not np.isfinite(G).all():
        raise ValueError("sampled Gram is not finite: non-finite or overflowing rows")
    w, Q = np.linalg.eigh(G)
    w.flags.writeable = Q.flags.writeable = False
    return w, Q


def _sampled_eigh(V_K: np.ndarray, indices: np.ndarray):
    """V_S = V_K[indices] and the read-only eigh (w, Q) of V_S^T V_S, memoized
    on the Gram's bytes (the last _EIGEN_MEMO_SIZE), so an allocation's rank
    check and BLUE on its `indices` factor it once. Errors are not cached."""
    if indices.size and indices.max() >= len(V_K):
        raise ValueError("sampling index out of range for basis")
    V_S = V_K[indices]
    G = V_S.T @ V_S
    return (V_S, *_memo_eigh(G.tobytes(), G.shape[0]))


def _rank_deficient(w: np.ndarray):
    """The rank rule on ascending eigenvalues `w`, or on each row of a stack
    of them; true if lambda_max <= 0 or an end is NaN. `w.T[0]` is cheap on 1-D `w`."""
    return ~(w.T[0] > _SINGULARITY_RTOL * w.T[-1])
