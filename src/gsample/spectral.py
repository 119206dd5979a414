"""Laplacian eigenbasis, bandlimited synthesis, and the factorization of a
sampled design's Gram matrix, kept on its allocation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

_DEGENERACY_TOL = 1e-8
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
    # exact equality first: graphs.laplacian is symmetric bit for bit, and
    # array_equal skips allclose's N x N temporaries
    if not (np.array_equal(L, L.T) or np.allclose(L, L.T, atol=1e-10)):
        raise ValueError("Laplacian must be symmetric")
    w, V = np.linalg.eigh(L)
    # fix signs: largest-|entry| of each column nonnegative
    pivot = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[pivot, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V *= signs
    w.flags.writeable = V.flags.writeable = False
    return SpectralBasis(eigenvalues=w, eigenvectors=V)


def synthesize_bandlimited(basis: SpectralBasis, coeffs: np.ndarray) -> np.ndarray:
    """Signal with the given low-frequency coefficients: f = V_K coeffs.

    Bandwidth is len(coeffs); V^T f vanishes at indices >= K.
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


def _sampled_eigh(V_K: np.ndarray, alloc):
    """For the rows U = V_K[S] of the nodes S that `alloc` samples, the ascending eigenvalues w of
    G = U^T diag(m_S) U, P = G^-1 U^T and where each node's run starts in `alloc.indices`, so
    P @ np.add.reduceat(y, starts) is least squares on y observed there; read-only and kept on
    `alloc` while a later U has the same bits (not -0.0 for 0.0). ValueError, not kept and with
    no warning first, unless `alloc` has one quota per row of V_K and the Gram is finite."""
    if len(alloc.m) != len(V_K):
        raise ValueError(f"basis has {len(V_K)} nodes but the allocation {len(alloc.m)} quotas")
    S, kept_U, kept = alloc.__dict__.get("_eigh") or (np.flatnonzero(alloc.m), None, None)
    U = V_K[S]
    if kept is not None and kept_U.tobytes() == U.tobytes():
        return kept
    with np.errstate(all="ignore"):  # non-finite G is refused below, singular G by the rank rule
        G = U.T @ (alloc.m[S, None] * U)
        if not np.isfinite(G).all():
            raise ValueError("sampled Gram is not finite: non-finite or overflowing rows")
        w, Q = np.linalg.eigh(G)
        P = Q @ ((Q.T @ U.T) / w[:, None])
    starts = (np.cumsum(alloc.m) - alloc.m)[S]
    w.flags.writeable = P.flags.writeable = starts.flags.writeable = False
    alloc.__dict__["_eigh"] = S, U, (w, P, starts)
    return alloc.__dict__["_eigh"][2]


def _rank_deficient(w: np.ndarray):
    """The rank rule on ascending eigenvalues `w`, or on each row of a stack
    of them; true if lambda_max <= 0 or an end is NaN. `w.T[0]` is cheap on 1-D `w`."""
    return ~(w.T[0] > _SINGULARITY_RTOL * w.T[-1])
