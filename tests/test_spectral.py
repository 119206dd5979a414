import numpy as np
import pytest

from conftest import sampling
from gsample import estimation, graphs, spectral


def complete_graph(n):
    i, j = np.triu_indices(n, 1)
    return graphs.WeightedGraph(n, i, j, np.ones(i.size))


def path_graph(n):
    return graphs.WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


# graph families for the basis contract: conftest fixtures by name, plus a
# path (simple spectrum) and a complete graph (one eigenvalue of multiplicity N-1)
GRAPHS = ["ring_graph", "small_world", "geometric_graph", "path", "complete"]


def basis_of(request, name):
    g = {"path": lambda: path_graph(6), "complete": lambda: complete_graph(5)}.get(
        name, lambda: request.getfixturevalue(name))()
    return spectral.eigendecompose(graphs.laplacian(g))


class TestEigendecompose:
    def test_complete_graph_spectrum(self):
        basis = spectral.eigendecompose(graphs.laplacian(complete_graph(4)))
        assert np.allclose(basis.eigenvalues, [0, 4, 4, 4], atol=1e-10)

    def test_single_edge(self):
        basis = spectral.eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(basis.eigenvalues, [0, 2], atol=1e-12)
        assert np.allclose(basis.eigenvectors[:, 0], np.full(2, 1 / np.sqrt(2)))

    def test_connected_graph_has_simple_zero(self, small_world_basis):
        assert np.sum(small_world_basis.eigenvalues < 1e-8) == 1

    def test_residual_and_orthogonality(self, small_world, geometric_graph):
        for g in (small_world, geometric_graph):
            L = graphs.laplacian(g)
            basis = spectral.eigendecompose(L)
            V, w = basis.eigenvectors, basis.eigenvalues
            assert np.abs(V.T @ V - np.eye(g.n)).max() <= 1e-8
            recon = V @ np.diag(w) @ V.T
            assert np.abs(L - recon).max() <= 1e-7 * max(1.0, np.abs(L).max())
            assert abs(w[0]) <= 1e-8 and (w >= -1e-8).all()

    def test_bitwise_deterministic(self, small_world):
        L = graphs.laplacian(small_world)
        a = spectral.eigendecompose(L)
        b = spectral.eigendecompose(L)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_basis_is_orthonormal_both_ways(self, request, name, rng):
        # V^T V = I and V V^T = I: analysis V^T f and synthesis V c invert each
        # other, and V^T preserves energy (Parseval)
        basis = basis_of(request, name)
        V, n = basis.eigenvectors, basis.n
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-10
        assert np.abs(V @ V.T - np.eye(n)).max() <= 1e-10
        for _ in range(20):
            f = rng.standard_normal(n)
            coeffs = V.T @ f
            assert np.allclose(V @ coeffs, f, atol=1e-10)
            assert np.isclose(np.linalg.norm(coeffs), np.linalg.norm(f), atol=1e-10)
        assert (np.diff(basis.eigenvalues) >= 0).all()

    @pytest.mark.parametrize("name", GRAPHS)
    def test_sign_convention(self, request, name):
        # each column's largest-magnitude entry, lowest index on ties, is >= 0
        V = basis_of(request, name).eigenvectors
        pivot = np.argmax(np.abs(V), axis=0)
        assert (V[pivot, np.arange(V.shape[1])] >= 0).all()

    def test_output_is_read_only(self, small_world_basis):
        for a in (small_world_basis.eigenvalues, small_world_basis.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            spectral.eigendecompose(np.zeros(shape))

    def test_rejects_nan_entry(self):
        L = np.array([[1.0, -1.0], [-1.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            spectral.eigendecompose(L)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            spectral.eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_overflowing_laplacian(self):
        # two weights of 1e308 give node 1 a degree of inf
        g = graphs.WeightedGraph(3, [0, 1], [1, 2], [1e308, 1e308])
        with pytest.raises(ValueError, match="non-finite"):
            spectral.eigendecompose(graphs.laplacian(g))


class TestBandlimited:
    def test_constant_signal_for_bandwidth_one(self, small_world_basis):
        n = small_world_basis.n
        f = spectral.synthesize_bandlimited(small_world_basis, np.array([3.0]))
        assert np.allclose(f, 3.0 / np.sqrt(n), atol=1e-10)

    def test_zero_coefficients(self, small_world_basis):
        f = spectral.synthesize_bandlimited(small_world_basis, np.zeros(4))
        assert np.allclose(f, 0.0)

    def test_tail_above_band_vanishes(self, geometric_basis, rng):
        f = spectral.synthesize_bandlimited(geometric_basis, rng.standard_normal(3))
        coeffs = geometric_basis.eigenvectors.T @ f
        assert np.abs(coeffs[3:]).max() <= 1e-10

    @pytest.mark.parametrize("k", [1, 3, 7, 40])
    def test_low_band_coefficients_recovered(self, small_world_basis, rng, k):
        # V^T (V_K c) is c on the first K indices and zero above them
        coeffs = rng.standard_normal(k)
        f = spectral.synthesize_bandlimited(small_world_basis, coeffs)
        spectrum = small_world_basis.eigenvectors.T @ f
        assert np.allclose(spectrum[:k], coeffs, atol=1e-10)
        assert np.abs(spectrum[k:]).max(initial=0.0) <= 1e-10

    def test_bandwidth_out_of_range(self, small_world_basis):
        with pytest.raises(ValueError):
            spectral.synthesize_bandlimited(
                small_world_basis, np.zeros(small_world_basis.n + 1)
            )

    def test_empty_coefficients_rejected(self, small_world_basis):
        with pytest.raises(ValueError, match=r"bandwidth 0 out of range \[1, 40\]"):
            spectral.synthesize_bandlimited(small_world_basis, np.zeros(0))


@pytest.mark.parametrize("bandwidth", [2.0, 1.5, True, np.float64(2.0), "2"])
def test_bandwidth_must_be_an_integer(small_world_basis, bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be an integer"):
        spectral.design_rows(small_world_basis, bandwidth)
    seq = sampling(np.arange(4), small_world_basis.n)
    with pytest.raises(ValueError, match="bandwidth must be an integer"):
        estimation.blue_estimate(small_world_basis, bandwidth, seq, np.zeros(4))


class TestDesignRows:
    def test_rows_resolve_identity(self, geometric_basis):
        rows = spectral.design_rows(geometric_basis, 5)
        gram = rows.T @ rows
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_bandwidth_one_rows_are_constant(self, small_world_basis):
        rows = spectral.design_rows(small_world_basis, 1)
        assert np.allclose(np.abs(rows), 1 / np.sqrt(small_world_basis.n), atol=1e-10)

    def test_path_graph_rows_match_eigenvectors(self):
        basis = spectral.eigendecompose(graphs.laplacian(path_graph(4)))
        rows = spectral.design_rows(basis, 2)
        assert np.array_equal(rows, basis.eigenvectors[:, :2])

    def test_warns_on_degenerate_cut(self):
        basis = spectral.eigendecompose(graphs.laplacian(complete_graph(4)))
        with pytest.warns(UserWarning, match="not unique"):
            spectral.design_rows(basis, 2)
