import numpy as np
import pytest

from gsample import estimation, graphs, spectral
from gsample.estimation import SamplingSequence


def complete_graph(n):
    i, j = np.triu_indices(n, 1)
    return graphs.WeightedGraph(n, i, j, np.ones(i.size))


def path_graph(n):
    return graphs.WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


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

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            spectral.eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_overflowing_laplacian(self):
        # two weights of 1e308 give node 1 a degree of inf
        g = graphs.WeightedGraph(3, [0, 1], [1, 2], [1e308, 1e308])
        with pytest.raises(ValueError, match="non-finite"):
            spectral.eigendecompose(graphs.laplacian(g))


class TestTransforms:
    def test_gft_of_eigenvector_is_unit_coordinate(self, small_world_basis):
        f = small_world_basis.eigenvectors[:, 0]
        coeffs = spectral.gft(small_world_basis, f)
        expected = np.zeros(small_world_basis.n)
        expected[0] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-10)

    def test_gft_of_zero(self, small_world_basis):
        assert np.allclose(spectral.gft(small_world_basis, np.zeros(40)), 0.0)

    def test_gft_matches_linear_solve(self, rng):
        basis = spectral.eigendecompose(graphs.laplacian(path_graph(6)))
        f = rng.standard_normal(6)
        expected = np.linalg.solve(basis.eigenvectors, f)
        assert np.allclose(spectral.gft(basis, f), expected, atol=1e-10)

    def test_round_trip_and_parseval(self, small_world_basis, rng):
        for _ in range(100):
            f = rng.standard_normal(small_world_basis.n)
            coeffs = spectral.gft(small_world_basis, f)
            assert np.allclose(spectral.igft(small_world_basis, coeffs), f, atol=1e-8)
            assert np.isclose(np.linalg.norm(f), np.linalg.norm(coeffs), atol=1e-8)

    def test_dimension_mismatch(self, small_world_basis):
        with pytest.raises(ValueError):
            spectral.gft(small_world_basis, np.zeros(7))
        with pytest.raises(ValueError):
            spectral.igft(small_world_basis, np.zeros(7))


class TestBandlimited:
    def test_constant_signal_for_bandwidth_one(self, small_world_basis):
        n = small_world_basis.n
        f = spectral.synthesize_bandlimited(small_world_basis, np.array([3.0]))
        assert np.allclose(f, 3.0 / np.sqrt(n), atol=1e-10)

    def test_zero_coefficients(self, small_world_basis):
        f = spectral.synthesize_bandlimited(small_world_basis, np.zeros(4))
        assert np.allclose(f, 0.0)

    def test_gft_tail_vanishes(self, geometric_basis, rng):
        f = spectral.synthesize_bandlimited(geometric_basis, rng.standard_normal(3))
        coeffs = spectral.gft(geometric_basis, f)
        assert np.abs(coeffs[3:]).max() <= 1e-10

    def test_bandwidth_out_of_range(self, small_world_basis):
        with pytest.raises(ValueError):
            spectral.synthesize_bandlimited(
                small_world_basis, np.zeros(small_world_basis.n + 1)
            )


@pytest.mark.parametrize("bandwidth", [2.0, 1.5, True, np.float64(2.0), "2"])
def test_bandwidth_must_be_an_integer(small_world_basis, bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be an integer"):
        spectral.design_rows(small_world_basis, bandwidth)
    seq = SamplingSequence(np.arange(4))
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
