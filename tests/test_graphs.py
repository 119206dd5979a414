import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import graphs
from gsample.exceptions import EdgeListFormatError


def degrees(g):
    d = np.zeros(g.n, dtype=int)
    for i, j, _ in g.edges:
        d[i] += 1
        d[j] += 1
    return d


class TestWattsStrogatz:
    def test_beta_zero_is_ring_lattice(self):
        g = graphs.watts_strogatz(10, 2, 0.0, seed=3)
        assert (degrees(g) == 4).all()
        assert len(g.edges) == 20

    def test_edge_count_preserved_under_rewiring(self):
        g = graphs.watts_strogatz(1000, 5, 0.1, seed=7)
        assert len(g.edges) == 5000

    def test_full_rewiring_stays_valid(self):
        g = graphs.watts_strogatz(10, 2, 1.0, seed=3)
        # WeightedGraph construction rejects self-loops and duplicates
        assert len(g.edges) == 20
        assert all(i != j for i, j, _ in g.edges)

    def test_deterministic_given_seed(self):
        a = graphs.watts_strogatz(50, 3, 0.3, seed=9)
        b = graphs.watts_strogatz(50, 3, 0.3, seed=9)
        assert a.edges == b.edges

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            graphs.watts_strogatz(4, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            graphs.watts_strogatz(10, 2, 1.5, seed=0)


class TestRandomGeometric:
    def test_large_radius_gives_complete_graph(self):
        g = graphs.random_geometric(5, 1.5, 0.5, seed=1)
        assert len(g.edges) == 10

    def test_weights_in_unit_interval(self):
        g = graphs.random_geometric(500, 0.6, 0.3, seed=11)
        w = np.array([e[2] for e in g.edges])
        assert (w > 0).all() and (w <= 1).all()

    def test_weight_monotone_in_distance(self, rng):
        g = graphs.random_geometric(30, 0.5, 0.25, seed=2)
        # reconstruct: larger weight means smaller distance
        w = sorted(e[2] for e in g.edges)
        d = [np.sqrt(-2 * 0.25**2 * np.log(x)) for x in w]
        assert all(d[i] >= d[i + 1] - 1e-12 for i in range(len(d) - 1))

    def test_deterministic_given_seed(self):
        a = graphs.random_geometric(40, 0.5, 0.25, seed=4)
        b = graphs.random_geometric(40, 0.5, 0.25, seed=4)
        assert a.edges == b.edges


class TestLaplacian:
    def test_single_edge(self):
        g = graphs.WeightedGraph(2, ((0, 1, 1.0),))
        assert np.array_equal(graphs.laplacian(g), [[1, -1], [-1, 1]])

    def test_complete_graph_unit_weights(self):
        edges = tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4))
        L = graphs.laplacian(graphs.WeightedGraph(4, edges))
        assert np.array_equal(np.diag(L), [3, 3, 3, 3])
        off = L[~np.eye(4, dtype=bool)]
        assert (off == -1).all()

    def test_weighted_edge(self):
        g = graphs.WeightedGraph(2, ((0, 1, 2.5),))
        assert np.array_equal(graphs.laplacian(g), [[2.5, -2.5], [-2.5, 2.5]])

    def test_row_sums_zero_and_psd(self, small_world, geometric_graph):
        for g in (small_world, geometric_graph):
            L = graphs.laplacian(g)
            assert np.abs(L @ np.ones(g.n)).max() < 1e-10
            assert np.allclose(L, L.T, atol=1e-12)
            assert np.linalg.eigvalsh(L).min() > -1e-10


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.WeightedGraph(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            graphs.WeightedGraph(2, ((0, 1, -2.0),))

    @pytest.mark.parametrize("weight", [0.0, np.nan, np.inf])
    def test_rejects_zero_and_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="not positive and finite"):
            graphs.WeightedGraph(2, ((0, 1, weight),))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            graphs.WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))

    def test_canonicalizes_edge_order(self):
        g = graphs.WeightedGraph(3, ((1, 0, 1.0), (2, 1, 2.0)))
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, small_world):
        path = tmp_path / "g.edges"
        graphs.save_edge_list(small_world, path)
        assert graphs.load_edge_list(path) == small_world

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# gsample-graph v1 n=4\n0 1 1.0\n3 3 1.0\n")
        with pytest.raises(EdgeListFormatError, match="line 3"):
            graphs.load_edge_list(path)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# gsample-graph v1 n=2\n0 1 -2\n")
        with pytest.raises(EdgeListFormatError, match="weight"):
            graphs.load_edge_list(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0"])
    def test_non_finite_weight_reports_line(self, tmp_path, weight):
        path = tmp_path / "bad.edges"
        path.write_text(f"# gsample-graph v1 n=3\n0 1 1.0\n1 2 {weight}\n")
        with pytest.raises(EdgeListFormatError, match=r"not positive and finite \(line 3\)"):
            graphs.load_edge_list(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 1.0\n")
        with pytest.raises(EdgeListFormatError, match="header"):
            graphs.load_edge_list(path)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=30),
    k=st.integers(min_value=1, max_value=2),
    beta=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generated_laplacians_are_valid(n, k, beta, seed):
    if n <= 2 * k:
        return
    g = graphs.watts_strogatz(n, k, beta, seed)
    assert len(g.edges) == n * k
    L = graphs.laplacian(g)
    assert np.abs(L @ np.ones(n)).max() < 1e-10
    assert (L[~np.eye(n, dtype=bool)] <= 0).all()
