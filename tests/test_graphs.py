import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import graphs
from gsample.exceptions import EdgeListFormatError


def degrees(g):
    return np.bincount(np.concatenate([g.i, g.j]), minlength=g.n)


class TestWattsStrogatz:
    def test_beta_zero_is_ring_lattice(self):
        g = graphs.watts_strogatz(10, 2, 0.0, seed=3)
        assert (degrees(g) == 4).all()
        assert len(g.w) == 20

    def test_edge_count_preserved_under_rewiring(self):
        g = graphs.watts_strogatz(1000, 5, 0.1, seed=7)
        assert len(g.w) == 5000

    def test_full_rewiring_stays_valid(self):
        g = graphs.watts_strogatz(10, 2, 1.0, seed=3)
        # WeightedGraph construction rejects self-loops and duplicates
        assert len(g.w) == 20
        assert (g.i < g.j).all()

    def test_deterministic_given_seed(self):
        a = graphs.watts_strogatz(50, 3, 0.3, seed=9)
        b = graphs.watts_strogatz(50, 3, 0.3, seed=9)
        assert a.n == b.n
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "ijw")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            graphs.watts_strogatz(4, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            graphs.watts_strogatz(10, 2, 1.5, seed=0)


class TestRandomGeometric:
    def test_large_radius_gives_complete_graph(self):
        g = graphs.random_geometric(5, 1.5, 0.5, seed=1)
        assert len(g.w) == 10

    def test_weights_in_unit_interval(self):
        g = graphs.random_geometric(500, 0.6, 0.3, seed=11)
        assert (g.w > 0).all() and (g.w <= 1).all()

    def test_weight_monotone_in_distance(self, rng):
        g = graphs.random_geometric(30, 0.5, 0.25, seed=2)
        # reconstruct: larger weight means smaller distance
        w = sorted(g.w)
        d = [np.sqrt(-2 * 0.25**2 * np.log(x)) for x in w]
        assert all(d[i] >= d[i + 1] - 1e-12 for i in range(len(d) - 1))

    def test_deterministic_given_seed(self):
        a = graphs.random_geometric(40, 0.5, 0.25, seed=4)
        b = graphs.random_geometric(40, 0.5, 0.25, seed=4)
        assert a.n == b.n
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "ijw")


class TestLaplacian:
    def test_single_edge(self):
        g = graphs.WeightedGraph(2, [0], [1], [1.0])
        assert np.array_equal(graphs.laplacian(g), [[1, -1], [-1, 1]])

    def test_complete_graph_unit_weights(self):
        i, j = np.triu_indices(4, 1)
        L = graphs.laplacian(graphs.WeightedGraph(4, i, j, np.ones(i.size)))
        assert np.array_equal(np.diag(L), [3, 3, 3, 3])
        off = L[~np.eye(4, dtype=bool)]
        assert (off == -1).all()

    def test_weighted_edge(self):
        g = graphs.WeightedGraph(2, [0], [1], [2.5])
        assert np.array_equal(graphs.laplacian(g), [[2.5, -2.5], [-2.5, 2.5]])

    def test_row_sums_zero_and_psd(self, small_world, geometric_graph):
        for g in (small_world, geometric_graph):
            L = graphs.laplacian(g)
            assert np.abs(L @ np.ones(g.n)).max() < 1e-10
            assert np.allclose(L, L.T, atol=1e-12)
            assert np.linalg.eigvalsh(L).min() > -1e-10

    def test_single_node_without_edges(self):
        g = graphs.WeightedGraph(1, [], [], [])
        assert graphs.laplacian(g).tolist() == [[0.0]]


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graphs.WeightedGraph(3, [0, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            graphs.WeightedGraph(2, [0], [1], [-2.0])

    @pytest.mark.parametrize("weight", [0.0, np.nan, np.inf])
    def test_rejects_zero_and_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="not positive and finite"):
            graphs.WeightedGraph(2, [0], [1], [weight])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            graphs.WeightedGraph(4, [0, 2], [1, 3], [1.0, 1.0])

    def test_canonicalizes_edge_order(self):
        g = graphs.WeightedGraph(3, [2, 1], [1, 0], [2.0, 1.0])
        assert g.i.tolist() == [1, 0] and g.j.tolist() == [2, 1]
        assert g.w.tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0)])
    def test_rejects_duplicate_edge(self, i, j):
        with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
            graphs.WeightedGraph(3, [0, 1, i], [1, 2, j], [1.0, 1.0, 2.0])

    @pytest.mark.parametrize("node", [-1, 3])
    def test_rejects_node_out_of_range(self, node):
        with pytest.raises(ValueError, match="out of range for n=3"):
            graphs.WeightedGraph(3, [0, 1], [1, node], [1.0, 1.0])

    @pytest.mark.parametrize("i, j, w", [
        ([0.5], [1], [1.0]),
        ([0, 1], [1], [1.0]),
        ([[0]], [[1]], [[1.0]]),
    ])
    def test_rejects_non_integer_or_misshapen_arrays(self, i, j, w):
        with pytest.raises(ValueError, match="1-D"):
            graphs.WeightedGraph(2, i, j, w)

    def test_copies_inputs_into_read_only_arrays(self):
        i, j, w = np.array([1, 2]), np.array([0, 1]), np.array([1.0, 2.0])
        g = graphs.WeightedGraph(3, i, j, w)
        i[:], j[:], w[:] = 0, 2, 9.0
        assert g.i.tolist() == [0, 1] and g.j.tolist() == [1, 2]
        assert g.w.tolist() == [1.0, 2.0]
        for arr in (g.i, g.j, g.w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def from_triples(n, edges):
    """WeightedGraph from a list of (i, j, w) triples."""
    i, j, w = (np.array(col) for col in zip(*edges)) if edges else ([], [], [])
    return graphs.WeightedGraph(n, i, j, w)


def reference_graph(n, edges):
    """Per-edge reference validation: the canonical (i, j, w) triples of a
    valid graph, or the ValueError a graph constructor must raise."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    canonical = []
    seen = set()
    for i, j, w in edges:
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if not 0 < w < np.inf:
            raise ValueError(f"weight {w} on edge ({i},{j}) is not positive and finite")
        a, b = (i, j) if i < j else (j, i)
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        canonical.append((a, b, float(w)))
    adj = [[] for _ in range(n)]
    for a, b, _ in canonical:
        adj[a].append(b)
        adj[b].append(a)
    reached, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    if len(reached) != n:
        raise ValueError("graph is not connected")
    return canonical


def fault_kinds(n, edges):
    """The kinds of per-edge fault present anywhere in `edges`."""
    kinds, seen = set(), set()
    for i, j, w in edges:
        if i == j:
            kinds.add("self-loop")
        if not (0 <= i < n and 0 <= j < n):
            kinds.add("range")
        if not 0 < w < np.inf:
            kinds.add("weight")
        if (min(i, j), max(i, j)) in seen:
            kinds.add("duplicate")
        seen.add((min(i, j), max(i, j)))
    return kinds


_WEIGHT = st.sampled_from([1.0, 0.5, 2.0] * 4 + [0.0, -1.0, np.nan, np.inf])


@st.composite
def edge_lists(draw):
    """(n, edges): distinct node pairs in either orientation with mostly valid
    weights, plus a few injected self-loops, out-of-range nodes and
    duplicates, so that valid graphs, single faults and mixed faults occur."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)] or [(0, 0)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    edges = [
        (b, a, draw(_WEIGHT)) if draw(st.booleans()) else (a, b, draw(_WEIGHT))
        for a, b in chosen
    ]
    for fault in draw(st.lists(st.sampled_from(["loop", "range", "dup"]), max_size=2)):
        node = draw(st.integers(min_value=0, max_value=n - 1))
        extra = {"loop": (node, node), "range": (node, draw(st.sampled_from([-1, n]))),
                 "dup": edges[0][1::-1] if edges else (node, node)}[fault]
        edges.insert(draw(st.integers(0, len(edges))), (*extra, draw(_WEIGHT)))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(case=edge_lists())
def test_constructor_matches_per_edge_reference(case):
    n, edges = case
    try:
        expected = reference_graph(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            from_triples(n, edges)
        if len(fault_kinds(n, edges)) <= 1:
            # one kind of fault: the same first offending edge is reported
            assert str(info.value) == str(exc)
        return
    g = from_triples(n, edges)
    assert list(zip(g.i.tolist(), g.j.tolist(), g.w.tolist())) == expected
    W = np.zeros((n, n))
    for a, b, w in expected:
        W[a, b] = W[b, a] = w
    assert graphs.laplacian(g).tobytes() == (np.diag(W.sum(axis=1)) - W).tobytes()


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, small_world):
        path = tmp_path / "g.edges"
        graphs.save_edge_list(small_world, path)
        g = graphs.load_edge_list(path)
        assert g.n == small_world.n
        assert all(np.array_equal(getattr(g, f), getattr(small_world, f)) for f in "ijw")

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

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# gsample-graph v1 n=3\n0 1 1.0\n1 2 1.0\n1 0 2.0\n")
        with pytest.raises(EdgeListFormatError, match=r"duplicate edge \(0,1\)"):
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
    assert len(g.w) == n * k
    L = graphs.laplacian(g)
    assert np.abs(L @ np.ones(n)).max() < 1e-10
    assert (L[~np.eye(n, dtype=bool)] <= 0).all()
