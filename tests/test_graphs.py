import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import graphs
from gsample.exceptions import EdgeListFormatError, GraphConnectivityError


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

    def test_retries_exhausted(self, monkeypatch):
        # no real graph seen fails every attempt (k = 1, beta = 1 at n = 40
        # to 1,000 was always connected), so the check refuses each one
        attempts = []
        monkeypatch.setattr(graphs, "_connected", lambda *a: attempts.append(a) and False)
        with pytest.raises(GraphConnectivityError, match=r"watts_strogatz\(n=10, k=2, "
                           r"beta=0.5\) not connected after 100 attempts"):
            graphs.watts_strogatz(10, 2, 0.5, seed=0)
        assert len(attempts) == graphs._CONNECTIVITY_RETRIES == 100


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

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 nodes, got 1"):
            graphs.random_geometric(1, 0.5, 0.25, seed=0)

    @pytest.mark.parametrize("radius, kernel_width", [
        (float("nan"), None), (float("nan"), 0.25), (0.5, float("nan")),
        (0.0, 0.25), (0.5, -1.0),
    ])
    def test_radius_and_width_must_be_positive(self, radius, kernel_width):
        with pytest.raises(ValueError, match="radius and kernel_width must be positive"):
            graphs.random_geometric(20, radius, kernel_width, seed=0)

    def test_disconnected_after_every_attempt(self):
        # radius 0.01 leaves some of 20 points isolated in every attempt
        with pytest.raises(GraphConnectivityError, match=r"random_geometric\(n=20, "
                           r"radius=0.01\) not connected after 100 attempts"):
            graphs.random_geometric(20, 0.01, 0.005, seed=0)

    def test_kernel_width_none_is_half_radius(self):
        a = graphs.random_geometric(40, 0.5, None, seed=4)
        b = graphs.random_geometric(40, 0.5, 0.25, seed=4)
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

    @pytest.mark.parametrize("i, j, message", [
        ([0, 4], [5, 5], "not connected"),  # a key lo*n + hi wraps both edges to 5
        ([0, 4, 5], [5, 5, 0], r"duplicate edge \(0,5\)"),
    ])
    def test_duplicate_check_does_not_wrap(self, i, j, message):
        with pytest.raises(ValueError, match=message) as info:
            graphs.WeightedGraph(2**62, i, j, [1.0] * len(i))
        assert getattr(info.value, "edge", None) == (None if len(i) == 2 else 2)

    @pytest.mark.parametrize("node", [-1, 3])
    def test_rejects_node_out_of_range(self, node):
        with pytest.raises(ValueError, match="out of range for n=3"):
            graphs.WeightedGraph(3, [0, 1], [1, node], [1.0, 1.0])

    @pytest.mark.parametrize("n, j, words", [
        (3, 10**20, "out of range for n=3"),
        (10**20, 1, "node count"),
        (0, 1, "node count"),
    ])
    def test_rejects_values_beyond_a_machine_integer(self, n, j, words):
        with pytest.raises(ValueError, match=words):
            graphs.WeightedGraph(n, [0], [j], [1.0])

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

    @pytest.mark.parametrize("text, message, line", [
        ("# gsample-graph v12 n=2\n0 1 1.0\n", "malformed header", 1),
        ("# gsample-graph v1 n=2\n0 1 1.0\n# gsample-graph v1 n=3\n1 2 1.0\n",
         "header must come once, before the edges", 3),
        ("0 1 1.0\n# gsample-graph v1 n=2\n", "header must come once, before the edges", 2),
    ], ids=["other-version", "second-header", "header-after-edges"])
    def test_header_rule(self, tmp_path, text, message, line):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(EdgeListFormatError, match=message) as info:
            graphs.load_edge_list(path)
        assert info.value.line_number == line

    def test_comment_before_the_header_is_allowed(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# written by hand\n# gsample-graph v1 n=3\n0 1 1.0\n1 2 2.0\n")
        g = graphs.load_edge_list(path)
        assert g.n == 3 and g.w.tolist() == [1.0, 2.0]


_FILLER = st.sampled_from(["", "   ", "# a comment", "#"])


@st.composite
def faulty_edge_files(draw):
    """(text, line): a connected edge list with blank and comment lines mixed
    in and one injected fault, the only one in the file, on line `line`: a
    self-loop, a node >= n, a bad weight, or a repeated or reversed edge."""
    n = draw(st.integers(min_value=2, max_value=8))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    rows = [[*(pair[::-1] if draw(st.booleans()) else pair),
             draw(st.sampled_from(["1.0", "0.25", "3"]))]
            for pair in draw(st.permutations(tree + extra))]
    fault = draw(st.sampled_from(["loop", "range", "weight", "repeat", "reverse"]))
    k = draw(st.integers(0, len(rows) - 1))
    if fault == "weight":
        rows[k][2] = draw(st.sampled_from(["0", "-1", "nan", "inf"]))
        bad = k
    elif fault in ("repeat", "reverse"):
        a, b, w = rows[k]
        bad = draw(st.integers(k + 1, len(rows)))  # after the edge it repeats
        rows.insert(bad, [a, b, w] if fault == "repeat" else [b, a, w])
    else:
        node = draw(st.integers(0, n - 1))
        far = draw(st.sampled_from([n, n + 3, 10**20]))
        bad = draw(st.integers(0, len(rows)))
        rows.insert(bad, [node, node if fault == "loop" else far, "1.0"])
    lines = draw(st.lists(_FILLER, max_size=2)) + [f"{graphs.EDGE_LIST_HEADER} n={n}"]
    for r, row in enumerate(rows):
        lines += draw(st.lists(_FILLER, max_size=2))
        if r == bad:
            line = len(lines) + 1
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n", line


@settings(max_examples=200, deadline=None)
@given(case=faulty_edge_files())
def test_loader_names_the_faulty_line(tmp_path_factory, case):
    text, line = case
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    path.write_text(text)
    with pytest.raises(EdgeListFormatError) as info:
        graphs.load_edge_list(path)
    assert info.value.line_number == line


_FULL_WIDTH = str.maketrans("0123456789.", "０１２３４５６７８９．")
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _index_tokens(v):
    """Spellings of node index v: ones both parsers read as v, and ones only
    Python's int reads (underscores, non-ASCII digits) or neither reads."""
    return [str(v), f"+{v}", f"0{v}", f"{v}.0", str(v).translate(_FULL_WIDTH),
            str(v).translate(_ARABIC_INDIC), "1_0", "-1", "12345678901234567890"]


_PLAIN_WEIGHTS = ["1.0", "0.25", "3", "+2.5", ".5", "1."]
_WEIGHT_TOKENS = _PLAIN_WEIGHTS + ["1e0", "1_0.5", "Infinity", "nan", "-1", "0",
                                   "2.5".translate(_FULL_WIDTH)]
_SEPARATORS = [" ", "\t", "  ", "\x0c", "\xa0"]
_LINE_ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text on a connected graph: the canonical header, then one
    `i j w` row per edge in plain spellings, with up to two tokens respelled
    in ways the bulk and per-line parsers might read differently, up to two
    blank, comment, header or inline-comment additions anywhere (line 1
    included), and mixed separators and line endings."""
    n = draw(st.integers(min_value=2, max_value=12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=6)) if others else []
    edges = [pair[::-1] if draw(st.booleans()) else pair
             for pair in draw(st.permutations(tree + extra))]
    rows = [[str(i), str(j), draw(st.sampled_from(_PLAIN_WEIGHTS))] for i, j in edges]
    for _ in range(draw(st.integers(0, 2))):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[r][c] = draw(st.sampled_from(
            _index_tokens(edges[r][c]) if c < 2 else _WEIGHT_TOKENS))
    lines = [f"{graphs.EDGE_LIST_HEADER} n={n}"]
    lines += [draw(st.sampled_from(_SEPARATORS)).join(row) for row in rows]
    filler = ["", "   ", "# a comment", "#", f"{graphs.EDGE_LIST_HEADER} n={n}",
              f"{graphs.EDGE_LIST_HEADER} n={n + 1}"]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        if k and draw(st.booleans()):
            lines[k - 1] += " # inline comment"
        else:
            lines.insert(k, draw(st.sampled_from(filler)))
    ending = draw(st.sampled_from(_LINE_ENDINGS))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def load_outcome(load, path):
    """What `load` makes of `path`: the graph's n and each array's dtype and
    bytes, or the EdgeListFormatError's text and line number."""
    try:
        g = load(path)
    except EdgeListFormatError as exc:
        return "error", str(exc), exc.line_number
    return "graph", g.n, *((a.dtype.str, a.tobytes()) for a in (g.i, g.j, g.w))


@settings(max_examples=300, deadline=None)
@given(text=edge_list_texts())
def test_loader_matches_per_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    path.write_bytes(text.encode("utf-8"))
    assert load_outcome(graphs.load_edge_list, path) == load_outcome(
        graphs._load_edge_list_by_line, path)


class TestBulkEdgeListParse:
    def test_canonical_file_needs_no_per_line_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        path.write_bytes(b"# gsample-graph v1 n=3\r\n+2\x0c1 0.5\r\n\r\n0\t1 3\r\n")

        def per_line(_):
            raise AssertionError("per-line pass used")

        monkeypatch.setattr(graphs, "_load_edge_list_by_line", per_line)
        g = graphs.load_edge_list(path)
        assert g.n == 3
        assert g.i.tolist() == [1, 0] and g.j.tolist() == [2, 1]
        assert g.w.tolist() == [0.5, 3.0]

    def test_edgeless_file_loads_without_warning(self, tmp_path):
        # NumPy warns "input contained no data" on an empty body; recorded,
        # not raised, that warning would let an unchecked bulk result through
        path = tmp_path / "g.edges"
        path.write_text("# gsample-graph v1 n=1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = graphs.load_edge_list(path)
        assert caught == []
        assert g.n == 1 and g.i.size == g.j.size == g.w.size == 0

    def test_a_parse_that_warns_is_not_accepted(self, tmp_path, monkeypatch):
        # older NumPy reads float text in an integer column with a
        # DeprecationWarning instead of an error; the file must still be
        # refused on the line the per-line pass names
        path = tmp_path / "g.edges"
        path.write_text("# gsample-graph v1 n=2\n1.0 0 1.0\n")

        def lenient_loadtxt(fh, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            rows = [tuple(float(x) for x in line.split()) for line in fh if line.strip()]
            return np.array(rows, dtype=dtype)

        monkeypatch.setattr(graphs.np, "loadtxt", lenient_loadtxt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EdgeListFormatError, match="unparseable edge") as info:
                graphs.load_edge_list(path)
        assert info.value.line_number == 2
        assert caught == []

    def test_round_trip_at_benchmark_scale(self, tmp_path):
        # a path plus chords to the nodes 2..26 ahead: 51,649 edges on 2,000
        # nodes, near the benchmark's 68,386-edge file
        n = 2000
        i = np.concatenate([np.arange(n - d) for d in range(1, 27)])
        j = np.concatenate([np.arange(d, n) for d in range(1, 27)])
        g = graphs.WeightedGraph(n, i, j, np.random.default_rng(3).random(i.size) + 0.01)
        assert g.w.size > 50_000
        path = tmp_path / "g.edges"
        graphs.save_edge_list(g, path)
        back = graphs.load_edge_list(path)
        assert back.n == n
        assert all(np.array_equal(getattr(back, f), getattr(g, f)) for f in "ijw")


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


def watts_strogatz_reference(n, k, beta, seed):
    """The set-based rewiring the adjacency-matrix generator replaced: the
    same lattice order and rng calls, each rewire scanning all n nodes.
    Returns the sorted edge arrays, or None if no retry is connected."""
    lattice = [(u, (u, u + d) if u + d < n else (u + d - n, u))
               for d in range(1, k + 1) for u in range(n)]
    for stream in np.random.SeedSequence(seed).spawn(graphs._CONNECTIVITY_RETRIES):
        rng = np.random.default_rng(stream)
        edge_set = {edge for _, edge in lattice}
        for u, edge in lattice:
            if edge not in edge_set or rng.random() >= beta:
                continue
            candidates = [w for w in range(u) if (w, u) not in edge_set]
            candidates += [w for w in range(u + 1, n) if (u, w) not in edge_set]
            if not candidates:
                continue
            w = candidates[rng.integers(len(candidates))]
            edge_set.discard(edge)
            edge_set.add((u, w) if u < w else (w, u))
        ii, jj = np.array(sorted(edge_set), dtype=np.intp).T
        if graphs._connected(n, ii, jj):
            return ii, jj
    return None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    k=st.integers(min_value=1, max_value=6),
    beta=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(1.0)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_watts_strogatz_matches_set_based_reference(n, k, beta, seed):
    # small n with beta near 1 needs retries; n = 2k + 1 is complete, so
    # no rewire finds a candidate
    if n <= 2 * k:
        return
    ref = watts_strogatz_reference(n, k, beta, seed)
    if ref is None:
        with pytest.raises(GraphConnectivityError):
            graphs.watts_strogatz(n, k, beta, seed)
        return
    g = graphs.watts_strogatz(n, k, beta, seed)
    assert np.array_equal(g.i, ref[0]) and np.array_equal(g.j, ref[1])
    assert (g.w == 1.0).all()
