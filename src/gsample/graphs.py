"""Undirected weighted graphs, their Laplacians, and seeded generators."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EdgeListFormatError, GraphConnectivityError

EDGE_LIST_HEADER = "# gsample-graph v1"
_CANONICAL_HEADER = re.compile(re.escape(EDGE_LIST_HEADER) + r" n=([0-9]+)")
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_CONNECTIVITY_RETRIES = 100
_MAX_INDEX = int(np.iinfo(np.intp).max)


class _EdgeFault(ValueError):
    """A broken WeightedGraph rule and the index of the first edge that
    breaks it, or None when the node count breaks it."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1 with edges (i[k], j[k], w[k]),
    copied into read-only arrays, each edge stored as i < j, in input order.

    Invariants checked at construction, in this order: n a positive machine
    integer, no self-loops, node indices in range, positive finite weights,
    no duplicate edges, single connected component. An edge rule's error
    names the first edge that breaks it.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= _MAX_INDEX:
            raise _EdgeFault(f"node count must be in [1, {_MAX_INDEX}], got {self.n}")
        try:
            a, b = np.array(self.i, dtype=np.intp), np.array(self.j, dtype=np.intp)
        except OverflowError:  # an index beyond a machine integer, out of range
            a, b = np.array(self.i, dtype=object), np.array(self.j, dtype=object)
        w = np.array(self.w, dtype=float)
        if not (a.ndim == 1 and a.shape == b.shape == w.shape
                and np.array_equal(a, self.i) and np.array_equal(b, self.j)):
            raise ValueError("i, j and w must be 1-D and of equal length, i and j integer")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for bad, message in (
            (a == b, "self-loop at node {a}"),
            ((lo < 0) | (hi >= self.n), "edge ({a},{b}) out of range for n={n}"),
            (~((w > 0) & (w < np.inf)),
             "weight {w} on edge ({a},{b}) is not positive and finite"),
        ):
            if bad.any():
                k = bad.argmax()  # the first offending edge
                raise _EdgeFault(message.format(a=a[k], b=b[k], w=w[k], n=self.n), k)
        order = np.lexsort((hi, lo))  # stable, on (lo, hi) themselves: no key to wrap
        lo_s, hi_s = lo[order], hi[order]
        repeat = (lo_s[1:] == lo_s[:-1]) & (hi_s[1:] == hi_s[:-1])
        if repeat.any():
            k = order[1:][repeat].min()  # the first repeated edge in input order
            raise _EdgeFault(f"duplicate edge ({lo[k]},{hi[k]})", k)
        if not _connected(self.n, lo, hi):
            raise ValueError("graph is not connected")
        for name, arr in (("i", lo), ("j", hi), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric matrix; a
    degree beyond the double range is inf, which eigendecompose rejects."""
    W = np.zeros((g.n, g.n))
    W[g.i, g.j] = g.w
    W[g.j, g.i] = g.w
    with np.errstate(over="ignore"):
        degree = W.sum(axis=1)
    # D - W in W's own memory; 0 - W, not -W, which writes -0.0 off the
    # edges and changes eigh's output in its last bits
    L = np.subtract(0.0, W, out=W)
    np.fill_diagonal(L, degree)
    return L


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the undirected edges (i[k], j[k]) connect nodes 0..n-1."""
    if i.size < n - 1:
        return False  # and n may be too large to allocate per-node arrays
    ends = np.concatenate([i, j])
    order = np.argsort(ends)
    neighbours = np.concatenate([j, i])[order]
    start = np.searchsorted(ends[order], np.arange(n + 1))
    seen = np.arange(n) == 0
    stack = [0]
    while stack:
        u = stack.pop()
        new = neighbours[start[u]:start[u + 1]]
        new = new[~seen[new]]
        seen[new] = True
        stack.extend(new.tolist())
    return bool(seen.all())


def watts_strogatz(n: int, k: int, beta: float, seed) -> WeightedGraph:
    """Small-world graph: ring lattice with 2k neighbors, each edge's far
    endpoint rewired with probability beta. All weights 1.

    Regenerates with a fresh RNG substream until connected (up to 100 tries).
    """
    if k < 1 or n <= 2 * k:
        raise ValueError(f"require n > 2k >= 2, got n={n}, k={k}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewiring probability must be in [0,1], got {beta}")
    # lattice edges (near u, far v) in rewiring order: offset-major, then node
    near = np.tile(np.arange(n), k)
    far = (near + np.repeat(np.arange(1, k + 1), n)) % n
    for stream in np.random.SeedSequence(seed).spawn(_CONNECTIVITY_RETRIES):
        rng = np.random.default_rng(stream)
        # n x n bytes; the diagonal is set so no node is its own candidate
        adj = np.eye(n, dtype=bool)
        adj[near, far] = adj[far, near] = True
        # rewire the far endpoint of each lattice edge independently; an
        # edge already moved by an earlier rewire draws nothing
        for u, v in zip(near.tolist(), far.tolist()):
            if not adj[u, v] or rng.random() >= beta:
                continue
            # uniformly random non-self, non-duplicate target for u, ascending
            candidates = np.flatnonzero(~adj[u])
            if not candidates.size:
                continue  # u already adjacent to everyone
            w = candidates[rng.integers(candidates.size)]
            adj[u, v] = adj[v, u] = False
            adj[u, w] = adj[w, u] = True
        # the upper triangle row by row: the edges (i < j) in sorted order
        ii, jj = np.nonzero(np.triu(adj, 1))
        if _connected(n, ii, jj):
            return WeightedGraph(n, ii, jj, np.ones(ii.size))
    raise GraphConnectivityError(
        f"watts_strogatz(n={n}, k={k}, beta={beta}) not connected "
        f"after {_CONNECTIVITY_RETRIES} attempts"
    )


def random_geometric(n: int, radius: float, kernel_width: float | None,
                     seed) -> WeightedGraph:
    """Random geometric graph on the unit square with Gaussian-kernel weights
    w_ij = exp(-d_ij^2 / (2 kernel_width^2)) for pairs within `radius`;
    a kernel_width of None is half the radius.
    """
    if kernel_width is None:
        kernel_width = radius / 2.0
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if radius <= 0 or kernel_width <= 0:
        raise ValueError("radius and kernel_width must be positive")
    for stream in np.random.SeedSequence(seed).spawn(_CONNECTIVITY_RETRIES):
        rng = np.random.default_rng(stream)
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        ii, jj = np.where(np.triu(dist <= radius, k=1))
        if not _connected(n, ii, jj):
            continue
        w = np.exp(-dist[ii, jj] ** 2 / (2.0 * kernel_width**2))
        return WeightedGraph(n, ii, jj, w)
    raise GraphConnectivityError(
        f"random_geometric(n={n}, radius={radius}) not connected "
        f"after {_CONNECTIVITY_RETRIES} attempts"
    )


def save_edge_list(g: WeightedGraph, path) -> None:
    """Write the canonical edge-list text format (header + `i j w` lines)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{EDGE_LIST_HEADER} n={g.n}\n")
        for i, j, w in zip(g.i.tolist(), g.j.tolist(), g.w.tolist()):
            fh.write(f"{i} {j} {w!r}\n")


def load_edge_list(path) -> WeightedGraph:
    """Parse the edge-list format written by save_edge_list. An error about
    one line, including a WeightedGraph rule an edge or n breaks, names it.

    A file with the canonical header on line 1 and `i j w` rows below it is
    parsed in bulk. Any other file, and any file the bulk pass cannot take
    whole (a parse error, a warning or a broken graph rule), goes through the
    per-line pass, which alone raises errors.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # a warning (an empty body; on older NumPy, float text read as an
            # integer) leaves the file to the per-line pass
            warnings.simplefilter("error")
            header = _CANONICAL_HEADER.fullmatch(fh.readline().strip())
            if header is not None:
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, comments=None, ndmin=1)
                return WeightedGraph(int(header[1]), rows["i"], rows["j"], rows["w"])
    except (ValueError, Warning):
        pass
    return _load_edge_list_by_line(path)


def _load_edge_list_by_line(path) -> WeightedGraph:
    """load_edge_list one line at a time: the reference parse, and the only
    one that raises, so every error names the line at fault. A line that
    starts with the header text must be the whole canonical header and come
    once, before the first edge row; comment and blank lines may precede it."""
    n = header = None
    edges, lines = [], []  # lines[k]: the line of edge k
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                if line.startswith(EDGE_LIST_HEADER):
                    if (match := _CANONICAL_HEADER.fullmatch(line)) is None:
                        raise EdgeListFormatError("malformed header", lineno)
                    if header is not None or edges:
                        raise EdgeListFormatError("header must come once, before the edges", lineno)
                    n, header = int(match[1]), lineno
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListFormatError(
                    f"expected 'i j w', got {line!r}", lineno
                )
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise EdgeListFormatError(f"unparseable edge {line!r}", lineno)
            lines.append(lineno)
    if n is None:
        raise EdgeListFormatError("missing header line")
    i, j, w = zip(*edges) if edges else ((), (), ())
    try:
        return WeightedGraph(n, i, j, w)
    except _EdgeFault as exc:
        raise EdgeListFormatError(str(exc), header if exc.edge is None else lines[exc.edge])
    except ValueError as exc:
        raise EdgeListFormatError(str(exc))
