"""Undirected weighted graphs, their Laplacians, and seeded generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import EdgeListFormatError, GraphConnectivityError

EDGE_LIST_HEADER = "# gsample-graph v1"
_CONNECTIVITY_RETRIES = 100


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1, edges stored canonically i<j.

    Invariants checked at construction: no self-loops, positive finite
    weights, no duplicate edges, single connected component.
    """

    n: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        canonical = []
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if not 0 < w < np.inf:
                raise ValueError(f"weight {w} on edge ({i},{j}) is not positive and finite")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
            canonical.append((a, b, float(w)))
        object.__setattr__(self, "edges", tuple(canonical))
        if not _connected(self.n, ((i, j) for i, j, _ in canonical)):
            raise ValueError("graph is not connected")

    def adjacency(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            W[i, j] = w
            W[j, i] = w
        return W


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric matrix."""
    W = g.adjacency()
    return np.diag(W.sum(axis=1)) - W


def _connected(n: int, pairs) -> bool:
    """Whether the undirected edges (i, j) in `pairs` connect nodes 0..n-1."""
    adj = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def watts_strogatz(n: int, k: int, beta: float, seed) -> WeightedGraph:
    """Small-world graph: ring lattice with 2k neighbors, each edge's far
    endpoint rewired with probability beta. All weights 1.

    Regenerates with a fresh RNG substream until connected (up to 100 tries).
    """
    if k < 1 or n <= 2 * k:
        raise ValueError(f"require n > 2k >= 2, got n={n}, k={k}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewiring probability must be in [0,1], got {beta}")
    streams = np.random.SeedSequence(seed).spawn(_CONNECTIVITY_RETRIES)
    for stream in streams:
        rng = np.random.default_rng(stream)
        edge_set = set()
        for d in range(1, k + 1):
            for u in range(n):
                v = (u + d) % n
                a, b = (u, v) if u < v else (v, u)
                edge_set.add((a, b))
        # rewire the far endpoint of each lattice edge independently
        for d in range(1, k + 1):
            for u in range(n):
                v = (u + d) % n
                a, b = (u, v) if u < v else (v, u)
                if (a, b) not in edge_set:
                    continue  # already moved by an earlier rewire
                if rng.random() >= beta:
                    continue
                # uniformly random non-self, non-duplicate target for u
                candidates = [
                    w
                    for w in range(n)
                    if w != u and ((u, w) if u < w else (w, u)) not in edge_set
                ]
                if not candidates:
                    continue  # u already adjacent to everyone
                w = candidates[rng.integers(len(candidates))]
                edge_set.discard((a, b))
                key = (u, w) if u < w else (w, u)
                edge_set.add(key)
        if _connected(n, edge_set):
            edges = [(i, j, 1.0) for i, j in sorted(edge_set)]
            return WeightedGraph(n, tuple(edges))
    raise GraphConnectivityError(
        f"watts_strogatz(n={n}, k={k}, beta={beta}) not connected "
        f"after {_CONNECTIVITY_RETRIES} attempts"
    )


def random_geometric(n: int, radius: float, kernel_width: float, seed) -> WeightedGraph:
    """Random geometric graph on the unit square with Gaussian-kernel weights
    w_ij = exp(-d_ij^2 / (2 kernel_width^2)) for pairs within `radius`.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if radius <= 0 or kernel_width <= 0:
        raise ValueError("radius and kernel_width must be positive")
    streams = np.random.SeedSequence(seed).spawn(_CONNECTIVITY_RETRIES)
    for stream in streams:
        rng = np.random.default_rng(stream)
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        ii, jj = np.where(np.triu(dist <= radius, k=1))
        if not _connected(n, zip(ii.tolist(), jj.tolist())):
            continue
        w = np.exp(-dist[ii, jj] ** 2 / (2.0 * kernel_width**2))
        edges = [(int(i), int(j), float(wij)) for i, j, wij in zip(ii, jj, w)]
        return WeightedGraph(n, tuple(edges))
    raise GraphConnectivityError(
        f"random_geometric(n={n}, radius={radius}) not connected "
        f"after {_CONNECTIVITY_RETRIES} attempts"
    )


def save_edge_list(g: WeightedGraph, path) -> None:
    """Write the canonical edge-list text format (header + `i j w` lines)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{EDGE_LIST_HEADER} n={g.n}\n")
        for i, j, w in g.edges:
            fh.write(f"{i} {j} {w!r}\n")


def load_edge_list(path) -> WeightedGraph:
    """Parse the edge-list format written by save_edge_list."""
    n = None
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(EDGE_LIST_HEADER):
                    try:
                        n = int(line.split("n=")[1])
                    except (IndexError, ValueError):
                        raise EdgeListFormatError("malformed header", lineno)
                continue
            parts = line.split()
            if len(parts) != 3:
                raise EdgeListFormatError(
                    f"expected 'i j w', got {line!r}", lineno
                )
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise EdgeListFormatError(f"unparseable edge {line!r}", lineno)
            if i == j:
                raise EdgeListFormatError(f"self-loop at node {i}", lineno)
            if not 0 < w < np.inf:
                raise EdgeListFormatError(f"weight {w} is not positive and finite", lineno)
            edges.append((i, j, w))
    if n is None:
        raise EdgeListFormatError("missing header line")
    try:
        return WeightedGraph(n, tuple(edges))
    except ValueError as exc:
        raise EdgeListFormatError(str(exc))
