"""Undirected weighted graphs, their Laplacians, and seeded generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EdgeListFormatError, GraphConnectivityError

EDGE_LIST_HEADER = "# gsample-graph v1"
_CONNECTIVITY_RETRIES = 100


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1 with edges (i[k], j[k], w[k]),
    copied into read-only arrays, each edge stored as i < j, in input order.

    Invariants checked at construction: no self-loops, node indices in range,
    positive finite weights, no duplicate edges, single connected component.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        a, b = np.array(self.i, dtype=np.intp), np.array(self.j, dtype=np.intp)
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
                raise ValueError(message.format(a=a[k], b=b[k], w=w[k], n=self.n))
        _, first = np.unique(lo * self.n + hi, return_index=True)
        if first.size < lo.size:
            k = np.setdiff1d(np.arange(lo.size), first)[0]
            raise ValueError(f"duplicate edge ({lo[k]},{hi[k]})")
        if not _connected(self.n, lo, hi):
            raise ValueError("graph is not connected")
        for name, arr in (("i", lo), ("j", hi), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric matrix."""
    W = np.zeros((g.n, g.n))
    W[g.i, g.j] = g.w
    W[g.j, g.i] = g.w
    return np.diag(W.sum(axis=1)) - W


def _connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the undirected edges (i[k], j[k]) connect nodes 0..n-1."""
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
    # (near endpoint u, lattice edge i < j) in rewiring order
    lattice = [(u, (u, u + d) if u + d < n else (u + d - n, u))
               for d in range(1, k + 1) for u in range(n)]
    streams = np.random.SeedSequence(seed).spawn(_CONNECTIVITY_RETRIES)
    for stream in streams:
        rng = np.random.default_rng(stream)
        edge_set = {edge for _, edge in lattice}
        # rewire the far endpoint of each lattice edge independently
        for u, edge in lattice:
            if edge not in edge_set:
                continue  # already moved by an earlier rewire
            if rng.random() >= beta:
                continue
            # uniformly random non-self, non-duplicate target for u
            candidates = [w for w in range(u) if (w, u) not in edge_set]
            candidates += [w for w in range(u + 1, n) if (u, w) not in edge_set]
            if not candidates:
                continue  # u already adjacent to everyone
            w = candidates[rng.integers(len(candidates))]
            edge_set.discard(edge)
            edge_set.add((u, w) if u < w else (w, u))
        ii, jj = np.array(sorted(edge_set), dtype=np.intp).T
        if _connected(n, ii, jj):
            return WeightedGraph(n, ii, jj, np.ones(ii.size))
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
    i, j, w = zip(*edges) if edges else ((), (), ())
    try:
        return WeightedGraph(n, i, j, w)
    except ValueError as exc:
        raise EdgeListFormatError(str(exc))
