"""Workload definitions and the benchmark-owned inputs they run on.

Every graph is written by this module's own NumPy code in the documented
`# gsample-graph v1 n=<N>` edge-list format and loaded by the program through
graph kind `file`, so a change to `gsample.graphs` cannot alter an input.
Graphs are fixed per workload (graph seed 0); the benchmark's `--seed`
becomes the scenario's `master_seed`, which drives the signal coefficients,
the noise and the randomized rounding. See README.md for why.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("proposed", "m1", "m3")
BUDGET_RULE = 4.0  # M = 4K samples
GRAPH_SEED = 0
_ATTEMPTS = 100  # fresh substreams tried until the graph is connected
_BLOCK_ROWS = 100  # distance rows per block, to keep the benchmark's own memory small


@dataclass(frozen=True)
class GraphSpec:
    n: int
    radius: float
    kernel_width: float


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    criterion: str
    bandwidths: tuple  # (min, max, step)
    snr_db_grid: tuple
    trials: int

    @property
    def grid_points(self) -> int:
        lo, hi, step = self.bandwidths
        return len(range(lo, hi + 1, step)) * len(self.snr_db_grid)

    @property
    def expected_records(self) -> int:
        return len(METHODS) * self.grid_points * self.trials


# N=200, radius 0.6, kernel width 0.3 at graph seed 0: the graph that
# `gsample bench --preset g2-f2-desk` builds at master seed 0.
G2_DESK = GraphSpec(n=200, radius=0.6, kernel_width=0.3)
LARGE = GraphSpec(n=1500, radius=0.15, kernel_width=0.075)

WORKLOADS = {
    w.name: w
    for w in (
        # three A-optimal solves and greedy m1 dominate; trial work is ~4%
        Workload("design-sweep", G2_DESK, "a", (10, 20, 5), (10.0,), 200),
        # quantize, sample, BLUE and orchestration dominate; one D solve
        Workload("trial-heavy", G2_DESK, "d", (15, 15, 1),
                 (0.0, 2.0, 4.0, 6.0, 8.0, 10.0), 2000),
        # file parsing, dense N^2 setup and memory; one D solve at N=1500
        Workload("large-graph", LARGE, "d", (10, 10, 1), (10.0,), 500),
    )
}


def _connected(n: int, ii: np.ndarray, jj: np.ndarray) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in zip(ii.tolist(), jj.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def random_geometric_edges(spec: GraphSpec):
    """Edges (i < j, row-major) of a random geometric graph on the unit square
    with Gaussian-kernel weights, regenerated from the next substream of
    GRAPH_SEED until connected."""
    for stream in np.random.SeedSequence(GRAPH_SEED).spawn(_ATTEMPTS):
        pts = np.random.default_rng(stream).random((spec.n, 2))
        parts_i, parts_j, parts_d = [], [], []
        for start in range(0, spec.n, _BLOCK_ROWS):
            diff = pts[start:start + _BLOCK_ROWS, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            r, c = np.nonzero(dist <= spec.radius)
            keep = c > r + start
            parts_i.append(r[keep] + start)
            parts_j.append(c[keep])
            parts_d.append(dist[r[keep], c[keep]])
        ii, jj, d = (np.concatenate(p) for p in (parts_i, parts_j, parts_d))
        if _connected(spec.n, ii, jj):
            w = np.exp(-(d**2) / (2.0 * spec.kernel_width**2))
            return ii, jj, w
    raise RuntimeError(f"no connected graph for {spec} in {_ATTEMPTS} attempts")


def write_edge_list(spec: GraphSpec, path: Path) -> int:
    """Write the graph for `spec`; returns its edge count."""
    ii, jj, w = random_geometric_edges(spec)
    lines = [f"# gsample-graph v1 n={spec.n}\n"]
    lines += [f"{i} {j} {x!r}\n" for i, j, x in zip(ii.tolist(), jj.tolist(), w.tolist())]
    path.write_text("".join(lines), encoding="utf-8")
    return len(ii)


def write_inputs(workload: Workload, seed: int, workdir: Path):
    """Write the edge list and scenario JSON; returns (config path, edges)."""
    graph_path = workdir / "graph.edges"
    edges = write_edge_list(workload.graph, graph_path)
    lo, hi, step = workload.bandwidths
    scenario = {
        "schema": 1,
        "scenario": workload.name,
        "graph": {"kind": "file", "path": str(graph_path)},
        "signal": {
            "bandwidth_min": lo,
            "bandwidth_max": hi,
            "bandwidth_step": step,
            "snr_db_grid": list(workload.snr_db_grid),
        },
        "budget_rule": BUDGET_RULE,
        "trials": workload.trials,
        "methods": list(METHODS),
        "criterion": workload.criterion,
        "master_seed": seed,
    }
    config_path = workdir / "scenario.json"
    config_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    return config_path, edges
