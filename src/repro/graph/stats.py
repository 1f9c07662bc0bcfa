"""Graph statistics used by Table II (|V|, |E|, d_avg, D, D_90).

``diameter`` and ``effective_diameter`` follow the SNAP convention:
distances are measured on the *undirected* version of the graph and, for
large graphs, estimated from BFS out of a deterministic vertex sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphStats:
    """The Table II row for one dataset."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    diameter: int
    effective_diameter_90: float


def _undirected_adjacency(graph: CSRGraph) -> CSRGraph:
    """Union of the graph and its reverse (one BFS hop either direction)."""
    n = graph.num_vertices
    fwd = np.column_stack((np.repeat(np.arange(n), graph.out_degrees()),
                           graph.indices))
    return CSRGraph.from_edges(n, np.concatenate((fwd, fwd[:, ::-1])))


def _bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.successors(u):
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(int(v))
    return dist


def average_degree(graph: CSRGraph) -> float:
    """Average degree counting each directed edge once per endpoint pair,
    i.e. ``|E| / |V|`` scaled by 2 like Konect's ``d_avg`` for digraphs."""
    if graph.num_vertices == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_vertices


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """Counts of out-degrees: ``hist[d]`` = number of vertices with degree d."""
    degs = graph.out_degrees()
    if degs.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs)


def diameter(graph: CSRGraph, samples: int = 64, seed: int = 7) -> int:
    """Longest observed shortest-path distance on the undirected graph.

    Exact when ``samples >= |V|``; otherwise a lower-bound estimate from a
    deterministic sample, which is the standard practice for this statistic.
    """
    und = _undirected_adjacency(graph)
    n = und.num_vertices
    if n == 0:
        return 0
    sources = _sample_sources(n, samples, seed)
    best = 0
    for s in sources:
        dist = _bfs_distances(und, int(s))
        reached = dist[dist >= 0]
        if reached.size:
            best = max(best, int(reached.max()))
    return best


def effective_diameter(
    graph: CSRGraph,
    percentile: float = 0.9,
    samples: int = 64,
    seed: int = 7,
) -> float:
    """The ``percentile`` effective diameter (paper's D_90).

    Smallest (interpolated) distance d such that ``percentile`` of the
    reachable vertex pairs in the sample are within d hops.
    """
    und = _undirected_adjacency(graph)
    n = und.num_vertices
    if n == 0:
        return 0.0
    sources = _sample_sources(n, samples, seed)
    all_dists: list[np.ndarray] = []
    for s in sources:
        dist = _bfs_distances(und, int(s))
        reached = dist[dist > 0]
        if reached.size:
            all_dists.append(reached)
    if not all_dists:
        return 0.0
    pooled = np.sort(np.concatenate(all_dists))
    idx = percentile * (pooled.size - 1)
    lo = int(np.floor(idx))
    hi = int(np.ceil(idx))
    if lo == hi:
        return float(pooled[lo])
    frac = idx - lo
    return float(pooled[lo] * (1 - frac) + pooled[hi] * frac)


def compute_stats(graph: CSRGraph, samples: int = 64, seed: int = 7) -> GraphStats:
    """The full Table II row for ``graph``."""
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=average_degree(graph),
        diameter=diameter(graph, samples=samples, seed=seed),
        effective_diameter_90=effective_diameter(graph, samples=samples,
                                                 seed=seed),
    )


def _sample_sources(n: int, samples: int, seed: int) -> np.ndarray:
    if samples >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=samples, replace=False)
