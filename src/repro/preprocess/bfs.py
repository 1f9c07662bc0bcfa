"""Hop-bounded breadth-first search, instrumented for the CPU cost model."""

from __future__ import annotations

import numpy as np

from repro.errors import VertexNotFoundError
from repro.graph.csr import (
    CSRGraph,
    _discard_scratch,
    _gather_rows,
    _scratch,
)
from repro.host.cost_model import OpCounter


def charged_reverse(
    graph: CSRGraph,
    counter: OpCounter | None = None,
) -> CSRGraph:
    """``G_rev`` with its construction cost charged to ``counter``.

    :meth:`CSRGraph.reverse` memoises the reverse graph per instance, so
    across a query batch only the *first* caller pays the build (charged as
    ``rev_build_edge`` per reverse edge); every later call is a cache hit
    and charges only the zero-cost ``rev_cache_hit`` marker, which lets
    batch-level reports count how often the shared artifact was reused.
    """
    hit = graph.has_cached_reverse
    rev = graph.reverse()
    if counter is not None:
        if hit:
            counter.add("rev_cache_hit")
        else:
            counter.add("rev_build_edge", rev.num_edges)
    return rev


def _dedupe_unvisited(slot: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``fresh`` without duplicates, marking each survivor visited.

    Each copy of a vertex scatters its position into ``slot``; exactly one
    writer reads its own position back, whatever the write order.  Every
    written entry ends up >= 0, so the survivors count as visited.
    """
    pos = np.arange(fresh.size, dtype=np.int64)
    slot[fresh] = pos
    return fresh[slot[fresh] == pos]


def _level_synchronous_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    max_hops: int,
    counter: OpCounter | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand ``sources`` (all at distance 0) level by level.

    Returns ``(vertices, distances)`` of every reached vertex, level by
    level.  Charges the *same totals* a FIFO-queue BFS would: one
    ``vertex_visit`` per vertex that ever enters the queue (= every reached
    vertex — the sources, and those discovered at distance ``max_hops``,
    still dequeue once before being skipped) and ``deg(u)`` ``bfs_relax``
    per dequeued vertex that relaxes (``dist[u] < max_hops``).
    :class:`~repro.host.cost_model.OpCounter` is an order-free tally, so
    aggregating the per-vertex charges into one per-level ``add`` is exact.
    Level-synchronous expansion from a fixed distance-0 seed set reaches
    each vertex at the same distance as FIFO order.  The work is that of
    the frontiers: nothing here is sized by ``|V|``.
    """
    indptr = graph.indptr
    indices = graph.indices
    slot = _scratch(graph.num_vertices)
    relaxed_edges = 0
    try:
        frontier = _dedupe_unvisited(slot, sources)
        levels = [frontier]
        for _ in range(max_hops):
            nbrs, _counts = _gather_rows(indptr, indices, frontier)
            relaxed_edges += nbrs.size
            frontier = _dedupe_unvisited(slot, nbrs[slot[nbrs] < 0])
            if frontier.size == 0:
                break
            levels.append(frontier)
        vertices = np.concatenate(levels)
        slot[vertices] = -1
    except BaseException:
        _discard_scratch()
        raise
    dists = np.repeat(np.arange(len(levels), dtype=np.int64),
                      [level.size for level in levels])
    if counter is not None:
        counter.add("vertex_visit", int(vertices.size))
        counter.add("bfs_relax", relaxed_edges)
    return vertices, dists


def multi_source_k_hop_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    max_hops: int,
    counter: OpCounter | None = None,
    *,
    sparse: bool = False,
):
    """Hop-bounded BFS from a set of sources (all at distance 0).

    Returns an ``int64`` array with ``dist[v]`` = the distance from the
    nearest source for every vertex within ``max_hops`` hops and ``-1`` for
    the rest.  With ``sparse=True`` it returns the ``(vertices, distances)``
    pair of the reached vertices instead, in BFS order, and builds nothing
    of length ``|V|``.  Duplicate sources count once.  Work is charged to
    ``counter`` as ``vertex_visit`` (per dequeued vertex, sources included)
    and ``bfs_relax`` (per scanned edge).

    Used by JOIN to compute distances to its virtual vertices, e.g.
    ``sd(v, t') = 1 + min over middles m of sd(v, m)`` via a multi-source
    BFS from the middles on the reverse graph.
    """
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise VertexNotFoundError(int(bad.min()), n)
    reached = _level_synchronous_bfs(graph, sources, max_hops, counter)
    if sparse:
        return reached
    dist = np.full(n, -1, dtype=np.int64)
    dist[reached[0]] = reached[1]
    return dist


def k_hop_bfs(
    graph: CSRGraph,
    source: int,
    max_hops: int,
    counter: OpCounter | None = None,
    *,
    sparse: bool = False,
):
    """Shortest distances from ``source``, exploring at most ``max_hops`` hops.

    The one-source case of :func:`multi_source_k_hop_bfs`: a dense
    ``dist[v] = sd(source, v)`` array (``-1`` when farther), or with
    ``sparse=True`` the ``(vertices, distances)`` pair of the reached
    vertices.
    """
    return multi_source_k_hop_bfs(graph, np.array([source]), max_hops,
                                  counter, sparse=sparse)


def distances_with_default(dist: np.ndarray, default: int) -> np.ndarray:
    """Replace the ``-1`` (unreached) markers with ``default``.

    The paper sets unreached distances to ``k + 1`` before running JOIN.
    """
    out = dist.copy()
    out[out < 0] = default
    return out
