"""Pre-BFS and the hop-bounded BFS against kept reference implementations.

The reference below is the dense Pre-BFS this package shipped before the
search was made to cost what it reaches: ``np.unique`` per BFS level, a
per-vertex Python loop for the induced rows, and ``|V|``-sized masks.  Its
bodies are kept verbatim; the one deliberate change is
:func:`ref_k_hop_bfs`, the one-source call of the reference multi-source
search, because a zero-hop search now charges its source's queue visit
like any other (see ``_level_synchronous_bfs``).  The property checks the
new ``pre_bfs`` reproduces the reference byte for byte, including every
:class:`OpCounter` tally, and the BFS entry points against a FIFO queue.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import QueryError, VertexNotFoundError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import (
    charged_reverse,
    k_hop_bfs,
    multi_source_k_hop_bfs,
)
from repro.preprocess.prebfs import pre_bfs


# ----------------------------------------------------------------------
# reference implementation (verbatim bodies)
# ----------------------------------------------------------------------
def ref_level_synchronous_bfs(
    graph: CSRGraph,
    frontier: np.ndarray,
    dist: np.ndarray,
    max_hops: int,
    counter: OpCounter | None,
) -> np.ndarray:
    indptr = graph.indptr
    indices = graph.indices
    relaxed_edges = 0
    for level in range(max_hops):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        relaxed_edges += total
        if total == 0:
            break
        # Gather the concatenated adjacency of the frontier: for each
        # frontier vertex u, the slice indices[starts[u] : starts[u]+deg(u)].
        cum = np.cumsum(counts) - counts
        flat = (np.repeat(starts - cum, counts)
                + np.arange(total, dtype=indptr.dtype))
        nbrs = indices[flat]
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        # Duplicate discoveries in one level all write the same distance.
        dist[fresh] = level + 1
        frontier = np.unique(fresh)
    if counter is not None:
        counter.add("vertex_visit", int((dist >= 0).sum()))
        counter.add("bfs_relax", relaxed_edges)
    return dist


def ref_multi_source_k_hop_bfs(
    graph: CSRGraph,
    sources: np.ndarray,
    max_hops: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    for src in frontier:
        s = int(src)
        if not 0 <= s < n:
            raise VertexNotFoundError(s, n)
        dist[s] = 0
    if frontier.size == 0:
        return dist
    if max_hops <= 0:
        # The queued sources still dequeue once each (no relaxation).
        if counter is not None:
            counter.add("vertex_visit", int(frontier.size))
        return dist
    return ref_level_synchronous_bfs(graph, frontier, dist, max_hops,
                                     counter)


def ref_k_hop_bfs(graph, source, max_hops, counter=None):
    return ref_multi_source_k_hop_bfs(graph, np.array([source]), max_hops,
                                      counter)


def ref_induced_subgraph(
    self: CSRGraph, nodes: Iterable[int]
) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
    keep = np.unique(np.fromiter(nodes, dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= self.num_vertices):
        bad = int(keep[0]) if keep[0] < 0 else int(keep[-1])
        raise VertexNotFoundError(bad, self.num_vertices)
    new_of_old = np.full(self.num_vertices, -1, dtype=np.int64)
    new_of_old[keep] = np.arange(keep.size, dtype=np.int64)

    sub_indptr = np.zeros(keep.size + 1, dtype=np.int64)
    rows: list[np.ndarray] = []
    for new_u, old_u in enumerate(keep):
        nbrs = self.successors(int(old_u))
        mapped = new_of_old[nbrs]
        mapped = mapped[mapped >= 0]
        rows.append(mapped)
        sub_indptr[new_u + 1] = sub_indptr[new_u] + mapped.size
    sub_indices = (
        np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    )
    return CSRGraph(sub_indptr, sub_indices), keep, new_of_old


@dataclass
class RefPreBFS:
    subgraph: CSRGraph
    source: int
    target: int
    max_hops: int
    barrier: np.ndarray
    old_of_new: np.ndarray
    new_of_old: np.ndarray
    ops: OpCounter


def ref_pre_bfs(graph: CSRGraph, query: Query,
                counter: OpCounter | None = None,
                sd_s: np.ndarray | None = None) -> RefPreBFS:
    query.validate(graph)
    ops = counter if counter is not None else OpCounter()
    k = query.max_hops
    s, t = query.source, query.target

    if sd_s is None:
        sd_s = ref_k_hop_bfs(graph, s, k - 1, ops)
    # The reverse CSR is a per-graph artifact, not per-query work: it is
    # built (and charged) once per graph and reused by every later query.
    sd_t = ref_k_hop_bfs(charged_reverse(graph, ops), t, k - 1, ops)

    reachable = (sd_s >= 0) & (sd_t >= 0)
    within = np.zeros(graph.num_vertices, dtype=bool)
    within[reachable] = sd_s[reachable] + sd_t[reachable] <= k
    # (k-1)-hop sufficiency: the only valid vertices a k-th BFS hop could
    # discover are s (when sd(s,t) = k) and t — keep them unconditionally.
    within[s] = True
    within[t] = True
    keep = np.nonzero(within)[0]
    ops.add("set_insert", int(keep.size))

    subgraph, old_of_new, new_of_old = ref_induced_subgraph(graph, keep)
    ops.add("csr_build_edge", subgraph.num_edges)

    # Barrier in subgraph id space.  Unreached within k-1 hops can only be
    # s itself (then the true distance is >= k, so k is a valid lower bound).
    barrier = sd_t[old_of_new].copy()
    barrier[barrier < 0] = k
    return RefPreBFS(
        subgraph=subgraph,
        source=int(new_of_old[s]),
        target=int(new_of_old[t]),
        max_hops=k,
        barrier=barrier,
        old_of_new=old_of_new,
        new_of_old=new_of_old,
        ops=ops,
    )


def fifo_bfs(graph: CSRGraph, sources, max_hops: int):
    """Textbook FIFO-queue BFS: distances and the cost-model charges."""
    dist = [-1] * graph.num_vertices
    queue: deque[int] = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    ops = OpCounter()
    while queue:
        u = queue.popleft()
        ops.add("vertex_visit")
        if dist[u] >= max_hops:
            continue
        for v in graph.successors(u).tolist():
            ops.add("bfs_relax")
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return np.array(dist, dtype=np.int64), ops.as_dict()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def graph_cases(draw):
    """A random digraph with isolated vertices, a query pair and k.

    ``s`` may lose its out-edges and ``t`` its in-edges (so t is
    unreachable); trailing vertices stay isolated.
    """
    core = draw(st.integers(min_value=2, max_value=14))
    isolated = draw(st.integers(min_value=0, max_value=3))
    n = core + isolated
    pairs = [(u, v) for u in range(core) for v in range(core) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 60)))
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1).filter(
        lambda x: x != s))
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if u != s]
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if v != t]
    k = draw(st.integers(min_value=1, max_value=5))
    return CSRGraph.from_edges(n, edges), Query(s, t, k)


def assert_matches_reference(got, ref):
    assert np.array_equal(got.subgraph.indptr, ref.subgraph.indptr)
    assert np.array_equal(got.subgraph.indices, ref.subgraph.indices)
    assert got.barrier.dtype == ref.barrier.dtype
    assert np.array_equal(got.barrier, ref.barrier)
    assert got.old_of_new.dtype == ref.old_of_new.dtype
    assert np.array_equal(got.old_of_new, ref.old_of_new)
    assert (got.source, got.target, got.max_hops) == (
        ref.source, ref.target, ref.max_hops)
    assert got.ops.as_dict() == ref.ops.as_dict()


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
#: the named corner cases, pinned so every run covers them.
CORNER_CASES = [
    # k = 1: both searches are zero-hop.
    (CSRGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)]), Query(0, 2, 1)),
    # t unreachable.
    (CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0)]), Query(0, 3, 3)),
    # s without out-edges; vertices 3 and 4 isolated.
    (CSRGraph.from_edges(5, [(1, 2), (2, 0)]), Query(0, 2, 3)),
]


def with_corner_cases(test):
    for case in CORNER_CASES:
        for use_memo in (False, True):
            test = example(case, use_memo)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(graph_cases(), st.booleans())
@with_corner_cases
def test_pre_bfs_matches_reference(case, use_memo):
    g, q = case
    k = q.max_hops
    # Fresh instances, each with its own reverse-CSR memo, so both sides
    # charge its build.
    g, twin = (CSRGraph(g.indptr, g.indices) for _ in range(2))
    if use_memo:
        # The forward-frontier memo hands pre_bfs a shared forward search;
        # its cost is charged where the memo builds it.
        memo_ops, ref_memo_ops = OpCounter(), OpCounter()
        fwd = k_hop_bfs(g, q.source, k - 1, memo_ops, sparse=True)
        ref_fwd = ref_k_hop_bfs(twin, q.source, k - 1, ref_memo_ops)
        assert memo_ops.as_dict() == ref_memo_ops.as_dict()
        got = pre_bfs(g, q, sd_s=fwd)
        ref = ref_pre_bfs(twin, q, sd_s=ref_fwd)
    else:
        got = pre_bfs(g, q)
        ref = ref_pre_bfs(twin, q)
    assert_matches_reference(got, ref)
    # s == t is not a query.
    with pytest.raises(QueryError):
        pre_bfs(g, Query(q.source, q.source, k))


@settings(max_examples=150, deadline=None)
@given(graph_cases(), st.integers(min_value=-1, max_value=5),
       st.lists(st.integers(min_value=0, max_value=40), max_size=5))
def test_bfs_matches_fifo_queue(case, max_hops, raw_sources):
    g, q = case
    n = g.num_vertices
    expected, charges = fifo_bfs(g, [q.source], max_hops)
    ops = OpCounter()
    assert np.array_equal(k_hop_bfs(g, q.source, max_hops, ops), expected)
    assert ops.as_dict() == charges
    vertices, dists = k_hop_bfs(g, q.source, max_hops, sparse=True)
    assert vertices.size == np.count_nonzero(expected >= 0)
    assert np.array_equal(expected[vertices], dists)

    # Duplicate and empty source sets.
    sources = [v % n for v in raw_sources]
    expected, charges = fifo_bfs(g, sources, max_hops)
    ops = OpCounter()
    got = multi_source_k_hop_bfs(g, np.array(sources, dtype=np.int64),
                                 max_hops, ops)
    assert np.array_equal(got, expected)
    assert ops.as_dict() == charges


def test_threads_keep_their_own_scratch():
    """Pre-BFS's work arrays are per thread: many threads interleaving
    at a tiny switch interval get exactly the serial answers."""
    g = generators.gnm_random(300, 2400, seed=11)
    rng = np.random.default_rng(11)
    queries = [Query(int(s), int(t), 4)
               for s, t in rng.integers(0, 300, size=(40, 2)) if s != t]
    g.reverse()
    expected = [ref_pre_bfs(g, q) for q in queries]
    failures: list[str] = []

    def worker(offset: int) -> None:
        for i in range(len(queries)):
            j = (i + offset) % len(queries)
            try:
                assert_matches_reference(pre_bfs(g, queries[j]),
                                         expected[j])
            except AssertionError as exc:
                failures.append(f"query {j}: {exc}")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(7 * i,))
                   for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
