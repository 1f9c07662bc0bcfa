"""The array-built generators against the per-edge loops they replaced.

The references below are the per-edge builders this package shipped
before dataset builds were vectorised: ``CSRGraph.from_edges``, the
``gnm_random``, ``chung_lu``, ``hub_spoke``, ``layered_dag``,
``graph_union``, ``complete_digraph`` and ``cycle_graph`` generators, and
the undirected view of :mod:`repro.graph.stats`.  Their bodies are kept
verbatim; the one change is that ``from_edges`` is a plain function here
and the others call it.  The properties check that every build
reproduces its reference byte for byte (so every dataset, and every
golden resting on one, stays put) and that ``from_edges`` rejects the
same out-of-range id.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GraphError, VertexNotFoundError
from repro.graph import generators, stats
from repro.graph.csr import CSRGraph


# ----------------------------------------------------------------------
# reference implementation (verbatim bodies)
# ----------------------------------------------------------------------
def ref_from_edges(
    num_vertices: int, edges: Iterable[tuple[int, int]]
) -> CSRGraph:
    pairs = {(u, v) for u, v in edges if u != v}
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        if arr.min() < 0 or arr.max() >= num_vertices:
            bad = int(arr.min()) if arr.min() < 0 else int(arr.max())
            raise VertexNotFoundError(bad, num_vertices)
        srcs, dsts = arr[:, 0], arr[:, 1]
    else:
        srcs = dsts = np.empty(0, dtype=np.int64)
    counts = np.bincount(srcs, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dsts)


def ref_gnm_random(num_vertices: int, num_edges: int, seed: int = 0) -> CSRGraph:
    if num_vertices < 0 or num_edges < 0:
        raise GraphError("negative size")
    max_edges = num_vertices * (num_vertices - 1)
    if num_edges > max_edges:
        raise GraphError(
            f"cannot place {num_edges} edges in a {num_vertices}-vertex digraph"
        )
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    # Rejection sampling is fine: callers keep density far below complete.
    while len(edges) < num_edges:
        need = num_edges - len(edges)
        us = rng.integers(0, num_vertices, size=2 * need + 8)
        vs = rng.integers(0, num_vertices, size=2 * need + 8)
        for u, v in zip(us, vs):
            if u != v:
                edges.add((int(u), int(v)))
                if len(edges) == num_edges:
                    break
    return ref_from_edges(num_vertices, edges)


def ref_chung_lu(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.2,
    seed: int = 0,
) -> CSRGraph:
    if num_vertices <= 1:
        return CSRGraph.empty(max(num_vertices, 0))
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probs = weights / weights.sum()
    edges: set[tuple[int, int]] = set()
    attempts = 0
    target = min(num_edges, num_vertices * (num_vertices - 1) // 2)
    while len(edges) < target and attempts < 60:
        need = target - len(edges)
        us = rng.choice(num_vertices, size=2 * need + 8, p=probs)
        vs = rng.choice(num_vertices, size=2 * need + 8, p=probs)
        for u, v in zip(us, vs):
            if u != v:
                edges.add((int(u), int(v)))
                if len(edges) == target:
                    break
        attempts += 1
    # Shuffle labels so that high-degree vertices are not the low ids.
    perm = rng.permutation(num_vertices)
    relabeled = ((int(perm[u]), int(perm[v])) for u, v in edges)
    return ref_from_edges(num_vertices, relabeled)


def ref_hub_spoke(
    num_hubs: int,
    spokes_per_hub: int,
    hub_clique_p: float = 0.6,
    seed: int = 0,
) -> CSRGraph:
    rng = np.random.default_rng(seed)
    n = num_hubs * (1 + spokes_per_hub)
    edges: set[tuple[int, int]] = set()
    for h in range(num_hubs):
        hub = h * (1 + spokes_per_hub)
        for i in range(spokes_per_hub):
            spoke = hub + 1 + i
            edges.add((spoke, hub))
            if rng.random() < 0.5:
                edges.add((hub, spoke))
    hubs = [h * (1 + spokes_per_hub) for h in range(num_hubs)]
    for a in hubs:
        for b in hubs:
            if a != b and rng.random() < hub_clique_p:
                edges.add((a, b))
    return ref_from_edges(n, edges)


def ref_layered_dag(layers: int, width: int, p_forward: float,
                    seed: int = 0) -> CSRGraph:
    rng = np.random.default_rng(seed)
    n = layers * width
    edges = []
    for layer in range(layers - 1):
        for i in range(width):
            u = layer * width + i
            for j in range(width):
                v = (layer + 1) * width + j
                if rng.random() < p_forward:
                    edges.append((u, v))
    return ref_from_edges(n, edges)


def ref_graph_union(*graphs: CSRGraph) -> CSRGraph:
    n = graphs[0].num_vertices
    edges: set[tuple[int, int]] = set()
    for g in graphs:
        edges.update(g.edges())
    return ref_from_edges(n, edges)


def ref_complete_digraph(num_vertices: int) -> CSRGraph:
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    return ref_from_edges(num_vertices, edges)


def ref_cycle_graph(num_vertices: int) -> CSRGraph:
    if num_vertices < 2:
        return CSRGraph.empty(max(num_vertices, 0))
    edges = [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    return ref_from_edges(num_vertices, edges)


def ref_undirected_adjacency(graph: CSRGraph) -> CSRGraph:
    edges = set()
    for u, v in graph.edges():
        edges.add((u, v))
        edges.add((v, u))
    return ref_from_edges(graph.num_vertices, edges)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_same_bytes(got: CSRGraph, want: CSRGraph) -> None:
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()


@pytest.fixture
def draws(monkeypatch):
    """The names of the generator methods called, in call order."""
    calls: list[str] = []

    class CountingRng:
        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return counted

    monkeypatch.setattr(generators, "_rng", CountingRng)
    return calls


seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=-1, max_value=40),
       m=st.integers(min_value=0, max_value=900),
       exponent=st.floats(min_value=1.5, max_value=3.5), seed=seeds)
@example(n=12, m=71, exponent=1.6, seed=3)     # 17 rounds of draws
@example(n=30, m=440, exponent=1.5, seed=0)    # stops at 60 rounds
@example(n=0, m=3, exponent=2.2, seed=0)
@example(n=1, m=3, exponent=2.2, seed=0)
def test_chung_lu_matches_reference(n, m, exponent, seed):
    assert_same_bytes(generators.chung_lu(n, m, exponent, seed),
                      ref_chung_lu(n, m, exponent, seed))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=30),
       fill=st.floats(min_value=0.0, max_value=1.0), seed=seeds)
@example(n=10, fill=1.0, seed=1)               # the complete digraph
def test_gnm_random_matches_reference(n, fill, seed):
    m = int(fill * n * (n - 1))
    assert_same_bytes(generators.gnm_random(n, m, seed),
                      ref_gnm_random(n, m, seed))


def test_examples_hit_more_rounds_and_the_cap(draws):
    """The explicit examples above reach the cases they are named for:
    two draws per round of sampling."""
    generators.chung_lu(12, 71, 1.6, 3)
    assert 1 < draws.count("choice") // 2 < 60
    del draws[:]
    g = generators.chung_lu(30, 440, 1.5, 0)
    assert draws.count("choice") == 2 * 60
    assert g.num_edges < 30 * 29 // 2
    del draws[:]
    generators.gnm_random(10, 90, 1)
    assert draws.count("integers") > 2


edge_lists = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)),
                 max_size=60),
    )
)


@settings(max_examples=300, deadline=None)
@given(edge_lists, st.sampled_from(["list", "generator", "set", "array"]))
@example((5, [(0, 1), (1, 1), (0, 1), (4, 0), (2, 2), (0, 1)]), "list")
@example((3, [(0, 1), (1, 3)]), "generator")
@example((3, [(-1, 2), (0, 7)]), "list")
@example((3, [(5, 5), (0, 1)]), "list")  # an out-of-range self-loop
@example((0, []), "array")
def test_from_edges_matches_reference(case, form):
    n, edges = case
    if form == "generator":
        arg = (e for e in edges)
    elif form == "set":
        arg = set(edges)
    elif form == "array":
        arg = np.array(edges, dtype=np.int64).reshape(-1, 2)
    else:
        arg = edges
    try:
        want = ref_from_edges(n, edges)
    except VertexNotFoundError as exc:
        with pytest.raises(VertexNotFoundError) as got:
            CSRGraph.from_edges(n, arg)
        assert (got.value.vertex, got.value.num_vertices) == (
            exc.vertex, exc.num_vertices)
        assert str(got.value) == str(exc)
        return
    assert_same_bytes(CSRGraph.from_edges(n, arg), want)


@settings(max_examples=100, deadline=None)
@given(hubs=st.integers(0, 8), spokes=st.integers(0, 8),
       p=st.floats(min_value=0.0, max_value=1.0), seed=seeds)
def test_hub_spoke_matches_reference(hubs, spokes, p, seed):
    assert_same_bytes(generators.hub_spoke(hubs, spokes, p, seed),
                      ref_hub_spoke(hubs, spokes, p, seed))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 25), ms=st.lists(st.integers(0, 60), min_size=1,
                                          max_size=3), seed=seeds)
def test_graph_union_matches_reference(n, ms, seed):
    graphs = [generators.gnm_random(n, min(m, n * (n - 1)), seed + i)
              for i, m in enumerate(ms)]
    assert_same_bytes(generators.graph_union(*graphs),
                      ref_graph_union(*graphs))


@settings(max_examples=100, deadline=None)
@given(layers=st.integers(0, 5), width=st.integers(0, 6),
       p=st.floats(min_value=0.0, max_value=1.0), seed=seeds)
def test_layered_dag_matches_reference(layers, width, p, seed):
    assert_same_bytes(generators.layered_dag(layers, width, p, seed),
                      ref_layered_dag(layers, width, p, seed))


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 7])
def test_complete_and_cycle_match_reference(n):
    if n >= 0:
        assert_same_bytes(generators.complete_digraph(n),
                          ref_complete_digraph(n))
    assert_same_bytes(generators.cycle_graph(n), ref_cycle_graph(n))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 25), fill=st.floats(0.0, 1.0), seed=seeds)
def test_undirected_adjacency_matches_reference(n, fill, seed):
    g = generators.gnm_random(n, int(fill * n * (n - 1)), seed)
    assert_same_bytes(stats._undirected_adjacency(g),
                      ref_undirected_adjacency(g))
