"""Deterministic random-graph generators.

These are the stand-ins for the paper's 12 public datasets (no network
access in this environment).  Each generator takes an explicit ``seed`` and
returns a :class:`~repro.graph.csr.CSRGraph`; the dataset registry in
:mod:`repro.datasets` composes them into per-dataset recipes that match the
topology classes the paper's analysis relies on (density, skew, diameter).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _distinct_pairs(
    n: int, target: int, draw: Callable[[int], np.ndarray], max_rounds: float
) -> np.ndarray:
    """Up to ``target`` distinct non-loop pairs ``(u, v)``, an (m, 2) array.

    Each round draws ``us``, then ``vs``, and keeps the first new pairs in
    order of first occurrence, as a loop adding each to a set would.  Kept
    codes ``u * n + v`` lead each round's array, each its own first
    occurrence, so one ``np.unique`` finds them and the new ones after.
    """
    kept = np.empty(0, dtype=np.int64)
    rounds = 0
    while kept.size < target and rounds < max_rounds:
        size = 2 * (target - kept.size) + 8
        us, vs = draw(size), draw(size)
        codes = np.concatenate((kept, (us * n + vs)[us != vs]))
        _, first = np.unique(codes, return_index=True)
        # First occurrences are distinct, so a plain sort orders them.
        kept = codes[np.sort(first)[:target]]
        rounds += 1
    return np.column_stack(np.divmod(kept, n))


def gnm_random(num_vertices: int, num_edges: int, seed: int = 0) -> CSRGraph:
    """Erdős–Rényi style directed G(n, m): ``num_edges`` distinct edges."""
    if num_vertices < 0 or num_edges < 0:
        raise GraphError("negative size")
    max_edges = num_vertices * (num_vertices - 1)
    if num_edges > max_edges:
        raise GraphError(
            f"cannot place {num_edges} edges in a {num_vertices}-vertex digraph"
        )
    # Rejection sampling is fine: callers keep density far below complete.
    draw = partial(_rng(seed).integers, 0, num_vertices)
    pairs = _distinct_pairs(num_vertices, num_edges, draw, np.inf)
    return CSRGraph.from_edges(num_vertices, pairs)


def chung_lu(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.2,
    seed: int = 0,
) -> CSRGraph:
    """Directed Chung–Lu power-law graph.

    Vertex weights follow ``w_i ~ i^{-1/(exponent-1)}``; endpoints of each
    edge are sampled independently proportional to weight, matching the
    power-law degree distributions of real web/social graphs.

    Two caps apply silently: the edge target is at most ``n(n-1)/2``, and
    sampling stops after 60 rounds of draws, so a graph whose draws keep
    repeating the same pairs returns with fewer edges than asked for.
    """
    if num_vertices <= 1:
        return CSRGraph.empty(max(num_vertices, 0))
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probs = weights / weights.sum()
    target = min(num_edges, num_vertices * (num_vertices - 1) // 2)
    draw = partial(rng.choice, num_vertices, p=probs)
    pairs = _distinct_pairs(num_vertices, target, draw, 60)
    # Shuffle labels so that high-degree vertices are not the low ids.
    perm = rng.permutation(num_vertices)
    return CSRGraph.from_edges(num_vertices, perm[pairs])


def preferential_attachment(
    num_vertices: int, out_degree: int, seed: int = 0
) -> CSRGraph:
    """Barabási–Albert style growth; each new vertex links to ``out_degree``
    earlier vertices chosen preferentially by current in-degree.

    Produces hub-dominated graphs with short diameters (social networks).
    Edges are added in both directions with probability 1/2 each way to mimic
    partially reciprocal social links.
    """
    if out_degree < 1:
        raise GraphError("out_degree must be >= 1")
    rng = _rng(seed)
    start = out_degree + 1
    edges: list[tuple[int, int]] = [
        (u, v) for u in range(start) for v in range(start) if u != v
    ]
    targets = np.array([e[1] for e in edges], dtype=np.int64)
    for new in range(start, num_vertices):
        chosen = rng.choice(targets, size=min(out_degree, targets.size),
                            replace=False)
        for old in np.unique(chosen):
            edges.append((new, int(old)))
            if rng.random() < 0.5:
                edges.append((int(old), new))
        targets = np.concatenate(
            [targets, np.unique(chosen), np.full(1, new, dtype=np.int64)]
        )
    return CSRGraph.from_edges(num_vertices, edges)


def community_graph(
    num_communities: int,
    community_size: int,
    p_in: float,
    inter_edges: int,
    seed: int = 0,
) -> CSRGraph:
    """Planted-partition digraph: dense communities, sparse bridges.

    Mimics locally dense graphs (the paper's Baidu discussion: "extremely
    dense subgraphs" inside a moderately sized network).
    """
    rng = _rng(seed)
    n = num_communities * community_size
    edges: set[tuple[int, int]] = set()
    for c in range(num_communities):
        base = c * community_size
        members = np.arange(base, base + community_size)
        mask = rng.random((community_size, community_size)) < p_in
        np.fill_diagonal(mask, False)
        srcs, dsts = np.nonzero(mask)
        for u, v in zip(members[srcs], members[dsts]):
            edges.add((int(u), int(v)))
    placed = 0
    while placed < inter_edges:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and u // community_size != v // community_size:
            if (u, v) not in edges:
                edges.add((u, v))
                placed += 1
    return CSRGraph.from_edges(n, edges)


def grid_graph(rows: int, cols: int, seed: int = 0,
               extra_edges: int = 0) -> CSRGraph:
    """Bidirected grid with optional random chords.

    Long-diameter, low-degree graphs (the paper's Amazon: diameter 44,
    avg degree 6.8 — a sparse, almost mesh-like co-purchase network).
    """
    rng = _rng(seed)
    n = rows * cols
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.add((u, u + 1))
                edges.add((u + 1, u))
            if r + 1 < rows:
                edges.add((u, u + cols))
                edges.add((u + cols, u))
    placed = 0
    while placed < extra_edges:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            placed += 1
    return CSRGraph.from_edges(n, edges)


def hub_spoke(
    num_hubs: int,
    spokes_per_hub: int,
    hub_clique_p: float = 0.6,
    seed: int = 0,
) -> CSRGraph:
    """A few massive hubs with leaf spokes plus a dense hub core.

    Mimics extremely skewed web graphs (BerkStan: diameter 208 overall but a
    tight dense core; WikiTalk: a handful of super-nodes).
    """
    rng = _rng(seed)
    stride = 1 + spokes_per_hub
    n = num_hubs * stride
    # One coin per spoke, in id order, then one per ordered hub pair a != b.
    spokes = np.flatnonzero(np.arange(n) % stride)
    spoke_edges = np.column_stack((spokes, spokes - spokes % stride))
    back = rng.random(spokes.size) < 0.5
    pairs = np.divmod(np.flatnonzero(~np.eye(num_hubs, dtype=bool)), num_hubs)
    core = rng.random(pairs[0].size) < hub_clique_p
    edges = np.concatenate((spoke_edges, spoke_edges[back, ::-1],
                            stride * np.column_stack(pairs)[core]))
    return CSRGraph.from_edges(n, edges)


def layered_dag(layers: int, width: int, p_forward: float,
                seed: int = 0) -> CSRGraph:
    """Layered DAG with forward edges only — handy for exact path counting
    in tests (the number of s-t paths has a closed form on such graphs)."""
    rng = _rng(seed)
    # One coin per (layer, i, j), in that order.
    coins = rng.random((max(layers - 1, 0), width, width)) < p_forward
    layer, i, j = np.nonzero(coins)
    edges = np.column_stack((layer * width + i, (layer + 1) * width + j))
    return CSRGraph.from_edges(layers * width, edges)


def graph_union(*graphs: CSRGraph) -> CSRGraph:
    """Edge-union of graphs over the same vertex set.

    Used to compose topology features, e.g. a hub-and-spoke skeleton plus a
    power-law overlay (BerkStan-like: long pendant chains *and* a dense
    core).
    """
    if not graphs:
        raise GraphError("graph_union needs at least one graph")
    n = graphs[0].num_vertices
    for g in graphs[1:]:
        if g.num_vertices != n:
            raise GraphError(
                "graph_union requires equal vertex counts: "
                f"{n} vs {g.num_vertices}"
            )
    edges = np.concatenate([
        np.column_stack((np.repeat(np.arange(n), g.out_degrees()), g.indices))
        for g in graphs])
    return CSRGraph.from_edges(n, edges)


def complete_digraph(num_vertices: int) -> CSRGraph:
    """Complete directed graph (every ordered pair)."""
    pairs = np.divmod(np.arange(num_vertices * num_vertices), num_vertices)
    return CSRGraph.from_edges(num_vertices, np.column_stack(pairs))


def cycle_graph(num_vertices: int) -> CSRGraph:
    """Single directed cycle ``0 -> 1 -> ... -> 0``."""
    ids = np.arange(max(num_vertices, 0))
    return CSRGraph.from_edges(ids.size, np.column_stack((ids, np.roll(ids, -1))))
