"""Pre-BFS: the paper's host-side preprocessing (Section V).

A ``(k-1)``-hop bidirectional BFS computes ``sd_s`` (forward from ``s``) and
``sd_t`` (backward from ``t`` on the reverse graph).  Only vertices with
``sd_s[u] + sd_t[u] <= k`` can lie on an s-t k-path (Theorem 1), and the
paper proves ``(k-1)`` hops suffice because the only valid vertices a k-th
hop could add are ``s`` and ``t`` themselves — so those two are force-kept.

The result carries the induced subgraph, the remapped endpoints, and the
*barrier* array ``bar[u] = sd(u, t)`` that PEFP's barrier check uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, _scatter_lookup
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import charged_reverse, k_hop_bfs


@dataclass
class PreBFSResult:
    """Everything the host ships to FPGA DRAM for one query."""

    subgraph: CSRGraph
    source: int
    target: int
    max_hops: int
    barrier: np.ndarray
    old_of_new: np.ndarray
    ops: OpCounter
    _old_lut: list | None = field(default=None, repr=False, compare=False)

    @property
    def is_empty(self) -> bool:
        """True when preprocessing already proved there is no s-t k-path."""
        return self.subgraph.num_edges == 0

    @property
    def old_ids(self) -> list[int]:
        """``old_of_new`` as a plain list, built once per result.

        The engine's ``vertex_ids`` table: the kernel writes each path in
        original ids as it builds it.  A list read per vertex avoids
        per-vertex ndarray scalar boxing.
        """
        lut = self._old_lut
        if lut is None:
            lut = self._old_lut = self.old_of_new.tolist()
        return lut

    def translate_path(self, path: tuple[int, ...]) -> tuple[int, ...]:
        """Map a subgraph-id path back to original graph ids."""
        return tuple(map(self.old_ids.__getitem__, path))

    def translate_paths(
        self, paths: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Map many subgraph-id paths back to original graph ids (the
        system has the kernel write original ids instead)."""
        getter = self.old_ids.__getitem__
        return [tuple(map(getter, p)) for p in paths]


def pre_bfs(graph: CSRGraph, query: Query,
            counter: OpCounter | None = None,
            sd_s: tuple[np.ndarray, np.ndarray] | None = None
            ) -> PreBFSResult:
    """Run Pre-BFS for ``query`` on ``graph``.

    Steps (paper, Section V): (1) ``(k-1)``-hop BFS from ``s`` on ``G``;
    (2) ``(k-1)``-hop BFS from ``t`` on ``G_rev``; (3) keep vertices with
    ``sd_s[u] + sd_t[u] <= k`` (plus ``s`` and ``t``); (4) return the induced
    subgraph in CSR form together with the barrier ``sd_t``.

    ``sd_s`` may carry a precomputed ``(k-1)``-hop forward search as the
    ``(vertices, distances)`` pair of ``k_hop_bfs(..., sparse=True)`` (from
    the service's forward-frontier memo, where same-source queries share
    it); step (1) is then skipped and its cost is whatever the memo
    charged.  The caller is responsible for ``sd_s`` matching this graph,
    source, and hop budget — the arrays here are never mutated, so a
    shared pair stays valid.

    Every step costs what the two searches reach and what the subgraph
    keeps: nothing here is sized by ``|V|``.
    """
    query.validate(graph)
    ops = counter if counter is not None else OpCounter()
    k = query.max_hops
    s, t = query.source, query.target

    if sd_s is None:
        sd_s = k_hop_bfs(graph, s, k - 1, ops, sparse=True)
    # The reverse CSR is a per-graph artifact, not per-query work: it is
    # built (and charged) once per graph and reused by every later query.
    back, sd_t = k_hop_bfs(charged_reverse(graph, ops), t, k - 1, ops,
                           sparse=True)

    # sd_s of each vertex the backward search reached, -1 if unreached.
    fwd = _scatter_lookup(graph.num_vertices, *sd_s, back)
    within = (fwd >= 0) & (fwd + sd_t <= k)
    # (k-1)-hop sufficiency: the only valid vertices a k-th BFS hop could
    # discover are s (when sd(s,t) = k) and t — keep them unconditionally.
    keep, first = np.unique(np.concatenate((back[within], [s, t])),
                            return_index=True)
    ops.add("set_insert", int(keep.size))

    subgraph = graph.induced(keep)
    ops.add("csr_build_edge", subgraph.num_edges)

    # Barrier in subgraph id space: the first occurrence of each kept
    # vertex carries its sd_t.  s and t are appended last, t at 0 and s at
    # k: unreached within k-1 hops can only be s itself, whose true
    # distance is then >= k, so k is a valid lower bound.
    barrier = np.concatenate((sd_t[within], [k, 0]))[first]
    return PreBFSResult(
        subgraph=subgraph,
        source=int(np.searchsorted(keep, s)),
        target=int(np.searchsorted(keep, t)),
        max_hops=k,
        barrier=barrier,
        old_of_new=keep,
        ops=ops,
    )
