"""Shared per-graph preprocessing artifacts for the batch service.

The paper ships 1,000 queries per batch against one resident graph, so
everything derivable from the graph alone — above all the reverse CSR that
every Pre-BFS walks backwards from ``t`` — is a *batch* artifact, not
per-query work.  :class:`GraphArtifactCache` pins those artifacts, exposes
hit/miss counters for the service's metrics report, and additionally
memoises whole :class:`PreBFSResult` objects so duplicate queries inside a
batch (common under heavy real traffic) skip preprocessing entirely.

Cross-query sharing adds two more memo layers on top:

- the **forward-frontier memo** (:meth:`forward_frontier`) shares the
  ``(k-1)``-hop forward BFS from ``s`` across every query of a source
  group — the batch hop-constrained path literature's observation that
  real batches repeat sources heavily;
- the **result cache** (:meth:`result`) memoises whole end-to-end query
  results keyed by ``(graph, s, t, k, budget)``, so a batch with
  duplicate queries runs each distinct query exactly once.

Both follow the Pre-BFS memo's charging convention: a hit charges one
``set_lookup`` memo probe, a miss charges the full build cost.

The cache is keyed by graph *identity*: artifacts are only valid for the
exact immutable :class:`CSRGraph` instance they were derived from, and
keying by ``id()`` (with a pinning reference) avoids hashing the arrays.
All four memos run one protocol (:meth:`GraphArtifactCache._memo`).  The
cache is a one-thread object: the in-process executor serves its engines
in order on the calling thread and every process worker holds a private
cache, so no two lookups ever overlap and the memos need no lock.  A
builder that *raises* inserts nothing and records no miss (only
``build_failures`` ticks); the next lookup builds again and counts the
one miss.
"""

from __future__ import annotations

import time
from collections import OrderedDict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import charged_reverse, k_hop_bfs
from repro.preprocess.prebfs import PreBFSResult, pre_bfs

#: the hit/miss counters of :meth:`GraphArtifactCache.stats` — what the
#: service folds into its metrics registry per batch.  ``stats()`` also
#: reports the memo sizes (``*_entries``), which are levels, not counters.
CACHE_STAT_KEYS = (
    "reverse_hits", "reverse_misses",
    "prebfs_hits", "prebfs_misses",
    "forward_hits", "forward_misses",
    "result_hits", "result_misses",
    "build_failures",
)

#: memo name -> most entries kept (least-recently-used eviction past it);
#: read at lookup time.  The per-graph reverse memo is unbounded — a
#: service holds O(1) resident graphs.
MEMO_BOUNDS = {"prebfs": 4096, "forward": 1024, "result": 4096}
#: memo name -> (hits counter, misses counter, span name), named once
#: here so the hit path formats no strings.
_MEMOS = {name: (f"{name}_hits", f"{name}_misses", f"{name}_cache")
          for name in ("reverse", "prebfs", "forward", "result")}


class GraphArtifactCache:
    """Reverse-CSR, Pre-BFS, forward-frontier and result cache of a service.

    The per-query memos are bounded by :data:`MEMO_BOUNDS`
    (least-recently-used eviction: a hit refreshes its entry); the
    per-graph reverse entries are unbounded.

    ``share_forward=True`` routes :meth:`pre_bfs` misses through the
    forward-frontier memo so same-source queries share their forward BFS.
    It is off by default because a forward-memo hit charges a probe where
    an unshared Pre-BFS charges the full BFS — sharing services opt in
    (see ``BatchQueryService(sharing=True)``); everyone else keeps the
    historical per-query charges.
    """

    def __init__(self, share_forward: bool = False) -> None:
        #: memo name -> key -> (graph pin, artifact), in recency order;
        #: a key is id(graph) (reverse) or a tuple that starts with it.
        self._tables = {name: OrderedDict() for name in _MEMOS}
        self.share_forward = share_forward
        self.reverse_hits = 0
        self.reverse_misses = 0
        self.prebfs_hits = 0
        self.prebfs_misses = 0
        self.forward_hits = 0
        self.forward_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        #: builders that raised instead of inserting (no miss is counted
        #: for them; the retry that succeeds counts the one miss).
        self.build_failures = 0

    def _memo(self, name: str, key, graph: CSRGraph, build,
              counter: OpCounter | None, hit_op: str,
              tracer) -> tuple[object, bool]:
        """The memo protocol; returns ``(value, hit)``.

        A hit refreshes the entry's recency, ticks ``<name>_hits`` and
        charges one ``hit_op`` to ``counter``.  A miss runs ``build()``,
        whose own charges are the miss's cost, ticks ``<name>_misses``
        and inserts the value, evicting the least recently used entries
        beyond the memo's bound.  A raising ``build`` ticks
        ``build_failures`` only, inserts nothing and re-raises.
        ``tracer`` records the lookup as a ``<name>_cache`` span tagged
        with whether it hit.
        """
        start = time.perf_counter_ns() if tracer else 0
        hits, misses, span = _MEMOS[name]
        table = self._tables[name]
        entry = table.get(key)
        if entry is not None:
            table.move_to_end(key)
            setattr(self, hits, getattr(self, hits) + 1)
            if counter is not None:
                counter.add(hit_op)
            if tracer:
                tracer.complete(span, start, hit=True)
            return entry[1], True
        try:
            value = build()
        except BaseException:
            self.build_failures += 1
            raise
        setattr(self, misses, getattr(self, misses) + 1)
        table[key] = (graph, value)
        limit = MEMO_BOUNDS.get(name)
        if limit is not None:
            while len(table) > limit:
                table.popitem(last=False)
        if tracer:
            tracer.complete(span, start, hit=False)
        return value, False

    # -- reverse CSR ---------------------------------------------------
    def reverse(self, graph: CSRGraph,
                counter: OpCounter | None = None,
                tracer=None) -> CSRGraph:
        """``G_rev`` for ``graph``, built at most once per graph.

        On a miss the construction cost is charged to ``counter`` (see
        :func:`repro.preprocess.bfs.charged_reverse`); a hit charges only
        the zero-cost ``rev_cache_hit`` marker.  ``tracer`` records the
        lookup as a ``reverse_cache`` span tagged with whether it hit.
        """
        return self._memo(
            "reverse", id(graph), graph,
            lambda: charged_reverse(graph, counter),
            counter, "rev_cache_hit", tracer,
        )[0]

    def warm(self, graph: CSRGraph,
             counter: OpCounter | None = None,
             tracer=None) -> CSRGraph:
        """Eagerly build the per-graph artifacts before a batch runs.

        Charges the one-time build to ``counter`` so the service can
        account it as batch setup instead of inflating the first query's
        ``T1``.
        """
        return self.reverse(graph, counter, tracer=tracer)

    def adopt(self, graph: CSRGraph) -> None:
        """Pin ``graph``'s already-built reverse CSR without a miss.

        The process-parallel backend ships each worker a pickled graph
        whose reverse CSR memo rides along (the coordinator warms it
        first), so the worker-local cache should treat the artifact as
        resident from the start: lookups hit, nothing is rebuilt, and no
        spurious miss is counted.  A graph with no cached reverse yet is
        left alone — the first lookup will build and charge it normally.
        """
        if not graph.has_cached_reverse:
            return
        self._tables["reverse"].setdefault(id(graph),
                                           (graph, graph.reverse()))

    # -- forward-frontier memo -----------------------------------------
    def forward_frontier(self, graph: CSRGraph, source: int, hops: int,
                         counter: OpCounter | None = None,
                         tracer=None) -> tuple[np.ndarray, np.ndarray]:
        """Memoised ``hops``-hop forward BFS from ``source``.

        The group-shared artifact of cross-query sharing: every query
        with source ``s`` and hop budget ``k`` walks the same
        ``(k-1)``-hop forward frontier, so it is keyed by
        ``(graph, s, hops)`` and built once per source group.  A hit
        charges one ``set_lookup`` memo probe; a miss runs the BFS,
        charging its full cost.  The result is the sparse
        ``(vertices, distances)`` pair of the reached vertices, so an entry
        costs what the search reached, not ``|V|``.  It is shared —
        callers must not mutate it.
        """
        return self._memo(
            "forward", (id(graph), source, hops), graph,
            lambda: k_hop_bfs(graph, source, hops, counter, sparse=True),
            counter, "set_lookup", tracer,
        )[0]

    # -- Pre-BFS memo --------------------------------------------------
    def pre_bfs(self, graph: CSRGraph, query: Query,
                counter: OpCounter | None = None,
                tracer=None) -> PreBFSResult:
        """Memoised :func:`repro.preprocess.prebfs.pre_bfs`.

        A hit charges one ``set_lookup`` (the memo probe) to ``counter``;
        a miss runs Pre-BFS normally, charging its full cost.  With
        ``share_forward`` set, a miss reads its forward BFS through
        :meth:`forward_frontier` so same-source queries compute it once.
        ``tracer`` records the lookup as a ``prebfs_cache`` span tagged
        with whether it hit.
        """

        def build():
            # Route the reverse lookup through the cache first so its
            # hit/miss tally reflects this query too.
            self.reverse(graph, counter, tracer=tracer)
            sd_s = None
            if self.share_forward:
                sd_s = self.forward_frontier(
                    graph, query.source, query.max_hops - 1, counter,
                    tracer=tracer,
                )
            return pre_bfs(graph, query, counter, sd_s=sd_s)

        return self._memo(
            "prebfs", (id(graph), query.source, query.target, query.max_hops),
            graph, build, counter, "set_lookup", tracer,
        )[0]

    # -- result cache --------------------------------------------------
    def result(self, graph: CSRGraph, query: Query, budget_key,
               build, counter: OpCounter | None = None,
               tracer=None) -> tuple[object, bool]:
        """Memo of one query's full end-to-end result.

        ``build`` runs the query on a miss and its return value is memoised under
        ``(graph, s, t, k, budget_key)``; ``budget_key`` must capture
        every term that can change the answer or its accounting (budget
        caps, profiling) because a truncated answer is only valid under
        the budget that produced it.  Returns ``(value, hit)``.

        A hit charges one ``set_lookup`` memo probe to ``counter`` — the
        same convention as the Pre-BFS memo — and the caller is expected
        to re-label the shared value's preprocessing cost with that probe
        (see :meth:`repro.service.batch.EngineServer.serve`); a miss
        charges whatever ``build`` charges.
        """
        key = (id(graph), query.source, query.target, query.max_hops,
               budget_key)
        return self._memo("result", key, graph, build, counter,
                          "set_lookup", tracer)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Hit/miss counters as a plain dict (for metrics snapshots)."""
        stats = {key: getattr(self, key) for key in CACHE_STAT_KEYS}
        for name in MEMO_BOUNDS:
            stats[f"{name}_entries"] = len(self._tables[name])
        return stats

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        for table in self._tables.values():
            table.clear()
