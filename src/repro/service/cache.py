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
All four memos run one protocol (:meth:`GraphArtifactCache._memo`): every
method is thread-safe, and lookups are *single-flight* — when two engine
workers request the same missing artifact concurrently, one builds it
while the other waits and then reads the cached copy, so an artifact is
never computed twice.  A builder that *raises* releases its latch without
recording a miss (only ``build_failures`` ticks); the waiters re-probe,
one re-claims, and the eventual successful build counts the single miss.
"""

from __future__ import annotations

import threading
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

#: memo name -> the attribute bounding its size (``None``: unbounded).
_BOUNDS = {"reverse": None, "prebfs": "max_prebfs_entries",
           "forward": "max_forward_entries", "result": "max_result_entries"}
#: memo name -> (hits counter, misses counter, bound, span name), named
#: once here so the hit path formats no strings.
_MEMOS = {name: (f"{name}_hits", f"{name}_misses", bound, f"{name}_cache")
          for name, bound in _BOUNDS.items()}


class GraphArtifactCache:
    """Reverse-CSR, Pre-BFS, forward-frontier and result cache of a service.

    ``max_prebfs_entries`` / ``max_forward_entries`` / ``max_result_entries``
    bound the per-query memos (least-recently-used eviction: a hit
    refreshes its entry); the per-graph reverse entries are unbounded — a
    service holds O(1) resident graphs.

    ``share_forward=True`` routes :meth:`pre_bfs` misses through the
    forward-frontier memo so same-source queries share their forward BFS.
    It is off by default because a forward-memo hit charges a probe where
    an unshared Pre-BFS charges the full BFS — sharing services opt in
    (see ``BatchQueryService(sharing=True)``); everyone else keeps the
    historical per-query charges.
    """

    def __init__(self, max_prebfs_entries: int = 4096,
                 max_forward_entries: int = 1024,
                 max_result_entries: int = 4096,
                 share_forward: bool = False) -> None:
        self._lock = threading.Lock()
        #: memo name -> key -> (graph pin, artifact), in recency order;
        #: a key is id(graph) (reverse) or a tuple that starts with it.
        self._tables = {name: OrderedDict() for name in _MEMOS}
        #: single-flight latches for artifacts currently being built,
        #: keyed by (memo name, key).
        self._inflight: dict[tuple, threading.Event] = {}
        #: bumped by :meth:`clear`; builds claimed under an older
        #: generation discard their insert (see :meth:`clear`).
        self._generation = 0
        self.max_prebfs_entries = max_prebfs_entries
        self.max_forward_entries = max_forward_entries
        self.max_result_entries = max_result_entries
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
        """The single-flight memo protocol; returns ``(value, hit)``.

        A hit refreshes the entry's recency, ticks ``<name>_hits`` and
        charges one ``hit_op`` to ``counter``.  A miss claims the build
        latch of ``(name, key)`` — concurrent callers of the same key block
        on it, then re-probe — and runs ``build()``, whose own charges are
        the miss's cost.  The value is inserted only while the cache
        generation is unchanged since the claim (:meth:`clear` bumps it),
        evicting the least recently used entries beyond the memo's bound;
        either way it is returned and ``<name>_misses`` ticks.  A raising
        ``build`` ticks ``build_failures`` only and releases the latch.
        ``tracer`` records the lookup as a ``<name>_cache`` span tagged
        with whether it hit.
        """
        start = time.perf_counter_ns() if tracer else 0
        hits, misses, bound, span = _MEMOS[name]
        table = self._tables[name]
        while True:
            with self._lock:
                entry = table.get(key)
                if entry is not None:
                    table.move_to_end(key)
                    setattr(self, hits, getattr(self, hits) + 1)
                    break
                flight = (name, key)
                latch = self._inflight.get(flight)
                if latch is None:
                    latch = self._inflight[flight] = threading.Event()
                    gen = self._generation
                    break
            latch.wait()
        if entry is not None:
            if counter is not None:
                counter.add(hit_op)
            if tracer:
                tracer.complete(span, start, hit=True)
            return entry[1], True
        try:
            value = build()
            with self._lock:
                setattr(self, misses, getattr(self, misses) + 1)
                if gen == self._generation:
                    table[key] = (graph, value)
                    if bound is not None:
                        limit = getattr(self, bound)
                        while len(table) > limit:
                            table.popitem(last=False)
        except BaseException:
            with self._lock:
                self.build_failures += 1
            raise
        finally:
            with self._lock:
                del self._inflight[flight]
            latch.set()
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
        with self._lock:
            self._tables["reverse"].setdefault(
                id(graph), (graph, graph.reverse())
            )

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
        """Single-flight memo of one query's full end-to-end result.

        ``build`` runs the query (once, under the single-flight claim)
        and its return value is memoised under
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
        with self._lock:
            stats = {key: getattr(self, key) for key in CACHE_STAT_KEYS}
            for name, (_, _, bound, _) in _MEMOS.items():
                if bound is not None:
                    stats[f"{name}_entries"] = len(self._tables[name])
            return stats

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept).

        Safe against builders in flight: clearing bumps the cache
        generation, and a build claimed under an older generation
        discards its insert on completion — so a builder racing with
        ``clear()`` can never silently repopulate the just-cleared cache.
        The discarded build still returns its value to its caller and
        still counts as a miss (the work was done and charged).
        In-flight latches stay armed: their waiters wake when the builder
        releases, re-probe the now-empty cache, and rebuild into the new
        generation.
        """
        with self._lock:
            self._generation += 1
            for table in self._tables.values():
                table.clear()
