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
All methods are thread-safe, and lookups are *single-flight*: when two
engine workers request the same missing artifact concurrently, one builds
it while the other waits and then reads the cached copy — an artifact is
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


class GraphArtifactCache:
    """Reverse-CSR, Pre-BFS, forward-frontier and result cache of a service.

    ``max_prebfs_entries`` / ``max_forward_entries`` / ``max_result_entries``
    bound the per-query memos (FIFO eviction); the per-graph reverse
    entries are unbounded — a service holds O(1) resident graphs.

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
        #: id(graph) -> (graph pin, reverse graph)
        self._reverse: dict[int, tuple[CSRGraph, CSRGraph]] = {}
        #: (id(graph), s, t, k) -> (graph pin, PreBFSResult)
        self._prebfs: OrderedDict[
            tuple[int, int, int, int], tuple[CSRGraph, PreBFSResult]
        ] = OrderedDict()
        #: ("fwd", id(graph), s, hops) -> (graph pin, (vertices, distances))
        self._forward: OrderedDict[
            tuple, tuple[CSRGraph, tuple[np.ndarray, np.ndarray]]
        ] = OrderedDict()
        #: ("res", id(graph), s, t, k, budget key) -> (graph pin, result)
        self._results: OrderedDict[tuple, tuple[CSRGraph, object]] = (
            OrderedDict()
        )
        #: single-flight latches for artifacts currently being built.
        self._inflight: dict[object, threading.Event] = {}
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

    def _claim(self, flight_key, lookup, on_hit):
        """Return a cached value or claim the build of a missing one.

        Returns ``(value, None, gen)`` on a hit or ``(None, event, gen)``
        when this caller won the single-flight claim and must build the
        artifact, then release the latch via :meth:`_release`.  Other
        concurrent callers block until the builder finishes and then read
        the cache.  ``lookup``/``on_hit`` run under the cache lock.
        ``gen`` is the cache generation at claim time: a builder must
        only insert while the generation is unchanged (:meth:`clear`
        bumps it), though the built value is still returned to its
        caller and counted as a miss either way.
        """
        while True:
            with self._lock:
                value = lookup()
                if value is not None:
                    on_hit()
                    return value, None, self._generation
                latch = self._inflight.get(flight_key)
                if latch is None:
                    latch = threading.Event()
                    self._inflight[flight_key] = latch
                    return None, latch, self._generation
            latch.wait()

    def _release(self, flight_key, latch: threading.Event) -> None:
        with self._lock:
            self._inflight.pop(flight_key, None)
        latch.set()

    def _record_build_failure(self) -> None:
        with self._lock:
            self.build_failures += 1

    # -- reverse CSR ---------------------------------------------------
    def reverse(self, graph: CSRGraph,
                counter: OpCounter | None = None,
                tracer=None) -> CSRGraph:
        """``G_rev`` for ``graph``, built at most once per graph.

        On a miss the construction cost is charged to ``counter`` (see
        :func:`repro.preprocess.bfs.charged_reverse`); hits are free.
        ``tracer`` records the lookup as a ``reverse_cache`` span tagged
        with whether it hit.
        """
        key = id(graph)
        start = time.perf_counter_ns() if tracer else 0

        def lookup():
            entry = self._reverse.get(key)
            return None if entry is None else entry[1]

        def on_hit():
            self.reverse_hits += 1
            if counter is not None:
                counter.add("rev_cache_hit")

        cached, latch, gen = self._claim(("rev", key), lookup, on_hit)
        if latch is None:
            if tracer:
                tracer.complete("reverse_cache", start, hit=True)
            return cached
        try:
            rev = charged_reverse(graph, counter)
            with self._lock:
                self.reverse_misses += 1
                if gen == self._generation:
                    self._reverse[key] = (graph, rev)
        except BaseException:
            self._record_build_failure()
            raise
        finally:
            self._release(("rev", key), latch)
        if tracer:
            tracer.complete("reverse_cache", start, hit=False)
        return rev

    def peek_reverse(self, graph: CSRGraph) -> CSRGraph | None:
        """The pinned reverse CSR, or ``None`` — never builds, never counts.

        Scheduling work estimates read the reverse through this so that a
        cold memo can never trigger an uncharged rebuild outside the
        cache's hit/miss accounting: callers fall back to out-degree
        proxies when it returns ``None``.
        """
        with self._lock:
            entry = self._reverse.get(id(graph))
            return None if entry is None else entry[1]

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
            self._reverse.setdefault(id(graph), (graph, graph.reverse()))

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
        key = ("fwd", id(graph), source, hops)
        start = time.perf_counter_ns() if tracer else 0

        def lookup():
            entry = self._forward.get(key)
            if entry is None:
                return None
            self._forward.move_to_end(key)
            return entry[1]

        def on_hit():
            self.forward_hits += 1
            if counter is not None:
                counter.add("set_lookup")

        cached, latch, gen = self._claim(key, lookup, on_hit)
        if latch is None:
            if tracer:
                tracer.complete("forward_cache", start, hit=True)
            return cached
        try:
            reached = k_hop_bfs(graph, source, hops, counter, sparse=True)
            with self._lock:
                self.forward_misses += 1
                if gen == self._generation:
                    self._forward[key] = (graph, reached)
                    while len(self._forward) > self.max_forward_entries:
                        self._forward.popitem(last=False)
        except BaseException:
            self._record_build_failure()
            raise
        finally:
            self._release(key, latch)
        if tracer:
            tracer.complete("forward_cache", start, hit=False)
        return reached

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
        key = (id(graph), query.source, query.target, query.max_hops)
        start = time.perf_counter_ns() if tracer else 0

        def lookup():
            entry = self._prebfs.get(key)
            if entry is None:
                return None
            self._prebfs.move_to_end(key)
            return entry[1]

        def on_hit():
            self.prebfs_hits += 1
            if counter is not None:
                counter.add("set_lookup")

        cached, latch, gen = self._claim(key, lookup, on_hit)
        if latch is None:
            if tracer:
                tracer.complete("prebfs_cache", start, hit=True)
            return cached
        try:
            # Route the reverse lookup through the cache first so its
            # hit/miss tally reflects this query too.
            self.reverse(graph, counter, tracer=tracer)
            if self.share_forward:
                sd_s = self.forward_frontier(
                    graph, query.source, query.max_hops - 1, counter,
                    tracer=tracer,
                )
                prep = pre_bfs(graph, query, counter, sd_s=sd_s)
            else:
                prep = pre_bfs(graph, query, counter)
            with self._lock:
                self.prebfs_misses += 1
                if gen == self._generation:
                    self._prebfs[key] = (graph, prep)
                    while len(self._prebfs) > self.max_prebfs_entries:
                        self._prebfs.popitem(last=False)
        except BaseException:
            self._record_build_failure()
            raise
        finally:
            self._release(key, latch)
        if tracer:
            tracer.complete("prebfs_cache", start, hit=False)
        return prep

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
        key = ("res", id(graph), query.source, query.target,
               query.max_hops, budget_key)
        start = time.perf_counter_ns() if tracer else 0

        def lookup():
            entry = self._results.get(key)
            if entry is None:
                return None
            self._results.move_to_end(key)
            return entry[1]

        def on_hit():
            self.result_hits += 1
            if counter is not None:
                counter.add("set_lookup")

        cached, latch, gen = self._claim(key, lookup, on_hit)
        if latch is None:
            if tracer:
                tracer.complete("result_cache", start, hit=True)
            return cached, True
        try:
            value = build()
            with self._lock:
                self.result_misses += 1
                if gen == self._generation:
                    self._results[key] = (graph, value)
                    while len(self._results) > self.max_result_entries:
                        self._results.popitem(last=False)
        except BaseException:
            self._record_build_failure()
            raise
        finally:
            self._release(key, latch)
        if tracer:
            tracer.complete("result_cache", start, hit=False)
        return value, False

    # -- introspection -------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Hit/miss counters as a plain dict (for metrics snapshots)."""
        with self._lock:
            stats = {key: getattr(self, key) for key in CACHE_STAT_KEYS}
            stats.update(prebfs_entries=len(self._prebfs),
                         forward_entries=len(self._forward),
                         result_entries=len(self._results))
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
            self._reverse.clear()
            self._prebfs.clear()
            self._forward.clear()
            self._results.clear()
