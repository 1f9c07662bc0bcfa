"""One contract for all four memos of :class:`GraphArtifactCache`.

The reverse CSR, Pre-BFS, forward-frontier and result memos share one
single-flight protocol.  Each test here runs against every memo through
its public method, with the memo's builder replaced by a controllable
stand-in: ``charged_reverse``, ``pre_bfs`` and ``k_hop_bfs`` are
monkeypatched in ``repro.service.cache``, and ``result`` is handed the
stand-in as its ``build`` argument.
"""

import sys
import threading
import time

import pytest

import repro.service.cache as cache_mod
from repro.graph import generators as G
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.observability import Tracer
from repro.service.cache import GraphArtifactCache

#: memo name -> (module builder patched, or None for ``result``; hit
#: charge; constructor bound, or None when unbounded)
MEMOS = {
    "reverse": ("charged_reverse", "rev_cache_hit", None),
    "prebfs": ("pre_bfs", "set_lookup", "max_prebfs_entries"),
    "forward": ("k_hop_bfs", "set_lookup", "max_forward_entries"),
    "result": (None, "set_lookup", "max_result_entries"),
}
BOUNDED = [name for name, (_, _, bound) in MEMOS.items() if bound]


class Builder:
    """Stand-in builder: counts calls, can block on a gate, can fail once.

    Every successful call returns a fresh object, so identity tells which
    build a caller's value came from.
    """

    def __init__(self):
        self.calls = 0
        self.started = threading.Event()
        self.gate: threading.Event | None = None
        self.fail_next = False

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=5.0)
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected builder failure")
        return object()


@pytest.fixture
def graph():
    return G.gnm_random(30, 140, seed=9)


@pytest.fixture(params=list(MEMOS))
def memo(request, monkeypatch, graph):
    """``(name, lookup, builder)`` for one memo; ``lookup(cache, key=0,
    counter=None, tracer=None)`` calls its public method and returns the
    artifact.  The reverse memo has one key per graph, so only the
    bounded memos take other keys."""
    name = request.param
    patched = MEMOS[name][0]
    builder = Builder()
    if patched is not None:
        monkeypatch.setattr(cache_mod, patched, builder)

    def lookup(cache, key=0, counter=None, tracer=None):
        if name == "reverse":
            return cache.reverse(graph, counter, tracer=tracer)
        if name == "prebfs":
            return cache.pre_bfs(graph, Query(0, 5 + key, 4), counter,
                                 tracer=tracer)
        if name == "forward":
            return cache.forward_frontier(graph, key, 3, counter,
                                          tracer=tracer)
        return cache.result(graph, Query(0, 5 + key, 4), None, builder,
                            counter, tracer=tracer)[0]

    return name, lookup, builder


def counts(cache, name):
    return getattr(cache, f"{name}_hits"), getattr(cache, f"{name}_misses")


def run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    return threads


def join(threads):
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()


def test_single_flight_under_eight_threads(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    builder.gate = threading.Event()
    start = threading.Barrier(8)
    results = []

    def worker():
        start.wait(timeout=5.0)
        results.append(lookup(cache))

    threads = run_threads([worker] * 8)
    assert builder.started.wait(timeout=5.0)
    time.sleep(0.05)  # let the other seven queue on the build latch
    builder.gate.set()
    join(threads)
    assert builder.calls == 1
    assert counts(cache, name) == (7, 1)
    assert len(results) == 8
    assert all(r is results[0] for r in results)


def test_concurrent_hits_lose_no_count(memo):
    """Counters are read-modify-write under contention: with a tiny switch
    interval, 8 threads x 200 lookups must count every hit."""
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    built = lookup(cache)
    seen = []

    def worker():
        seen.extend(lookup(cache) for _ in range(200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        join(run_threads([worker] * 8))
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 1600 and all(v is built for v in seen)
    assert counts(cache, name) == (1600, 1)
    assert builder.calls == 1


def test_raising_build_releases_waiters_and_counts_no_miss(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    builder.gate = threading.Event()
    builder.fail_next = True
    outcomes = []

    def first():
        with pytest.raises(RuntimeError):
            lookup(cache)
        outcomes.append("raised")

    def second():
        outcomes.append(lookup(cache))

    threads = run_threads([first])
    assert builder.started.wait(timeout=5.0)
    threads += run_threads([second])
    time.sleep(0.05)  # the second caller waits on the failing build
    builder.gate.set()
    join(threads)
    assert "raised" in outcomes and len(outcomes) == 2
    assert cache.build_failures == 1
    # The retry built once more and counts the one miss.
    assert builder.calls == 2
    assert counts(cache, name) == (0, 1)
    retried = next(o for o in outcomes if o != "raised")
    assert lookup(cache) is retried
    assert counts(cache, name) == (1, 1)


def test_clear_during_build_discards_insert_keeps_counters(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    first = lookup(cache)
    assert lookup(cache) is first
    cache.clear()
    assert counts(cache, name) == (1, 1)

    builder.started = threading.Event()
    builder.gate = threading.Event()
    results = []
    threads = run_threads([lambda: results.append(lookup(cache))])
    assert builder.started.wait(timeout=5.0)
    cache.clear()  # races with the in-flight build
    builder.gate.set()
    join(threads)
    # The racing build still answers its caller and counts its miss ...
    assert results[0] is not first
    assert counts(cache, name) == (1, 2)
    # ... but its insert was discarded: the next lookup builds again.
    rebuilt = lookup(cache)
    assert rebuilt is not results[0]
    assert counts(cache, name) == (1, 3)
    assert builder.calls == 3
    assert cache.build_failures == 0


def test_hit_charges_own_op_and_records_span(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    built = lookup(cache)
    ops = OpCounter()
    tracer = Tracer()
    assert lookup(cache, counter=ops, tracer=tracer) is built
    assert ops.as_dict() == {MEMOS[name][1]: 1}
    spans = [r for r in tracer.records() if r.name == f"{name}_cache"]
    assert len(spans) == 1
    assert spans[0].attrs["hit"] is True
    assert builder.calls == 1


@pytest.mark.parametrize("memo", BOUNDED, indirect=True)
def test_hit_refreshes_recency(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache(**{MEMOS[name][2]: 2})
    a = lookup(cache, key=0)
    b = lookup(cache, key=1)
    assert lookup(cache, key=0) is a  # a is now the most recent
    lookup(cache, key=2)  # evicts the least recently used: b
    assert cache.stats()[f"{name}_entries"] == 2
    assert lookup(cache, key=0) is a
    assert lookup(cache, key=1) is not b
    assert counts(cache, name) == (2, 4)
