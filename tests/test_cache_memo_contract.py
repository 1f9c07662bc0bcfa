"""One contract for all four memos of :class:`GraphArtifactCache`.

The reverse CSR, Pre-BFS, forward-frontier and result memos share one
protocol, run by one thread at a time.  Each test here runs against
every memo through its public method, with the memo's builder replaced
by a counting stand-in: ``charged_reverse``, ``pre_bfs`` and
``k_hop_bfs`` are monkeypatched in ``repro.service.cache``, and
``result`` is handed the stand-in as its ``build`` argument.
"""

import pytest

import repro.service.cache as cache_mod
from repro.graph import generators as G
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.observability import Tracer
from repro.service.cache import GraphArtifactCache

#: memo name -> (module builder patched, or None for ``result``; hit
#: charge)
MEMOS = {
    "reverse": ("charged_reverse", "rev_cache_hit"),
    "prebfs": ("pre_bfs", "set_lookup"),
    "forward": ("k_hop_bfs", "set_lookup"),
    "result": (None, "set_lookup"),
}
BOUNDED = list(cache_mod.MEMO_BOUNDS)


class Builder:
    """Stand-in builder: counts calls and can fail once.

    Every successful call returns a fresh object, so identity tells which
    build a caller's value came from.
    """

    def __init__(self):
        self.calls = 0
        self.fail_next = False

    def __call__(self, *args, **kwargs):
        self.calls += 1
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


def cache_spans(tracer, name):
    return [r for r in tracer.records() if r.name == f"{name}_cache"]


def test_raising_build_counts_no_miss(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    builder.fail_next = True
    with pytest.raises(RuntimeError):
        lookup(cache)
    assert cache.build_failures == 1
    assert counts(cache, name) == (0, 0)
    if name in BOUNDED:
        assert cache.stats()[f"{name}_entries"] == 0
    # Nothing was inserted: the next lookup builds once, one miss.
    built = lookup(cache)
    assert builder.calls == 2
    assert counts(cache, name) == (0, 1)
    assert lookup(cache) is built
    assert counts(cache, name) == (1, 1)
    assert cache.build_failures == 1


def test_clear_drops_entries_keeps_counters(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    first = lookup(cache)
    assert lookup(cache) is first
    cache.clear()
    assert counts(cache, name) == (1, 1)
    rebuilt = lookup(cache)
    assert rebuilt is not first
    assert counts(cache, name) == (1, 2)
    assert lookup(cache) is rebuilt
    assert counts(cache, name) == (2, 2)
    assert builder.calls == 2
    assert cache.build_failures == 0


def test_miss_records_span(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    tracer = Tracer()
    lookup(cache, tracer=tracer)
    spans = cache_spans(tracer, name)
    assert len(spans) == 1
    assert spans[0].attrs["hit"] is False
    assert tracer.open_spans == 0


def test_hit_charges_own_op_and_records_span(memo):
    name, lookup, builder = memo
    cache = GraphArtifactCache()
    built = lookup(cache)
    ops = OpCounter()
    tracer = Tracer()
    assert lookup(cache, counter=ops, tracer=tracer) is built
    assert ops.as_dict() == {MEMOS[name][1]: 1}
    spans = cache_spans(tracer, name)
    assert len(spans) == 1
    assert spans[0].attrs["hit"] is True
    assert builder.calls == 1


@pytest.mark.parametrize("memo", BOUNDED, indirect=True)
def test_hit_refreshes_recency(memo, monkeypatch):
    name, lookup, builder = memo
    monkeypatch.setitem(cache_mod.MEMO_BOUNDS, name, 2)
    cache = GraphArtifactCache()
    a = lookup(cache, key=0)
    b = lookup(cache, key=1)
    assert lookup(cache, key=0) is a  # a is now the most recent
    lookup(cache, key=2)  # evicts the least recently used: b
    assert cache.stats()[f"{name}_entries"] == 2
    assert lookup(cache, key=0) is a
    assert lookup(cache, key=1) is not b
    assert counts(cache, name) == (2, 4)
