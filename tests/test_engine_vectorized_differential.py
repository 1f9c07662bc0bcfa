"""Differential suite: vectorized engine == straight-line reference loop.

The vectorized :class:`~repro.core.engine.PEFPEngine` replaces the
per-expansion Python loop with precomputed pruning tables and closed-form
cycle arithmetic.  Its contract is *byte identity* with
:class:`~repro.core.engine_reference.ReferencePEFPEngine`, which still
charges every access through the memory-model methods one call at a time:
same paths in the same order, same cycle count, same
:class:`~repro.core.engine.EngineStats` (every counter and dict), same
memory-port traffic, same cache hit/miss counters, and the same
:class:`~repro.fpga.profile.DeviceProfile` — across cache configurations,
batch schedulers, budgets, and flush/refill-heavy workloads.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.core.engine_reference import ReferencePEFPEngine
from repro.graph import generators as G
from repro.host.query import Query
from repro.observability.tracer import Tracer
from repro.preprocess.prebfs import pre_bfs


def _graphs():
    return [
        ("chung_lu", G.chung_lu(60, 320, seed=11)),
        ("grid", G.grid_graph(7, 7)),
        ("pref_attach", G.preferential_attachment(70, 3, seed=5)),
    ]


def _spans(tracer):
    """The modelled span stream: name, track, parent, seconds, attrs."""
    return [(r.name, r.track, r.parent_id, r.modelled_seconds, r.attrs)
            for r in tracer.records()]


def _assert_identical(fast, ref, tracers=None):
    assert fast.paths == ref.paths  # exact order, exact tuples
    assert fast.cycles == ref.cycles
    assert fast.truncated == ref.truncated
    assert fast.stats == ref.stats
    assert (fast.device.bram.port.as_dict()
            == ref.device.bram.port.as_dict())
    assert (fast.device.dram.port.as_dict()
            == ref.device.dram.port.as_dict())
    if ref.profile is not None:
        assert fast.profile is not None
        assert fast.profile.to_dict() == ref.profile.to_dict()
        assert fast.profile.batches == ref.profile.batches
        assert fast.profile.refills == ref.profile.refills
        assert (fast.profile.accounted_cycles
                == fast.profile.total_cycles)
    if tracers is not None:
        fast_tracer, ref_tracer = tracers
        assert _spans(fast_tracer) == _spans(ref_tracer)


def _run_both(graph, s, t, k, config=None, budget=None, profile=False,
              barrier=None):
    if barrier is None:
        sub = pre_bfs(graph, Query(s, t, k))
        if sub.is_empty:
            return None
        graph, s, t, barrier = (sub.subgraph, sub.source, sub.target,
                                sub.barrier)
    tracers = (Tracer(), Tracer()) if profile else None
    fast = PEFPEngine(config=config).run(
        graph, s, t, k, barrier, budget=budget, profile=profile,
        tracer=tracers and tracers[0])
    ref = ReferencePEFPEngine(config=config).run(
        graph, s, t, k, barrier, budget=budget, profile=profile,
        tracer=tracers and tracers[1])
    _assert_identical(fast, ref, tracers)
    return fast


@pytest.mark.parametrize("name,graph", _graphs())
def test_default_config_is_byte_identical(name, graph):
    rng = random.Random(17)
    n = graph.num_vertices
    checked = 0
    while checked < 8:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        if _run_both(graph, s, t, rng.randint(2, 5), profile=True):
            checked += 1


def test_tiny_buffer_forces_flush_and_refill():
    """Exercise the flush/refill cold paths heavily: capacity 4 paths."""
    graph = G.chung_lu(50, 300, seed=3)
    cfg = PEFPConfig(buffer_capacity_paths=4, theta1=3, theta2=8)
    rng = random.Random(5)
    n = graph.num_vertices
    runs = 0
    flush_seen = refill_seen = False
    while runs < 10:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        got = _run_both(graph, s, t, 4, config=cfg, profile=True)
        if got is None:
            continue
        runs += 1
        flush_seen = flush_seen or got.stats.flushes > 0
        refill_seen = refill_seen or got.stats.refills > 0
    assert flush_seen and refill_seen


def test_no_cache_ablation_matches_and_is_labeled():
    graph = G.grid_graph(6, 6)
    cfg = PEFPConfig(use_cache=False)
    got = _run_both(graph, 0, 35, 12, config=cfg, profile=True)
    assert got is not None
    assert got.stats.buffer_domain == "dram"
    assert got.profile.buffer_domain == "dram"
    assert got.profile.to_dict()["buffer_domain"] == "dram"


def test_bram_mode_is_labeled():
    graph = G.grid_graph(4, 4)
    got = _run_both(graph, 0, 15, 6, profile=True)
    assert got is not None
    assert got.stats.buffer_domain == "bram"
    assert got.profile.buffer_domain == "bram"


def test_fifo_scheduler_matches():
    graph = G.chung_lu(45, 260, seed=9)
    cfg = PEFPConfig(use_batch_dfs=False, theta2=16)
    rng = random.Random(2)
    n = graph.num_vertices
    runs = 0
    while runs < 6:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        if _run_both(graph, s, t, 4, config=cfg):
            runs += 1


def test_basic_pipeline_matches():
    graph = G.chung_lu(40, 220, seed=21)
    cfg = PEFPConfig(use_data_separation=False)
    assert _run_both(graph, 1, 30, 4, config=cfg, profile=True) is not None


def test_partial_caches_match():
    """Caches sized to split hits and misses on every array."""
    graph = G.chung_lu(64, 420, seed=13)
    cfg = PEFPConfig(graph_cache_words=80, barrier_cache_words=20)
    rng = random.Random(31)
    n = graph.num_vertices
    runs = 0
    while runs < 6:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        if _run_both(graph, s, t, 4, config=cfg, profile=True):
            runs += 1


def test_result_budget_matches():
    graph = G.chung_lu(60, 340, seed=7)
    got = _run_both(graph, 2, 40, 5, budget=QueryBudget(max_results=9))
    if got is not None:
        assert len(got.paths) <= 9


def test_cycle_budget_matches():
    graph = G.chung_lu(60, 340, seed=7)
    _run_both(graph, 2, 40, 5, budget=QueryBudget(max_cycles=500))


def test_streaming_and_no_collect_match():
    sub = pre_bfs(G.chung_lu(50, 280, seed=19), Query(0, 30, 4))
    if sub.is_empty:
        pytest.skip("no subgraph for this query")
    seen_fast: list = []
    seen_ref: list = []
    fast = PEFPEngine().run(sub.subgraph, sub.source, sub.target, 4,
                            sub.barrier, on_result=seen_fast.append,
                            collect_paths=False)
    ref = ReferencePEFPEngine().run(sub.subgraph, sub.source, sub.target, 4,
                                    sub.barrier, on_result=seen_ref.append,
                                    collect_paths=False)
    assert seen_fast == seen_ref
    assert fast.paths == [] == ref.paths
    assert fast.cycles == ref.cycles
    assert fast.stats == ref.stats


def test_raw_graph_zero_barrier_matches():
    """No Pre-BFS, all-zero barrier: pruning disabled, children may reach
    the hop bound — exercises the h + 1 <= k guard on target emission."""
    graph = G.grid_graph(4, 4)
    barrier = np.zeros(graph.num_vertices, dtype=np.int64)
    _run_both(graph, 0, 15, 5, barrier=barrier)


def test_supernode_partial_ranges_match():
    """A hub whose degree far exceeds Θ2 resumes across many batches."""
    edges = [(0, i) for i in range(1, 60)]
    edges += [(i, 60) for i in range(1, 60)]
    from repro.graph.csr import CSRGraph
    graph = CSRGraph.from_edges(61, edges)
    cfg = PEFPConfig(theta2=7)
    barrier = np.full(61, 1, dtype=np.int64)
    barrier[60] = 0
    _run_both(graph, 0, 60, 3, config=cfg, barrier=barrier)
