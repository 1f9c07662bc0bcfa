"""Differential suite: the multi-PE device model is PE-count-invariant.

The multi-PE driver (:func:`repro.core.multi_pe.run_multi_pe`) partitions
the CSR over ``num_pes`` processing elements and routes frontier records
over modelled FIFOs.  Its contract has two tiers:

* **N = 1 is byte-identical** to the existing engines.  Forcing the
  driver at ``num_pes=1`` must reproduce
  :class:`~repro.core.engine_reference.ReferencePEFPEngine` — and hence
  the vectorised :class:`~repro.core.engine.PEFPEngine` — exactly: same
  paths in the same order, same cycles, same
  :class:`~repro.core.engine.EngineStats`, same memory-port traffic,
  same :class:`~repro.fpga.profile.DeviceProfile`.
* **Every N enumerates the identical path set** with deterministic cycle
  accounting: for N in {1, 2, 4, 8} and both partition strategies, the
  sorted path set, path count and truncation flag equal the single-PE
  answer; repeat runs are byte-deterministic (cycles, message counts,
  profile dict); and the profile's ``inter_pe`` segment reconciles —
  ``accounted_cycles == total_cycles`` in integer arithmetic.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.core.engine_reference import ReferencePEFPEngine
from repro.core.multi_pe import run_multi_pe
from repro.fpga.device import DeviceConfig
from repro.graph import generators as G
from repro.host.query import Query
from repro.observability.tracer import Tracer
from repro.preprocess.prebfs import pre_bfs
from repro.service import BatchQueryService
from repro.workloads import generate_queries

PE_COUNTS = (1, 2, 4, 8)
STRATEGIES = ("range", "hash")


def _graphs():
    return [
        ("chung_lu", G.chung_lu(60, 320, seed=11)),
        ("grid", G.grid_graph(7, 7)),
        ("pref_attach", G.preferential_attachment(70, 3, seed=5)),
    ]


def _prepared(graph, s, t, k):
    """Pre-BFS the query; None when the subgraph is empty."""
    sub = pre_bfs(graph, Query(s, t, k))
    if sub.is_empty:
        return None
    return sub.subgraph, sub.source, sub.target, sub.barrier


def _queries(graph, k, count, seed):
    rng = random.Random(seed)
    n = graph.num_vertices
    out = []
    while len(out) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        prep = _prepared(graph, s, t, k)
        if prep is not None:
            out.append(prep)
    return out


def _spans(tracer):
    """The modelled span stream: name, track, parent, seconds, attrs."""
    return [(r.name, r.track, r.parent_id, r.modelled_seconds, r.attrs)
            for r in tracer.records()]


def _assert_identical(got, ref, tracers=None):
    """Byte-identity as asserted by the vectorisation differential."""
    assert got.paths == ref.paths  # exact order, exact tuples
    assert got.cycles == ref.cycles
    assert got.truncated == ref.truncated
    assert got.stats == ref.stats
    assert (got.device.bram.port.as_dict()
            == ref.device.bram.port.as_dict())
    assert (got.device.dram.port.as_dict()
            == ref.device.dram.port.as_dict())
    if ref.profile is not None:
        assert got.profile is not None
        assert got.profile.to_dict() == ref.profile.to_dict()
        assert got.profile.batches == ref.profile.batches
        assert got.profile.refills == ref.profile.refills
        assert (got.profile.accounted_cycles
                == got.profile.total_cycles)
    if tracers is not None:
        got_tracer, ref_tracer = tracers
        assert _spans(got_tracer) == _spans(ref_tracer)


def _fingerprint(result):
    """What every PE count must agree on (order-insensitive answers)."""
    return {
        "path_set": sorted(result.paths),
        "total_paths": result.stats.results,
        "truncated": result.truncated,
    }


def _byte_fingerprint(result):
    """What repeat runs at the same N must reproduce exactly."""
    out = {
        "paths": result.paths,
        "cycles": result.cycles,
        "stats": result.stats,
    }
    if result.profile is not None:
        out["profile"] = result.profile.to_dict()
        out["inter_pe"] = result.profile.inter_pe
    return out


def _run_pe(prep, k, num_pes, strategy="range", config=None, budget=None,
            profile=False):
    graph, s, t, barrier = prep
    dcfg = DeviceConfig(num_pes=num_pes, pe_partition=strategy)
    engine = PEFPEngine(config=config, device_config=dcfg)
    if num_pes == 1:
        # Force the driver even though ``run`` would not dispatch.
        return run_multi_pe(engine, graph, s, t, k, barrier,
                            budget=budget, profile=profile)
    return engine.run(graph, s, t, k, barrier, budget=budget,
                      profile=profile)


# ---------------------------------------------------------------------------
# Tier 1: the N=1 byte-equal gate
# ---------------------------------------------------------------------------

N1_CONFIGS = [
    ("default", PEFPConfig(), None),
    ("tiny_buffer",
     PEFPConfig(buffer_capacity_paths=4, theta1=3, theta2=8), None),
    ("no_cache", PEFPConfig(use_cache=False), None),
    ("fifo_scheduler", PEFPConfig(use_batch_dfs=False, theta2=16), None),
    ("partial_caches",
     PEFPConfig(graph_cache_words=80, barrier_cache_words=20), None),
    ("result_budget", PEFPConfig(), QueryBudget(max_results=9)),
    ("cycle_budget", PEFPConfig(), QueryBudget(max_cycles=500)),
]


@pytest.mark.parametrize("label,config,budget", N1_CONFIGS,
                         ids=[c[0] for c in N1_CONFIGS])
def test_forced_driver_n1_is_byte_identical(label, config, budget):
    """The driver at N=1 == reference loop == vectorised engine."""
    graph = G.chung_lu(60, 320, seed=11)
    rng = random.Random(17)
    n = graph.num_vertices
    checked = 0
    while checked < 4:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        k = rng.randint(3, 5)
        prep = _prepared(graph, s, t, k)
        if prep is None:
            continue
        checked += 1
        sub, ps, pt, barrier = prep
        driver_tr, ref_tr, fast_tr = Tracer(), Tracer(), Tracer()
        driver = run_multi_pe(
            PEFPEngine(config=config), sub, ps, pt, k, barrier,
            budget=budget, profile=True, tracer=driver_tr)
        ref = ReferencePEFPEngine(config=config).run(
            sub, ps, pt, k, barrier, budget=budget, profile=True,
            tracer=ref_tr)
        fast = PEFPEngine(config=config).run(
            sub, ps, pt, k, barrier, budget=budget, profile=True,
            tracer=fast_tr)
        _assert_identical(driver, ref, (driver_tr, ref_tr))
        _assert_identical(driver, fast, (driver_tr, fast_tr))


def test_run_dispatch_at_n1_uses_vectorized_path():
    """``num_pes=1`` must not even enter the driver: the result object's
    profile reports ``num_pes == 1`` and no inter-PE events, and matches
    an engine built with the default device config exactly."""
    prep = _prepared(G.grid_graph(6, 6), 0, 35, 12)
    assert prep is not None
    sub, s, t, barrier = prep
    one = PEFPEngine(device_config=DeviceConfig(num_pes=1)).run(
        sub, s, t, 12, barrier, profile=True)
    plain = PEFPEngine().run(sub, s, t, 12, barrier, profile=True)
    _assert_identical(one, plain)
    assert one.profile.num_pes == 1
    assert one.profile.inter_pe == ()
    assert one.profile.inter_pe_cycles == 0


# ---------------------------------------------------------------------------
# Tier 2: every N enumerates the identical path set, deterministically
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,graph", _graphs())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_pe_counts_enumerate_identical_paths(name, graph, strategy):
    k = 4
    for prep in _queries(graph, k, 5, seed=sum(map(ord, name))):
        base = _run_pe(prep, k, 1, strategy, profile=True)
        want = _fingerprint(base)
        for n in PE_COUNTS[1:]:
            got = _run_pe(prep, k, n, strategy, profile=True)
            assert _fingerprint(got) == want, (
                f"{name}/{strategy}: N={n} diverged from N=1"
            )
            assert (got.profile.accounted_cycles
                    == got.profile.total_cycles)
            assert got.profile.num_pes == n


@pytest.mark.parametrize("scheduler_label,config", [
    ("batch_dfs", PEFPConfig()),
    ("fifo", PEFPConfig(use_batch_dfs=False, theta2=16)),
    ("tiny_buffer", PEFPConfig(buffer_capacity_paths=4, theta1=3,
                               theta2=8)),
])
def test_pe_counts_agree_across_schedulers(scheduler_label, config):
    graph = G.chung_lu(50, 300, seed=3)
    k = 4
    for prep in _queries(graph, k, 3, seed=29):
        base = _run_pe(prep, k, 1, config=config)
        want = _fingerprint(base)
        for n in (2, 4, 8):
            got = _run_pe(prep, k, n, "hash", config=config)
            assert _fingerprint(got) == want, (
                f"{scheduler_label}: N={n} diverged"
            )


@pytest.mark.parametrize("k", (2, 3, 5))
def test_pe_counts_agree_across_hop_bounds(k):
    graph = G.preferential_attachment(70, 3, seed=5)
    for prep in _queries(graph, k, 3, seed=7 * k):
        want = _fingerprint(_run_pe(prep, k, 1))
        for n in (2, 8):
            for strategy in STRATEGIES:
                got = _run_pe(prep, k, n, strategy)
                assert _fingerprint(got) == want


@pytest.mark.parametrize("num_pes", (2, 4, 8))
def test_multi_pe_runs_are_byte_deterministic(num_pes):
    graph = G.chung_lu(60, 320, seed=11)
    k = 4
    for prep in _queries(graph, k, 3, seed=41):
        first = _run_pe(prep, k, num_pes, "hash", profile=True)
        second = _run_pe(prep, k, num_pes, "hash", profile=True)
        assert _byte_fingerprint(first) == _byte_fingerprint(second)


def test_multi_pe_respects_result_budget():
    graph = G.chung_lu(60, 340, seed=7)
    prep = _prepared(graph, 2, 40, 5)
    if prep is None:
        pytest.skip("no subgraph for this query")
    base = _run_pe(prep, 5, 1, budget=QueryBudget(max_results=9))
    for n in (2, 4, 8):
        got = _run_pe(prep, 5, n, "range",
                      budget=QueryBudget(max_results=9))
        assert len(got.paths) <= 9
        assert got.truncated == base.truncated
        # A budget-truncated prefix need not be the same *set* across PE
        # counts (delivery order differs), but every path must be valid
        # — a member of the untruncated N=1 answer.
        full = set(_run_pe(prep, 5, 1).paths)
        assert set(got.paths) <= full


def test_multi_pe_cycle_budget_truncates_deterministically():
    graph = G.chung_lu(60, 340, seed=7)
    prep = _prepared(graph, 2, 40, 5)
    if prep is None:
        pytest.skip("no subgraph for this query")
    for n in (2, 4):
        a = _run_pe(prep, 5, n, "hash", budget=QueryBudget(max_cycles=500))
        b = _run_pe(prep, 5, n, "hash", budget=QueryBudget(max_cycles=500))
        assert a.paths == b.paths
        assert a.cycles == b.cycles
        assert a.truncated == b.truncated


def test_inter_pe_segment_tiles_exactly():
    """The inter-PE charges reported in stats equal the profile's
    ``inter_pe`` events, and the profile reconciles in integer cycles."""
    graph = G.chung_lu(60, 320, seed=11)
    prep = _prepared(graph, 0, 5, 4)
    assert prep is not None
    got = _run_pe(prep, 4, 4, "hash", profile=True)
    prof = got.profile
    assert prof.accounted_cycles == prof.total_cycles
    total_events = sum(e.cycles for e in prof.inter_pe)
    assert prof.inter_pe_cycles == total_events
    stats_total = (got.stats.inter_pe_route_cycles
                   + got.stats.inter_pe_arbiter_cycles
                   + got.stats.inter_pe_stall_cycles
                   + got.stats.inter_pe_barrier_cycles)
    assert stats_total == total_events
    assert got.stats.stage_cycles.get("inter_pe", 0) == total_events
    if got.stats.inter_pe_messages:
        assert prof.inter_pe_messages == got.stats.inter_pe_messages


# ---------------------------------------------------------------------------
# Tier 3: the serving stack end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ("round-robin", "work-stealing"))
def test_service_answers_are_pe_count_invariant(scheduler):
    graph = G.chung_lu(60, 300, seed=32)
    queries = generate_queries(graph, 4, 8, seed=13)

    def serve(num_pes):
        kwargs = {}
        if num_pes > 1:
            kwargs["device_config"] = DeviceConfig(
                num_pes=num_pes, pe_partition="hash")
        service = BatchQueryService(graph, num_engines=2,
                                    scheduler=scheduler, **kwargs)
        try:
            return service.run(queries)
        finally:
            service.close()

    base = serve(1)
    for n in (2, 4):
        report = serve(n)
        assert report.path_sets() == base.path_sets()
        assert ([r.num_paths for r in report.reports]
                == [r.num_paths for r in base.reports])
        assert ([r.truncated for r in report.reports]
                == [r.truncated for r in base.reports])
