"""Unit tests of the process-parallel backend's moving parts.

The oracle harness (oracle.py) proves executor equivalence end to end;
these tests pin the individual mechanisms it relies on —
artifact adoption, trace-span ingestion, pool lifecycle, and recovery
when a worker *process* dies outright.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time

import pytest

from repro.errors import ConfigError, ServiceError
from repro.graph import generators as G
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem
from repro.observability.tracer import Tracer
from repro.service import (
    BatchQueryService,
    GraphArtifactCache,
    steal_order,
)


def make_batch(count=10, seed=3):
    graph = G.gnm_random(45, 170, seed=50)
    rng = random.Random(seed)
    n = graph.num_vertices
    queries = []
    while len(queries) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            queries.append(Query(s, t, rng.randint(2, 4)))
    return graph, queries


# -- artifact adoption -------------------------------------------------
class TestCacheAdopt:
    def test_adopt_pins_shipped_reverse_without_a_miss(self):
        graph = G.gnm_random(20, 60, seed=1)
        graph.reverse()  # memoise, as the coordinator's warmup does
        cache = GraphArtifactCache()
        cache.adopt(graph)
        rev = cache.reverse(graph)
        assert rev is graph.reverse()
        stats = cache.stats()
        assert stats["reverse_hits"] == 1
        assert stats["reverse_misses"] == 0

    def test_adopt_of_cold_graph_is_a_no_op(self):
        graph = G.gnm_random(20, 60, seed=2)
        cache = GraphArtifactCache()
        cache.adopt(graph)
        cache.reverse(graph)
        assert cache.stats()["reverse_misses"] == 1


# -- trace ingestion ---------------------------------------------------
class TestTracerIngest:
    def test_ingest_remaps_ids_and_preserves_parents(self):
        worker = Tracer()
        with worker.track("engine1"):
            with worker.span("query") as outer:
                with worker.span("kernel"):
                    pass
            assert outer is not None
        coordinator = Tracer()
        with coordinator.span("serve_batch"):
            pass
        coordinator.ingest(worker.records())
        records = coordinator.records()
        ids = [r.span_id for r in records]
        assert len(ids) == len(set(ids)) == 3
        by_name = {r.name: r for r in records}
        assert by_name["kernel"].parent_id == by_name["query"].span_id
        assert by_name["query"].parent_id is None
        assert by_name["kernel"].track == "engine1"

    def test_ingest_from_two_workers_never_collides(self):
        workers = []
        for w in range(2):
            t = Tracer()
            with t.span(f"q{w}"):
                pass
            workers.append(t)
        coordinator = Tracer()
        for t in workers:
            coordinator.ingest(t.records())
        ids = [r.span_id for r in coordinator.records()]
        assert len(ids) == len(set(ids)) == 2


# -- steal order -------------------------------------------------------
class TestStealOrder:
    def test_heaviest_first_with_graph(self):
        graph = G.hub_spoke(2, 6, hub_clique_p=1.0, seed=9)
        queries = [Query(0, 1, 2), Query(0, 1, 6), Query(0, 1, 4)]
        order = steal_order(queries, graph=graph)
        assert order[0] == 1  # largest hop budget = heaviest estimate
        assert sorted(order) == [0, 1, 2]

    def test_explicit_weights_override(self):
        queries = [Query(0, 1, 2)] * 3
        assert steal_order(queries, weights=[1.0, 9.0, 5.0]) == [1, 2, 0]

    def test_fallback_is_arrival_order(self):
        queries = [Query(0, 1, 2)] * 4
        assert steal_order(queries) == [0, 1, 2, 3]

    def test_weight_count_mismatch_raises(self):
        with pytest.raises(ConfigError):
            steal_order([Query(0, 1, 2)], weights=[1.0, 2.0])


# -- service validation ------------------------------------------------
class TestServiceConfig:
    def test_unknown_backend_rejected(self):
        graph, _ = make_batch()
        with pytest.raises(ConfigError):
            BatchQueryService(graph, backend="gpu")

    def test_work_stealing_is_a_valid_scheduler(self):
        graph, queries = make_batch(count=4)
        report = BatchQueryService(
            graph, num_engines=2, scheduler="work-stealing"
        ).run(queries)
        assert report.scheduler == "work-stealing"
        assert report.num_queries == len(queries)

    def test_in_process_stealing_follows_the_modelled_clock(self):
        """Each group goes to the engine with the least host + device
        busy time when it is taken, ties to the lowest index: a replay
        from the answers' own T1 and T2 gives the same assignment."""
        graph, queries = make_batch(count=12)
        report = BatchQueryService(
            graph, num_engines=3, scheduler="work-stealing"
        ).run(queries)
        host, device = [0.0] * 3, [0.0] * 3
        replay = [[] for _ in range(3)]
        for i in steal_order(queries, graph=graph):
            e = min(range(3), key=lambda e: host[e] + device[e])
            replay[e].append(i)
            host[e] += report.reports[i].preprocess_seconds
            device[e] += report.reports[i].query_seconds
        assert report.assignment == replay
        assert all(replay)
        assert report.engine_host_seconds == host
        assert report.engine_device_seconds == device

    @pytest.mark.parametrize("scheduler", ["round-robin", "work-stealing"])
    def test_engines_run_on_the_calling_thread(self, scheduler):
        graph, queries = make_batch(count=8)
        service = BatchQueryService(graph, num_engines=3,
                                    scheduler=scheduler)
        threads = []

        class Recorder:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

            def run(self, *args, **kwargs):
                threads.append(threading.current_thread())
                return self.inner.run(*args, **kwargs)

        for system in service.systems:
            system.engine = Recorder(system.engine)
        service.run(queries)
        assert threads
        assert set(threads) == {threading.current_thread()}

    def test_report_carries_backend(self):
        graph, queries = make_batch(count=4)
        with BatchQueryService(graph, num_engines=2,
                               backend="process") as service:
            assert service.run(queries).backend == "process"
        report = BatchQueryService(graph, num_engines=2).run(queries)
        assert report.backend == "thread"


# -- pool lifecycle ----------------------------------------------------
class TestPoolLifecycle:
    def test_pool_is_reused_across_batches(self):
        graph, queries = make_batch(count=6)
        with BatchQueryService(graph, num_engines=2,
                               backend="process") as service:
            first = service.run(queries)
            pool = service._pool
            again = service.run(queries)
            assert service._pool is pool
            assert again.path_output_bytes() == first.path_output_bytes()
            # Second batch hits the worker-local Pre-BFS memos.
            assert (again.metrics.counter("prebfs_hits")
                    >= len(queries))

    def test_close_is_idempotent_and_reopens_lazily(self):
        graph, queries = make_batch(count=4)
        service = BatchQueryService(graph, num_engines=2,
                                    backend="process")
        first = service.run(queries)
        service.close()
        service.close()
        assert service._pool is None
        again = service.run(queries)  # a fresh pool spins up
        service.close()
        assert again.path_output_bytes() == first.path_output_bytes()

    def test_worker_process_death_is_recovered(self):
        """Hard-kill one worker between batches: its queries requeue onto
        the survivors and the batch still answers everything."""
        graph, queries = make_batch(count=8)
        service = BatchQueryService(graph, num_engines=2,
                                    backend="process")
        try:
            baseline = service.run(queries).path_output_bytes()
            victim = service._pool._procs[0]
            victim.terminate()
            victim.join(timeout=5)
            deadline = time.time() + 5
            while victim.is_alive() and time.time() < deadline:
                time.sleep(0.01)
            assert not victim.is_alive()
            report = service.run(queries)
            assert report.path_output_bytes() == baseline
            assert 0 in report.failed_engines
            assert report.engine_failures >= 1
        finally:
            service.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched builder reaches the workers only by fork",
    )
    def test_worker_startup_error_surfaces_its_traceback(self,
                                                         monkeypatch):
        """A worker that raises while building its engine reports its
        traceback before dying; the batch fails with that traceback in
        the error, and the pool still closes."""
        graph, queries = make_batch(count=4)
        service = BatchQueryService(graph, num_engines=2,
                                    backend="process", mp_context="fork")

        def broken(*args, **kwargs):
            raise RuntimeError("engine build exploded in the worker")

        # Patched after the service built its own systems, so only the
        # forked workers see it.
        monkeypatch.setattr(PathEnumerationSystem, "for_variant", broken)
        try:
            with pytest.raises(ServiceError) as info:
                service.run(queries)
        finally:
            service.close()
        message = str(info.value)
        assert "first worker traceback:" in message
        assert "Traceback (most recent call last)" in message
        assert "engine build exploded in the worker" in message
        assert service._pool is None

    def test_tracer_spans_cross_the_process_boundary(self):
        graph, queries = make_batch(count=6)
        tracer = Tracer()
        with BatchQueryService(graph, num_engines=2,
                               backend="process") as service:
            service.run(queries, tracer=tracer)
        records = tracer.records()
        tracks = {r.track for r in records}
        assert {"engine0", "engine1"} <= tracks
        ids = [r.span_id for r in records]
        assert len(ids) == len(set(ids))
        assert tracer.open_spans == 0
