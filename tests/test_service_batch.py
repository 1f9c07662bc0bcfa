"""Tests for the multi-engine batch query service."""

import math

import pytest

from repro.core.config import QueryBudget
from repro.errors import ConfigError
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem, ServedAnswer
from repro.observability.tracer import Tracer
from repro.service import BatchQueryService
from repro.workloads.queries import generate_queries
from repro.workloads.runner import aggregate, time_service


def fresh_graph():
    return G.gnm_random(35, 160, seed=21)


@pytest.fixture
def graph():
    return fresh_graph()


@pytest.fixture
def queries(graph):
    return generate_queries(graph, 4, 12, seed=3)


class TestEquivalence:
    """Service answers must match sequential execute_batch exactly."""

    @pytest.mark.parametrize("scheduler", ["round-robin", "longest-first"])
    @pytest.mark.parametrize("num_engines", [2, 3])
    def test_matches_sequential_batch(self, scheduler, num_engines):
        graph = fresh_graph()
        queries = generate_queries(graph, 4, 12, seed=3)
        sequential = PathEnumerationSystem(fresh_graph()).execute_batch(
            queries
        )
        service = BatchQueryService(
            graph, num_engines=num_engines, scheduler=scheduler
        )
        batch = service.run(queries)
        assert batch.path_sets() == [
            frozenset(r.paths) for r in sequential.reports
        ]

    def test_power_law_graph(self):
        graph = G.chung_lu(45, 260, seed=22)
        queries = generate_queries(graph, 5, 10, seed=5)
        sequential = PathEnumerationSystem(graph).execute_batch(queries)
        batch = BatchQueryService(graph, num_engines=4).run(queries)
        assert batch.path_sets() == [
            frozenset(r.paths) for r in sequential.reports
        ]

    def test_no_prebfs_variant(self, graph, queries):
        sequential = PathEnumerationSystem(
            graph, use_prebfs=False
        ).execute_batch(queries)
        batch = BatchQueryService(
            graph, variant="pefp-no-pre-bfs", num_engines=2
        ).run(queries)
        assert batch.path_sets() == [
            frozenset(r.paths) for r in sequential.reports
        ]

    def test_threads_off_identical(self, graph, queries):
        """With no engine threads — the in-process executor serves engine
        after engine on the calling thread — a rerun repeats every
        modelled number exactly."""
        first, again = (BatchQueryService(graph, num_engines=3).run(queries)
                        for _ in range(2))
        assert again.path_output_bytes() == first.path_output_bytes()
        assert ([r.preprocess_seconds for r in again.reports]
                == [r.preprocess_seconds for r in first.reports])
        assert again.engine_host_seconds == first.engine_host_seconds
        assert again.engine_device_seconds == first.engine_device_seconds


class TestReverseGraphSharing:
    """The root bugfix: one reverse-CSR build per graph, not per query."""

    def test_service_builds_reverse_once(self, graph, queries):
        assert graph.rev_builds == 0
        BatchQueryService(graph, num_engines=3).run(queries)
        assert graph.rev_builds == 1

    def test_sequential_system_builds_reverse_once(self):
        graph = fresh_graph()
        queries = generate_queries(graph, 4, 8, seed=3)
        assert graph.rev_builds == 0
        PathEnumerationSystem(graph).execute_batch(queries)
        assert graph.rev_builds == 1

    def test_no_prebfs_system_builds_reverse_once(self, graph, queries):
        system = PathEnumerationSystem(graph, use_prebfs=False)
        for q in queries:
            system.execute(q)
        assert graph.rev_builds == 1

    def test_build_charged_to_warmup_not_queries(self, graph, queries):
        service = BatchQueryService(graph, num_engines=2)
        batch = service.run(queries)
        assert batch.warmup_ops.count("rev_build_edge") == graph.num_edges
        for report in batch.reports:
            assert report.preprocess_ops.count("rev_build_edge") == 0

    def test_second_batch_skips_warmup_build(self, graph, queries):
        service = BatchQueryService(graph, num_engines=2)
        service.run(queries)
        second = service.run(queries)
        assert second.warmup_ops.count("rev_build_edge") == 0
        assert second.warmup_seconds == 0.0


class TestMetrics:
    def test_latency_percentiles_and_throughput(self, graph, queries):
        batch = BatchQueryService(graph, num_engines=2).run(queries)
        latency = batch.latency
        assert latency is not None
        assert latency.count == len(queries)
        assert 0 < latency.p50 <= latency.p95 <= latency.p99
        assert latency.p99 <= latency.maximum
        assert batch.throughput_qps > 0
        # One shared host CPU: makespan is the larger of the serial host
        # total and the busiest engine's device time.
        assert batch.makespan_seconds == max(
            batch.host_seconds_total, max(batch.engine_device_seconds)
        )

    def test_cache_counters_exposed(self, graph, queries):
        service = BatchQueryService(graph, num_engines=2)
        batch = service.run(queries)
        assert batch.cache_stats["reverse_misses"] == 1
        assert batch.cache_stats["reverse_hits"] >= 1
        assert service.metrics.counter("queries") == len(queries)
        assert (
            batch.cache_stats["prebfs_hits"]
            + batch.cache_stats["prebfs_misses"]
            == len(queries)
        )

    def test_duplicate_queries_hit_prebfs_memo(self, graph):
        q = generate_queries(graph, 4, 1, seed=3)[0]
        batch = BatchQueryService(graph, num_engines=2).run([q] * 6)
        assert batch.cache_stats["prebfs_misses"] == 1
        assert batch.cache_stats["prebfs_hits"] == 5
        assert len(set(batch.path_sets())) == 1

    def test_engine_utilization(self, graph, queries):
        batch = BatchQueryService(graph, num_engines=3).run(queries)
        utilization = batch.engine_utilization
        assert len(utilization) == 3
        assert all(0.0 <= u <= 1.0 for u in utilization)
        assert max(utilization) == pytest.approx(1.0)

    def test_assignment_partitions_batch(self, graph, queries):
        batch = BatchQueryService(
            graph, num_engines=3, scheduler="longest-first"
        ).run(queries)
        served = sorted(i for part in batch.assignment for i in part)
        assert served == list(range(len(queries)))

    def test_render_mentions_key_metrics(self, graph, queries):
        text = BatchQueryService(graph, num_engines=2).run(queries).render()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "throughput" in text
        assert "reverse CSR" in text
        assert "engine 1" in text

    def test_empty_query_short_circuits_in_service(self):
        """Pre-BFS-empty queries are flagged alike by the answer, the
        metrics and the attribution, on every executor."""
        graph = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        queries = [Query(0, 3, 5), Query(0, 1, 5), Query(0, 3, 5)]
        for executor in ({"backend": "thread"}, {"backend": "process"}):
            with BatchQueryService(graph, num_engines=2,
                                   **executor) as service:
                batch = service.run(queries, profile=True)
            assert batch.total_paths == 1
            assert service.metrics.counter("empty_queries") == 2
            assert [r.empty for r in batch.reports] == [True, False, True]
            assert all(type(r) is ServedAnswer for r in batch.reports)
            flags = sorted((wf.target, wf.empty)
                           for wf in batch.attribution().waterfalls)
            assert flags == [(1, False), (3, True), (3, True)]

    def test_empty_batch(self, graph):
        batch = BatchQueryService(graph, num_engines=2).run([])
        assert batch.num_queries == 0
        assert batch.latency is None
        assert batch.throughput_qps == 0.0
        assert batch.batch_transfer_seconds == 0.0

    def test_report_counts_only_its_own_batch(self, graph):
        """A second batch on one service reports its own truncations,
        latencies and degraded latencies; the registry keeps the sum."""
        queries = generate_queries(graph, 4, 8, seed=3)
        service = BatchQueryService(graph, num_engines=2)
        tracer = Tracer()
        truncated_counts, degraded_counts = [], []
        for _ in range(2):
            report = service.run(queries, budget=QueryBudget(max_results=1),
                                 batch_deadline_ms=0.003, tracer=tracer)
            truncated = sum(r.truncated for r in report.reports)
            degraded = [r.total_seconds for r in report.reports
                        if r.degraded]
            assert 0 < truncated
            assert report.truncated_queries == truncated
            assert report.latency.count == len(queries)
            if degraded:
                assert report.degraded_latency.count == len(degraded)
                assert report.degraded_latency.total == math.fsum(degraded)
            else:
                assert report.degraded_latency is None
            truncated_counts.append(truncated)
            degraded_counts.append(len(degraded))
        # The first batch degrades, the second (memo hits) does not.
        assert degraded_counts[0] > 0 == degraded_counts[1]
        assert (report.metrics.counter("truncated_queries")
                == sum(truncated_counts))
        assert report.metrics.summary("latency_seconds").count == 16
        spans = [r for r in tracer.records() if r.name == "serve_batch"]
        assert [s.attrs["truncated"] for s in spans] == truncated_counts


class TestConfigValidation:
    def test_zero_engines_rejected(self, graph):
        with pytest.raises(ConfigError):
            BatchQueryService(graph, num_engines=0)

    def test_unknown_scheduler_rejected(self, graph):
        with pytest.raises(ConfigError):
            BatchQueryService(graph, scheduler="magic")


class TestRunnerIntegration:
    def test_time_service_matches_reports(self, graph, queries):
        service = BatchQueryService(graph, num_engines=2)
        timings = time_service(service, queries)
        assert len(timings) == len(queries)
        agg = aggregate("pefp-service", 4, timings)
        assert agg.num_queries == len(queries)
        assert agg.mean_total_seconds > 0
