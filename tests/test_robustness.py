"""The robustness layer: per-query budgets, deadlines, graceful degradation
and engine-failure recovery, plus regressions for the service accounting
fixes (host/device busy split, atomic metrics snapshot, enumerator reuse).
"""

import threading
import time

import pytest

from conftest import brute_force_paths
from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.errors import ConfigError, EngineFailure, ServiceError
from repro.graph import generators as G
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem, PEFPEnumerator
from repro.preprocess.bfs import distances_with_default, k_hop_bfs
from repro.service import BatchQueryService, FlakyEngine, MetricsRegistry
from repro.service.scheduler import requeue
from repro.workloads.queries import generate_queries


def run_engine(graph, s, t, k, engine, budget=None):
    sd_t = k_hop_bfs(graph.reverse(), t, k)
    barrier = distances_with_default(sd_t, k + 1)
    return engine.run(graph, s, t, k, barrier, budget=budget)


def small_engine():
    """Tiny areas so even small graphs take many batches and flushes."""
    cfg = PEFPConfig(theta1=2, theta2=2, buffer_capacity_paths=4,
                     graph_cache_words=64, barrier_cache_words=16)
    return PEFPEngine(cfg)


class TestQueryBudgetValidation:
    def test_defaults_unlimited(self):
        budget = QueryBudget()
        assert budget.unlimited
        assert budget.max_results is None and budget.max_cycles is None

    @pytest.mark.parametrize("kwargs", [
        {"max_results": 0}, {"max_results": -3},
        {"max_cycles": 0}, {"max_cycles": -1},
    ])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ConfigError):
            QueryBudget(**kwargs)

    def test_tightened_takes_minimum(self):
        budget = QueryBudget(max_results=10, max_cycles=500)
        tight = budget.tightened(max_results=4, max_cycles=900)
        assert tight == QueryBudget(max_results=4, max_cycles=500)

    def test_tightened_fills_unset_axes(self):
        assert QueryBudget().tightened(max_cycles=7) == QueryBudget(
            max_cycles=7
        )
        assert QueryBudget(max_results=3).tightened() == QueryBudget(
            max_results=3
        )


class TestResultBudget:
    """Result caps: exact subsets, exact counts, correct truncated flag."""

    def test_every_cap_returns_exact_prefix_subset(self, complete5):
        full = run_engine(complete5, 0, 1, 4, small_engine())
        assert not full.truncated
        total = len(full.paths)  # 16 on K5
        full_set = frozenset(full.paths)
        for m in range(1, total):
            capped = run_engine(complete5, 0, 1, 4, small_engine(),
                                budget=QueryBudget(max_results=m))
            assert capped.truncated
            assert len(capped.paths) == m
            assert frozenset(capped.paths) <= full_set
            assert capped.cycles <= full.cycles

    def test_cap_at_exact_total_returns_everything(self, complete5):
        full = run_engine(complete5, 0, 1, 4, small_engine())
        capped = run_engine(
            complete5, 0, 1, 4, small_engine(),
            budget=QueryBudget(max_results=len(full.paths)),
        )
        assert frozenset(capped.paths) == frozenset(full.paths)

    def test_cap_above_total_is_a_no_op(self, complete5):
        full = run_engine(complete5, 0, 1, 4, small_engine())
        capped = run_engine(
            complete5, 0, 1, 4, small_engine(),
            budget=QueryBudget(max_results=len(full.paths) + 10),
        )
        assert not capped.truncated
        assert capped.paths == full.paths
        assert capped.cycles == full.cycles

    def test_truncated_paths_are_valid(self, random_graph):
        expected = brute_force_paths(random_graph, 0, 7, 4)
        if len(expected) < 2:
            pytest.skip("query too small for this seed")
        capped = run_engine(random_graph, 0, 7, 4, small_engine(),
                            budget=QueryBudget(max_results=2))
        assert len(capped.paths) == 2
        assert frozenset(capped.paths) <= expected


class TestCycleBudget:
    """The clock stops at the first batch boundary past the budget."""

    def setup_method(self):
        self.graph = G.complete_digraph(4)
        self.full = run_engine(self.graph, 0, 3, 3, small_engine())

    def test_budget_of_full_runtime_completes(self):
        result = run_engine(
            self.graph, 0, 3, 3, small_engine(),
            budget=QueryBudget(max_cycles=self.full.cycles),
        )
        assert not result.truncated
        assert result.paths == self.full.paths

    def test_one_cycle_budget_stops_before_first_batch(self):
        result = run_engine(self.graph, 0, 3, 3, small_engine(),
                            budget=QueryBudget(max_cycles=1))
        assert result.truncated
        assert result.paths == []
        assert result.stats.batches == 0

    def test_stops_at_first_boundary_past_budget(self):
        """Exhaustive sweep: for every budget B the run stops at the first
        batch boundary >= B — i.e. it never overshoots by more than one
        batch — returns a prefix subset, and flags truncation exactly when
        work was left behind."""
        total = self.full.cycles
        full_set = frozenset(self.full.paths)
        stops = []
        for b in range(1, total + 1):
            result = run_engine(self.graph, 0, 3, 3, small_engine(),
                                budget=QueryBudget(max_cycles=b))
            stops.append(result.cycles)
            assert frozenset(result.paths) <= full_set
            assert result.truncated == (result.cycles < total)
            if not result.truncated:
                assert result.paths == self.full.paths
        # Non-decreasing stop points ending at the natural completion.
        assert stops == sorted(stops)
        assert stops[-1] == total
        # Budgeted runs share the unbudgeted run's execution prefix, so
        # every stop is a boundary and each budget hits the first boundary
        # at or after it: boundary(B) >= B, and the *previous* distinct
        # boundary is < B (the one-batch overshoot guarantee).
        boundaries = sorted(set(stops))
        for b in range(1, total + 1):
            stop = stops[b - 1]
            assert stop >= b
            earlier = [x for x in boundaries if x < stop]
            if earlier:
                assert earlier[-1] < b

    def test_combined_budget_respects_both_axes(self):
        result = run_engine(
            self.graph, 0, 3, 3, small_engine(),
            budget=QueryBudget(max_results=1, max_cycles=self.full.cycles),
        )
        assert len(result.paths) <= 1
        assert result.cycles <= self.full.cycles


class TestSystemBudget:
    def test_execute_surfaces_truncation(self):
        graph = G.complete_digraph(6)
        system = PathEnumerationSystem(graph)
        full = system.execute(Query(0, 5, 5))
        capped = system.execute(Query(0, 5, 5),
                                budget=QueryBudget(max_results=3))
        assert not full.truncated
        assert capped.truncated
        assert len(capped.paths) == 3
        assert frozenset(capped.paths) <= frozenset(full.paths)

    def test_empty_short_circuit_is_not_truncated(self):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        report = PathEnumerationSystem(graph).execute(
            Query(0, 3, 5), budget=QueryBudget(max_results=1)
        )
        assert report.num_paths == 0
        assert not report.truncated

    def test_execute_batch_applies_budget_per_query(self):
        graph = G.complete_digraph(5)
        system = PathEnumerationSystem(graph)
        queries = [Query(0, 1, 4), Query(0, 2, 4)]
        batch = system.execute_batch(queries,
                                     budget=QueryBudget(max_results=2))
        assert all(r.num_paths == 2 and r.truncated for r in batch.reports)


class TestServiceBudgetsAndDeadlines:
    def setup_method(self):
        self.graph = G.complete_digraph(7)
        self.queries = generate_queries(self.graph, 4, 10, seed=3)

    def test_budget_truncates_but_answers_everything(self):
        service = BatchQueryService(self.graph, num_engines=2)
        full = BatchQueryService(self.graph, num_engines=2).run(self.queries)
        batch = service.run(self.queries, budget=QueryBudget(max_results=2))
        assert batch.num_queries == len(self.queries)
        assert batch.truncated_queries == len(self.queries)
        for got, want in zip(batch.path_sets(), full.path_sets()):
            assert got <= want
            assert len(got) == 2

    def test_deadline_maps_to_cycle_budget(self):
        service = BatchQueryService(self.graph, num_engines=2)
        # 1e-6 ms at 300 MHz is a sub-cycle deadline -> 1-cycle budget.
        batch = service.run(self.queries, deadline_ms=1e-6)
        assert batch.num_queries == len(self.queries)
        assert batch.truncated_queries == len(self.queries)
        assert batch.total_paths == 0

    def test_batch_deadline_degrades_instead_of_dropping(self):
        service = BatchQueryService(self.graph, num_engines=2)
        # The first query on each engine blows through this deadline, so
        # the rest of the batch must run degraded yet still be answered.
        batch = service.run(self.queries, batch_deadline_ms=1e-6)
        assert batch.num_queries == len(self.queries)
        degraded = service.metrics.counter("degraded_queries")
        assert degraded == len(self.queries) - batch.num_engines
        assert batch.degraded_latency is not None
        assert batch.degraded_latency.count == degraded

    def test_invalid_deadlines_rejected(self):
        service = BatchQueryService(self.graph, num_engines=2)
        with pytest.raises(ConfigError):
            service.run(self.queries, deadline_ms=0.0)
        with pytest.raises(ConfigError):
            service.run(self.queries, batch_deadline_ms=-1.0)
        with pytest.raises(ConfigError):
            service.run(self.queries, batch_deadline_ms=1.0,
                        degraded_cycle_budget=0)

    def test_render_mentions_robustness(self):
        batch = BatchQueryService(self.graph, num_engines=2).run(
            self.queries, budget=QueryBudget(max_results=1)
        )
        text = batch.render()
        assert "truncated queries" in text
        assert "requeued queries" in text
        assert "engine failures" in text
        assert "host busy" in text and "device busy" in text


class TestFailureRecovery:
    def setup_method(self):
        self.graph = G.gnm_random(35, 160, seed=21)
        self.queries = generate_queries(self.graph, 4, 12, seed=3)

    @pytest.mark.parametrize("stealing", [False, True])
    def test_failed_engine_requeues_onto_survivors(self, stealing):
        baseline = BatchQueryService(self.graph, num_engines=3).run(
            self.queries
        )
        service = BatchQueryService(
            self.graph, num_engines=3, inject_failures=1,
            scheduler="work-stealing" if stealing else "round-robin")
        batch = service.run(self.queries)
        assert batch.path_sets() == baseline.path_sets()
        assert batch.engine_failures == 1
        assert batch.requeued_queries >= 1
        assert batch.failed_engines == [0]
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["engine_failures"] == 1
        assert snapshot["counters"]["requeued_queries"] >= 1

    def test_all_engines_failing_raises(self):
        service = BatchQueryService(self.graph, num_engines=2,
                                    inject_failures=2)
        with pytest.raises(ServiceError):
            service.run(self.queries)

    def test_failed_engine_marked_in_render(self):
        service = BatchQueryService(self.graph, num_engines=3,
                                    inject_failures=1)
        text = service.run(self.queries).render()
        assert "failed" in text

    def test_flaky_engine_wrapper_semantics(self):
        engine = FlakyEngine(PEFPEngine(), fail_after=1)
        graph = G.complete_digraph(4)
        result = run_engine(graph, 0, 3, 3, engine)
        assert result.num_paths > 0
        assert not engine.failed
        with pytest.raises(EngineFailure):
            run_engine(graph, 0, 3, 3, engine)
        assert engine.failed

    def test_flaky_engine_rejects_negative(self):
        with pytest.raises(ConfigError):
            FlakyEngine(PEFPEngine(), fail_after=-1)

    def test_inject_failures_validated(self):
        with pytest.raises(ConfigError):
            BatchQueryService(self.graph, num_engines=2, inject_failures=3)
        with pytest.raises(ConfigError):
            BatchQueryService(self.graph, num_engines=2, inject_failures=-1)

    def test_requeue_round_robins_over_survivors(self):
        assignment = requeue([[4], [7], [9], [11], [12]], 4, [1, 3])
        assert assignment == [[], [4, 9, 12], [], [7, 11]]

    def test_requeue_rejects_bad_survivors(self):
        with pytest.raises(ConfigError):
            requeue([[0]], 2, [])
        with pytest.raises(ConfigError):
            requeue([[0]], 2, [5])


class TestBusyAccountingSplit:
    """Regression: engine busy time no longer conflates host and device."""

    def setup_method(self):
        self.graph = G.gnm_random(35, 160, seed=21)
        self.queries = generate_queries(self.graph, 4, 12, seed=3)

    def test_host_and_device_seconds_partition_the_reports(self):
        batch = BatchQueryService(self.graph, num_engines=3).run(
            self.queries)
        assert sum(batch.engine_device_seconds) == pytest.approx(
            sum(r.query_seconds for r in batch.reports)
        )
        assert sum(batch.engine_host_seconds) == pytest.approx(
            sum(r.preprocess_seconds for r in batch.reports)
        )
        assert batch.engine_busy_seconds == pytest.approx([
            h + d for h, d in zip(batch.engine_host_seconds,
                                  batch.engine_device_seconds)
        ])

    def test_utilization_uses_device_time_only(self):
        batch = BatchQueryService(self.graph, num_engines=3).run(
            self.queries
        )
        busiest = max(batch.engine_device_seconds)
        assert batch.device_makespan_seconds == busiest
        assert batch.engine_utilization == pytest.approx([
            d / busiest for d in batch.engine_device_seconds
        ])
        assert max(batch.engine_utilization) == pytest.approx(1.0)

    def test_makespan_models_one_shared_host_cpu(self):
        batch = BatchQueryService(self.graph, num_engines=3).run(
            self.queries
        )
        assert batch.makespan_seconds == max(
            batch.host_seconds_total, batch.device_makespan_seconds
        )
        assert batch.throughput_qps == pytest.approx(
            batch.num_queries / batch.makespan_seconds
        )


class TestAtomicSnapshot:
    """Regression: snapshot must be one lock acquisition, so counters and
    series describe the same instant."""

    def test_snapshot_consistent_under_concurrent_writes(self):
        registry = MetricsRegistry()
        # Many series make the summarisation phase long enough that the
        # old release-the-lock-per-series snapshot reliably tears.
        for i in range(64):
            registry.observe(f"pad{i}", 0.0)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                registry.increment("ticks")
                registry.observe("lat", 1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                snap = registry.snapshot()
                ticks = snap["counters"].get("ticks", 0)
                series = snap["series"].get("lat")
                observed = series.count if series is not None else 0
                # increment happens before observe, so an atomic snapshot
                # sees ticks ahead of the series by at most the one
                # in-between write; a torn snapshot sees the series ahead.
                assert 0 <= ticks - observed <= 1
        finally:
            stop.set()
            thread.join()

    def test_snapshot_skips_empty_series(self):
        registry = MetricsRegistry()
        registry.increment("n")
        snap = registry.snapshot()
        assert snap["counters"] == {"n": 1}
        assert snap["series"] == {}


class TestEnumeratorSystemReuse:
    """Regression: one PathEnumerationSystem per (graph, enumerator)."""

    def test_repeated_queries_reuse_the_system(self):
        graph = G.gnm_random(30, 120, seed=5)
        enumerator = PEFPEnumerator()
        first = enumerator.enumerate_paths(graph, Query(0, 7, 4))
        system = enumerator._system
        assert system is not None
        second = enumerator.enumerate_paths(graph, Query(1, 8, 4))
        assert enumerator._system is system
        assert first.path_set() == brute_force_paths(graph, 0, 7, 4)
        assert second.path_set() == brute_force_paths(graph, 1, 8, 4)

    def test_new_graph_gets_a_new_system(self):
        enumerator = PEFPEnumerator()
        g1 = G.complete_digraph(5)
        g2 = G.cycle_graph(6)
        assert enumerator.enumerate_paths(
            g1, Query(0, 1, 4)
        ).path_set() == brute_force_paths(g1, 0, 1, 4)
        s1 = enumerator._system
        assert enumerator.enumerate_paths(
            g2, Query(0, 3, 4)
        ).path_set() == brute_force_paths(g2, 0, 3, 4)
        assert enumerator._system is not s1
        # Back to the first graph: answers stay correct after the swap.
        assert enumerator.enumerate_paths(
            g1, Query(0, 2, 3)
        ).path_set() == brute_force_paths(g1, 0, 2, 3)

    def test_reverse_built_once_across_queries(self):
        graph = G.gnm_random(30, 120, seed=5)
        enumerator = PEFPEnumerator("pefp-no-pre-bfs")
        for seed in range(3):
            enumerator.enumerate_paths(graph, Query(seed, 10 + seed, 3))
        assert graph.rev_builds == 1


class TestServeBatchCliFlags:
    def test_budget_and_failure_flags(self, capsys):
        from repro.cli import main

        rc = main(["serve-batch", "rt", "-k", "3", "-n", "6",
                   "--engines", "2", "--max-results", "2",
                   "--inject-failures", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "truncated queries" in out
        assert "engine failures" in out

    def test_deadline_flags(self, capsys):
        from repro.cli import main

        rc = main(["serve-batch", "rt", "-k", "3", "-n", "4",
                   "--engines", "2", "--deadline-ms", "0.000001",
                   "--batch-deadline-ms", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "robustness" in out
