"""Tests for the shared artifact cache and the batch schedulers."""

import pytest

import repro.service.cache as cache_mod
from repro.errors import ConfigError
from repro.graph import generators as G
from repro.host.cost_model import OpCounter
from repro.host.query import Query
from repro.preprocess.bfs import charged_reverse
from repro.preprocess.prebfs import pre_bfs
from repro.service.cache import GraphArtifactCache
from repro.service import BatchQueryService
from repro.service.scheduler import (
    SCHEDULERS,
    estimate_query_work,
    group_by_source,
    longest_first,
    query_groups,
    requeue,
    round_robin,
    steal_order,
)


@pytest.fixture
def graph():
    return G.gnm_random(30, 140, seed=9)


class TestChargedReverse:
    """The root regression: per-graph reverse work must be paid once."""

    def test_first_build_charged_per_edge(self, graph):
        ops = OpCounter()
        rev = charged_reverse(graph, ops)
        assert ops.count("rev_build_edge") == graph.num_edges
        assert ops.count("rev_cache_hit") == 0
        assert rev is graph.reverse()

    def test_cache_hit_free(self, graph):
        charged_reverse(graph)
        ops = OpCounter()
        charged_reverse(graph, ops)
        assert ops.count("rev_build_edge") == 0
        assert ops.count("rev_cache_hit") == 1

    def test_rev_builds_counter(self, graph):
        assert graph.rev_builds == 0
        graph.reverse()
        graph.reverse()
        assert graph.rev_builds == 1

    def test_pre_bfs_batch_builds_reverse_once(self, graph):
        """Regression for the per-query graph.reverse() recomputation."""
        for seed in range(8):
            query = Query(0, 5 + seed % 3, 4)
            pre_bfs(graph, query)
        assert graph.rev_builds == 1


class TestGraphArtifactCache:
    def test_reverse_hit_miss_counters(self, graph):
        cache = GraphArtifactCache()
        first = cache.reverse(graph)
        second = cache.reverse(graph)
        assert first is second
        assert cache.reverse_misses == 1
        assert cache.reverse_hits == 1

    def test_separate_graphs_separate_entries(self, graph):
        other = G.gnm_random(30, 140, seed=10)
        cache = GraphArtifactCache()
        assert cache.reverse(graph) is not cache.reverse(other)
        assert cache.reverse_misses == 2

    def test_prebfs_memo_returns_same_result(self, graph):
        cache = GraphArtifactCache()
        query = Query(0, 5, 4)
        first = cache.pre_bfs(graph, query)
        second = cache.pre_bfs(graph, query)
        assert first is second
        assert cache.prebfs_misses == 1
        assert cache.prebfs_hits == 1

    def test_prebfs_hit_charges_lookup_only(self, graph):
        cache = GraphArtifactCache()
        query = Query(0, 5, 4)
        cache.pre_bfs(graph, query)
        ops = OpCounter()
        cache.pre_bfs(graph, query, ops)
        assert ops.as_dict() == {"set_lookup": 1}

    def test_prebfs_eviction(self, graph, monkeypatch):
        monkeypatch.setitem(cache_mod.MEMO_BOUNDS, "prebfs", 1)
        cache = GraphArtifactCache()
        cache.pre_bfs(graph, Query(0, 5, 4))
        cache.pre_bfs(graph, Query(0, 6, 4))
        cache.pre_bfs(graph, Query(0, 5, 4))  # evicted, recomputed
        assert cache.prebfs_misses == 3
        assert cache.stats()["prebfs_entries"] == 1

    def test_clear_drops_entries_keeps_counters(self, graph):
        cache = GraphArtifactCache()
        cache.reverse(graph)
        cache.clear()
        cache.reverse(graph)
        assert cache.reverse_misses == 2


class TestCacheLifecycle:
    """Regression test for builder exceptions."""

    def test_result_cache_builder_exception_not_cached(self, graph):
        cache = GraphArtifactCache()
        query = Query(0, 5, 4)

        def bad_build():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.result(graph, query, None, bad_build)
        assert cache.result_misses == 0
        assert cache.build_failures == 1
        value, hit = cache.result(graph, query, None, lambda: "answer")
        assert (value, hit) == ("answer", False)
        assert cache.result_misses == 1


class TestSingleFlightMemos:
    """The result and forward-frontier memos: one build per key, then
    hits charged as one memo probe."""

    def test_result_cache_hit_charges_probe(self, graph):
        cache = GraphArtifactCache()
        query = Query(0, 5, 4)
        cache.result(graph, query, None, lambda: "x")
        ops = OpCounter()
        value, hit = cache.result(graph, query, None, lambda: "y",
                                  counter=ops)
        assert (value, hit) == ("x", True)
        assert ops.as_dict() == {"set_lookup": 1}

    def test_result_cache_keys_on_budget(self, graph):
        cache = GraphArtifactCache()
        query = Query(0, 5, 4)
        cache.result(graph, query, "budget-a", lambda: "full")
        value, hit = cache.result(graph, query, "budget-b",
                                  lambda: "truncated")
        assert (value, hit) == ("truncated", False)
        assert cache.result_misses == 2

    def test_forward_frontier_memo(self, graph):
        cache = GraphArtifactCache()
        first = cache.forward_frontier(graph, 0, 3)
        second = cache.forward_frontier(graph, 0, 3)
        assert first is second
        assert cache.forward_misses == 1
        assert cache.forward_hits == 1
        ops = OpCounter()
        cache.forward_frontier(graph, 0, 3, ops)
        assert ops.as_dict() == {"set_lookup": 1}
        # a different hop budget is a different artifact
        cache.forward_frontier(graph, 0, 2)
        assert cache.forward_misses == 2


class TestSchedulers:
    def queries(self, n, k=4):
        return [Query(i, i + 1, k) for i in range(n)]

    def test_round_robin_deals_in_order(self):
        assignment = round_robin(self.queries(7), 3)
        assert assignment == [[0, 3, 6], [1, 4], [2, 5]]

    def test_round_robin_partitions(self):
        assignment = round_robin(self.queries(10), 4)
        flat = sorted(i for part in assignment for i in part)
        assert flat == list(range(10))

    def test_longest_first_is_lpt(self):
        # weights 5,4,3,2,1 on 2 engines: LPT gives {5,2,1} and {4,3}
        assignment = longest_first(self.queries(5), 2,
                                   weights=[5, 4, 3, 2, 1])
        assert assignment == [[0, 3, 4], [1, 2]]

    def test_longest_first_balances_better_than_round_robin(self):
        weights = [8.0, 1.0, 1.0, 1.0, 7.0, 1.0]

        def makespan(assignment):
            return max(sum(weights[i] for i in part) for part in assignment)

        rr = round_robin(self.queries(6), 2)
        lpt = longest_first(self.queries(6), 2, weights=weights)
        assert makespan(lpt) <= makespan(rr)

    def test_longest_first_needs_graph_or_weights(self):
        with pytest.raises(ConfigError):
            longest_first(self.queries(3), 2)

    def test_longest_first_weight_length_checked(self):
        with pytest.raises(ConfigError):
            longest_first(self.queries(3), 2, weights=[1.0])

    def test_longest_first_with_graph_estimate(self, graph):
        queries = [Query(0, 5, 3), Query(1, 6, 5)]
        assignment = longest_first(queries, 2, graph=graph)
        flat = sorted(i for part in assignment for i in part)
        assert flat == [0, 1]

    def test_zero_engines_rejected(self):
        with pytest.raises(ConfigError):
            round_robin(self.queries(3), 0)

    def test_estimate_grows_with_k(self, graph):
        small = estimate_query_work(graph, Query(0, 5, 2))
        large = estimate_query_work(graph, Query(0, 5, 6))
        assert large > small

    def test_registry_names(self):
        assert set(SCHEDULERS) == {"round-robin", "longest-first"}

    def test_scheduling_never_builds_reverse(self):
        """Work estimation is advisory — it must not trigger an uncharged
        reverse-CSR build on a cold graph (satellite regression)."""
        cold = G.gnm_random(30, 140, seed=11)
        queries = [Query(0, 5, 3), Query(1, 6, 5), Query(0, 7, 4)]
        longest_first(queries, 2, graph=cold)
        steal_order(queries, graph=cold)
        groups = group_by_source(queries)
        longest_first(queries, 2, graph=cold, groups=groups)
        steal_order(queries, graph=cold, groups=groups)
        assert cold.rev_builds == 0

    def test_scheduling_uses_cache_reverse(self, graph):
        """Warming the artifact cache populates the graph's own reverse
        memo, so the estimate sees true in-degrees without building
        anything itself."""
        cache = GraphArtifactCache()
        cache.warm(graph)
        queries = [Query(0, 5, 3), Query(1, 6, 5)]
        assignment = longest_first(queries, 2, graph=graph)
        flat = sorted(i for part in assignment for i in part)
        assert flat == [0, 1]
        assert cache.reverse_misses == 1  # only the warm


class TestGrouping:
    def queries(self):
        # sources: 3, 1, 3, 2, 1, 3 -> groups [0,2,5], [1,4], [3]
        return [Query(3, 10, 4), Query(1, 11, 4), Query(3, 12, 4),
                Query(2, 13, 4), Query(1, 14, 4), Query(3, 15, 4)]

    def test_group_by_source_first_appearance_order(self):
        assert group_by_source(self.queries()) == [[0, 2, 5], [1, 4], [3]]

    def test_group_by_source_keeps_duplicates_together(self):
        queries = [Query(0, 5, 4), Query(1, 6, 4), Query(0, 5, 4)]
        assert group_by_source(queries) == [[0, 2], [1]]

    def test_grouped_round_robin_deals_whole_groups(self):
        queries = self.queries()
        assignment = round_robin(queries, 2,
                                 groups=group_by_source(queries))
        assert assignment == [[0, 2, 5, 3], [1, 4]]

    def test_grouped_assignment_never_splits_groups(self, graph):
        queries = [Query(i % 3, 5 + i, 4) for i in range(9)]
        for scheduler in ("round-robin", "longest-first"):
            assignment = SCHEDULERS[scheduler](
                queries, 4, graph=graph, groups=group_by_source(queries)
            )
            placement = {}
            for e, part in enumerate(assignment):
                for i in part:
                    placement[i] = e
            for members in group_by_source(queries):
                engines = {placement[i] for i in members}
                assert len(engines) == 1
            assert sorted(placement) == list(range(9))

    def test_grouped_longest_first_is_lpt_over_groups(self, graph):
        queries = self.queries()
        assignment = longest_first(queries, 2, graph=graph,
                                   groups=group_by_source(queries))
        flat = sorted(i for part in assignment for i in part)
        assert flat == list(range(6))

    def test_grouped_assignment_rejects_unknown(self, graph):
        with pytest.raises(ConfigError):
            BatchQueryService(graph, scheduler="mystery", sharing=True)

    def test_grouped_longest_first_needs_graph(self):
        queries = self.queries()
        with pytest.raises(ConfigError):
            longest_first(queries, 2, groups=group_by_source(queries))

    def test_grouped_steal_order_heaviest_group_first(self, graph):
        queries = self.queries()
        groups = group_by_source(queries)
        order = steal_order(queries, graph=graph, groups=groups)
        assert sorted(order) == list(range(len(groups)))
        weights = [sum(estimate_query_work(graph, queries[i]) for i in g)
                   for g in groups]
        assert [weights[g] for g in order] == sorted(weights, reverse=True)

    def test_grouped_steal_order_without_graph(self):
        groups = group_by_source(self.queries())
        assert steal_order(self.queries(), groups=groups) == [0, 1, 2]

    def test_requeue_groups_keeps_groups_whole(self):
        queries = self.queries()
        pending = [0, 3, 5, 4]  # sources 3, 2, 3, 1
        assignment = requeue(query_groups(queries, True, pending), 3,
                             surviving=[0, 2])
        # groups over pending: source 3 -> [0, 5], source 2 -> [3],
        # source 1 -> [4]; dealt round-robin over engines 0, 2.
        assert assignment == [[0, 5, 4], [], [3]]

    def test_requeue_groups_needs_survivors(self):
        with pytest.raises(ConfigError):
            requeue(query_groups(self.queries(), True, [0, 1]), 2,
                    surviving=[])
