"""Cross-query work sharing: the counter contracts and the scenario bar.

That sharing never changes an answer (shared == naive across executors,
schedulers, budgets and fault seeds) is the service answer class of the
oracle harness (``tests/oracle.py``).  The tests here pin what sharing
*does*: duplicates run once, same-source groups build one forward BFS,
budgets key the result cache, and the naive service records no sharing
traffic.
"""

from __future__ import annotations

from oracle import service_answer

from repro.core.config import QueryBudget
from repro.graph import generators as G
from repro.service import BatchQueryService
from repro.workloads import generate_shared_batch


def graph():
    return G.gnm_random(50, 200, seed=31)


def make_batch(graph, count=16, seed=3, source_pool=4, max_hops=4):
    return generate_shared_batch(graph, max_hops, count, seed=seed,
                                 duplicate_fraction=0.5,
                                 source_pool=source_pool)


def run_service(graph, queries, run_kwargs=None, **kwargs):
    service = BatchQueryService(graph, **kwargs)
    try:
        return service.run(queries, **(run_kwargs or {}))
    finally:
        service.close()


def test_budget_changes_result_cache_key():
    """The same batch under different budgets must not alias cache
    entries: a full answer never masquerades as a truncated one."""
    g = graph()
    queries = make_batch(g, seed=21, max_hops=5)
    service = BatchQueryService(g, num_engines=1, sharing=True)
    try:
        full = service.run(queries)
        capped = service.run(queries, budget=QueryBudget(max_results=3))
    finally:
        service.close()
    naive_capped = run_service(g, queries,
                               run_kwargs={"budget":
                                           QueryBudget(max_results=3)},
                               num_engines=1)
    assert service_answer(capped) == service_answer(naive_capped)
    assert full.total_paths >= capped.total_paths
    assert any(r.truncated for r in capped.reports)


def test_duplicates_run_once():
    """Counter contract: distinct queries miss, duplicates hit."""
    g = graph()
    queries = make_batch(g, count=20, seed=7)
    distinct = len({(q.source, q.target, q.max_hops) for q in queries})
    report = run_service(g, queries, num_engines=2,
                         scheduler="longest-first", sharing=True)
    stats = report.cache_stats
    assert stats["result_misses"] == distinct
    assert stats["result_hits"] == len(queries) - distinct
    assert report.deduped_queries == len(queries) - distinct
    assert report.total_paths == sum(r.num_paths for r in report.reports)


def test_forward_frontier_shared_within_groups():
    """Same-source queries of one hop budget build their forward BFS
    once; every further member of the group hits the memo."""
    g = graph()
    queries = make_batch(g, count=20, seed=7, source_pool=3)
    report = run_service(g, queries, num_engines=2,
                         scheduler="round-robin", sharing=True)
    stats = report.cache_stats
    distinct_frontiers = len({(q.source, q.max_hops) for q in queries})
    assert stats["forward_misses"] == distinct_frontiers
    # Only result-cache *misses* reach Pre-BFS, and of those only the
    # first per frontier builds; the rest probe the memo.
    assert (stats["forward_hits"]
            == stats["result_misses"] - distinct_frontiers)
    assert report.shared_frontiers == stats["forward_hits"]


def test_naive_service_records_no_sharing_traffic():
    g = graph()
    report = run_service(g, make_batch(g), num_engines=2)
    stats = report.cache_stats
    assert stats.get("result_hits", 0) == 0
    assert stats.get("result_misses", 0) == 0
    assert stats.get("forward_hits", 0) == 0
    assert report.deduped_queries == 0


def test_sharing_scenario_models_speedup():
    """The perfbench scenario's acceptance bar: >= 2x modelled speedup on
    a 50%-duplicate batch, with equivalence and backend agreement."""
    from repro.perfbench.scenarios import SCENARIOS

    metrics = dict(SCENARIOS["service.batch_sharing"].build(7))
    assert metrics["sharing_equivalent"].value == 1.0
    assert metrics["backends_agree"].value == 1.0
    assert metrics["modelled_speedup_x"].value >= 2.0


def test_report_counts_only_its_own_batch():
    """A second sharing batch reports its own result hits and frontier
    reuses; ``cache_stats`` and the registry keep the service's sums."""
    g = G.chung_lu(200, 1200, seed=7)
    queries = generate_shared_batch(g, 4, 12, seed=3,
                                    duplicate_fraction=0.5, source_pool=4)
    service = BatchQueryService(g, num_engines=2, sharing=True)
    try:
        first = service.run(queries)
        second = service.run(queries, budget=QueryBudget(max_results=5))
    finally:
        service.close()
    for report in (first, second):
        assert report.deduped_queries == sum(
            r.result_hit for r in report.reports)
    assert second.deduped_queries == 6
    assert second.cache_stats["result_hits"] == 12
    # The second batch's misses hit the Pre-BFS memo, so no query of it
    # looks a frontier up.
    assert second.shared_frontiers == 0
    assert first.shared_frontiers == second.cache_stats["forward_hits"] > 0
    assert service.metrics.counter("deduped_queries") == 12
