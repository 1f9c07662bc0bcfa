"""Differential backend tests: process == thread == serial, batch for batch.

The process-parallel backend re-implements dispatch, artifact shipping
and metrics plumbing, so its correctness argument is differential: for
seeded random graphs and query batches, every backend must produce the
same sorted path sets, the same per-query path counts, the same total
modelled device cycles — across worker counts and schedulers.  Modelled
*preprocessing* seconds are compared only where the Pre-BFS memo topology
matches (worker-private memos can turn a shared-cache hit into a miss on
duplicate queries; these batches are duplicate-free, so totals match).
Injected faults break that topology too: a surviving worker cannot see
the memos a failed worker built before it died, so under faults a
survivor's host seconds (with sharing also its device seconds) and the
timelines may differ between backends; answers, assignment and the
failure counters still agree.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import generators as G
from repro.host.query import Query
from repro.service import BatchQueryService

GRAPHS = {
    "gnm": lambda: G.gnm_random(50, 200, seed=31),
    "chung_lu": lambda: G.chung_lu(60, 300, seed=32),
    "community": lambda: G.community_graph(
        3, 12, p_in=0.3, inter_edges=8, seed=33
    ),
}


def make_queries(graph, count, seed, k_lo=2, k_hi=5):
    """Seeded random batch of distinct-endpoint queries (no duplicates)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    queries, seen = [], set()
    while len(queries) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        k = rng.randint(k_lo, k_hi)
        if s == t or (s, t, k) in seen:
            continue
        seen.add((s, t, k))
        queries.append(Query(s, t, k))
    return queries


def run_service(graph, queries, run_kwargs=None, **kwargs):
    service = BatchQueryService(graph, **kwargs)
    try:
        return service.run(queries, **(run_kwargs or {}))
    finally:
        service.close()


def fingerprint(report):
    """Everything the backends must agree on, in comparable form."""
    return {
        "path_sets": report.path_sets(),
        "path_counts": [r.num_paths for r in report.reports],
        "device_cycles": sum(r.fpga_cycles for r in report.reports),
        "preprocess_seconds": round(
            sum(r.preprocess_seconds for r in report.reports), 15
        ),
        "truncated": [r.truncated for r in report.reports],
        "output_bytes": report.path_output_bytes(),
    }


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_process_equals_thread_equals_serial(graph_name, workers):
    graph = GRAPHS[graph_name]()
    queries = make_queries(graph, 10, seed=sum(map(ord, graph_name)))
    serial = run_service(graph, queries, num_engines=workers,
                         use_threads=False)
    threaded = run_service(graph, queries, num_engines=workers,
                           use_threads=True)
    process = run_service(graph, queries, num_engines=workers,
                          backend="process")
    reference = fingerprint(serial)
    assert fingerprint(threaded) == reference
    assert fingerprint(process) == reference


@pytest.mark.parametrize("scheduler",
                         ["round-robin", "longest-first", "work-stealing"])
def test_backends_agree_under_every_scheduler(scheduler):
    graph = GRAPHS["gnm"]()
    queries = make_queries(graph, 12, seed=5)
    threaded = run_service(graph, queries, num_engines=3,
                           scheduler=scheduler)
    process = run_service(graph, queries, num_engines=3,
                          scheduler=scheduler, backend="process")
    assert fingerprint(process) == fingerprint(threaded)


def test_backends_agree_under_budgets_and_deadlines():
    """Truncation decisions (budget / per-query deadline) are identical."""
    from repro.core.config import QueryBudget

    graph = GRAPHS["chung_lu"]()
    queries = make_queries(graph, 10, seed=9, k_lo=3, k_hi=5)
    run_kwargs = {
        "budget": QueryBudget(max_results=20),
        "deadline_ms": 0.05,
    }
    threaded = run_service(graph, queries, run_kwargs=run_kwargs,
                           num_engines=2)
    process = run_service(graph, queries, run_kwargs=run_kwargs,
                          num_engines=2, backend="process")
    assert fingerprint(process) == fingerprint(threaded)
    assert any(r.truncated for r in threaded.reports), (
        "budget chosen too loose: the truncation path was not exercised"
    )


def test_backends_agree_under_batch_deadline_degradation():
    """Batch-deadline degradation follows per-engine modelled busy time,
    which is interleaving-independent under a *static* scheduler — so the
    degraded-query set must match backend for backend."""
    graph = GRAPHS["chung_lu"]()
    queries = make_queries(graph, 12, seed=11, k_lo=3, k_hi=5)
    run_kwargs = {"batch_deadline_ms": 0.05}
    threaded = run_service(graph, queries, run_kwargs=run_kwargs,
                           num_engines=2, scheduler="longest-first")
    process = run_service(graph, queries, run_kwargs=run_kwargs,
                          num_engines=2, scheduler="longest-first",
                          backend="process")
    assert fingerprint(process) == fingerprint(threaded)
    assert (process.metrics.counter("degraded_queries")
            == threaded.metrics.counter("degraded_queries"))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_metrics_parity_across_backends(workers):
    """The merged process-side registries match the thread registry on
    exact aggregates: counters, sample counts, latency summaries."""
    graph = GRAPHS["gnm"]()
    queries = make_queries(graph, 10, seed=17)
    threaded = run_service(graph, queries, num_engines=workers)
    process = run_service(graph, queries, num_engines=workers,
                          backend="process")
    for counter in ("queries", "paths_found", "empty_queries",
                    "truncated_queries", "reverse_misses"):
        assert (process.metrics.counter(counter)
                == threaded.metrics.counter(counter)), counter
    # Means fold worker sums in a different order than the thread
    # registry observes samples, so allow one ulp of float drift.
    assert process.latency.count == threaded.latency.count
    assert process.latency.mean == pytest.approx(
        threaded.latency.mean, rel=1e-12
    )
    assert process.latency.maximum == threaded.latency.maximum
    assert (process.metrics.sample_count("query_seconds")
            == threaded.metrics.sample_count("query_seconds"))
    assert process.engine_host_seconds == threaded.engine_host_seconds
    assert process.engine_device_seconds == threaded.engine_device_seconds


def test_assignment_partitions_batch_on_both_backends():
    graph = GRAPHS["community"]()
    queries = make_queries(graph, 9, seed=23)
    for backend in ("thread", "process"):
        for scheduler in ("round-robin", "work-stealing"):
            report = run_service(graph, queries, num_engines=3,
                                 backend=backend, scheduler=scheduler)
            served = sorted(i for part in report.assignment for i in part)
            assert served == list(range(len(queries))), (
                f"{backend}/{scheduler} assignment is not a partition"
            )


def test_profiles_marshal_back_identically():
    """Device profiles survive the process boundary: same cycle totals,
    same per-query profile presence, on every backend."""
    graph = GRAPHS["gnm"]()
    queries = make_queries(graph, 8, seed=29)
    threaded = run_service(graph, queries, num_engines=2,
                           run_kwargs={"profile": True})
    process = run_service(graph, queries, num_engines=2, backend="process",
                          run_kwargs={"profile": True})
    assert len(process.device_profiles) == len(threaded.device_profiles)
    assert process.profile_summary() == threaded.profile_summary()
    assert (process.metrics.counter("device_cycles")
            == threaded.metrics.counter("device_cycles"))
