"""Failure parity across the three executors of the one serving loop.

Inline (``use_threads=False``), thread-pool and worker-process execution
all run the same coordinator loop and the same per-engine serve loop, so
under seeded fault injection they must agree on everything deterministic:
which engines failed, how many queries were requeued, the assignment and
every answer byte.  Work stealing's assignment depends on completion
order, so under faults it is held to answers and accounting invariants.
"""

from __future__ import annotations

import pytest

from repro.graph import generators as G
from repro.observability.tracer import Tracer
from repro.service import BatchQueryService
from repro.workloads import generate_queries, generate_shared_batch

EXECUTORS = {
    "inline": {"use_threads": False},
    "thread": {},
    "process": {"backend": "process"},
}
FAILURE_SEEDS = (None, 1, 2, 4, 5)


@pytest.fixture(scope="module")
def graph():
    return G.gnm_random(35, 160, seed=21)


def make_batch(graph, sharing):
    if sharing:
        return generate_shared_batch(graph, 4, 24, seed=3,
                                     duplicate_fraction=0.5, source_pool=4)
    return generate_queries(graph, 4, 24, seed=3)


def serve(graph, queries, executor, **kwargs):
    service = BatchQueryService(graph, num_engines=3,
                                **EXECUTORS[executor], **kwargs)
    tracer = Tracer()
    try:
        report = service.run(queries, tracer=tracer)
    finally:
        service.close()
    assert tracer.open_spans == 0
    return report


@pytest.mark.parametrize("failure_seed", FAILURE_SEEDS)
@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("scheduler", ["round-robin", "longest-first"])
def test_static_failure_parity(graph, scheduler, sharing, failure_seed):
    queries = make_batch(graph, sharing)
    views = {}
    for executor in EXECUTORS:
        report = serve(graph, queries, executor, scheduler=scheduler,
                       sharing=sharing, inject_failures=1,
                       failure_seed=failure_seed)
        views[executor] = (
            report.requeued_queries,
            report.engine_failures,
            report.failed_engines,
            report.assignment,
            report.path_output_bytes(),
        )
    assert views["inline"] == views["thread"] == views["process"]


@pytest.mark.parametrize("failure_seed", (None, 1, 2))
@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_work_stealing_survives_failures(graph, executor, sharing,
                                         failure_seed):
    queries = make_batch(graph, sharing)
    baseline = serve(graph, queries, "inline", scheduler="work-stealing",
                     sharing=sharing)
    report = serve(graph, queries, executor, scheduler="work-stealing",
                   sharing=sharing, inject_failures=1,
                   failure_seed=failure_seed)
    assert report.num_queries == len(queries)
    assert report.path_sets() == baseline.path_sets()
    assert report.path_output_bytes() == baseline.path_output_bytes()
    assert report.requeued_queries >= report.engine_failures
    served = sorted(i for part in report.assignment for i in part)
    assert served == list(range(len(queries)))


def test_work_dealt_to_a_dead_worker_requeues_in_later_batches(graph):
    """A worker process found dead in one batch stays retired; in every
    later batch the static share dealt to it is requeued onto the
    survivors instead of being lost."""
    queries = generate_queries(graph, 4, 12, seed=3)
    service = BatchQueryService(graph, num_engines=2, backend="process")
    try:
        baseline = service.run(queries).path_output_bytes()
        victim = service._pool._procs[0]
        victim.terminate()
        victim.join(timeout=5)
        assert not victim.is_alive()
        for _ in range(2):  # the batch that notices, then one after
            report = service.run(queries)
            assert report.path_output_bytes() == baseline
            assert report.failed_engines == [0]
        # The death counts once; both batches requeue engine 0's share.
        assert report.engine_failures == 1
        assert report.requeued_queries == 2 * len(report.assignment[0])
    finally:
        service.close()
