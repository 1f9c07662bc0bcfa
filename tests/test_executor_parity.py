"""Work dealt to a worker process that died in an earlier batch.

That the in-process and worker-process executors agree under seeded
fault injection is the executor class of the oracle harness
(``tests/oracle.py``).  This test pins the one requeue rule across
batches: a dead worker stays retired, and its static share is requeued
onto the survivors instead of being lost.
"""

from __future__ import annotations

from repro.graph import generators as G
from repro.service import BatchQueryService
from repro.workloads import generate_queries


def test_work_dealt_to_a_dead_worker_requeues_in_later_batches():
    """A worker process found dead in one batch stays retired; in every
    later batch the static share dealt to it is requeued onto the
    survivors instead of being lost."""
    graph = G.gnm_random(35, 160, seed=21)
    queries = generate_queries(graph, 4, 12, seed=3)
    service = BatchQueryService(graph, num_engines=2, backend="process")
    try:
        baseline = service.run(queries).path_output_bytes()
        victim = service._pool._procs[0]
        victim.terminate()
        victim.join(timeout=5)
        assert not victim.is_alive()
        # The batch that notices counts the death; both it and the next
        # batch requeue engine 0's share.
        for failures in (1, 0):
            report = service.run(queries)
            assert report.path_output_bytes() == baseline
            assert report.failed_engines == [0]
            assert report.engine_failures == failures
            assert report.requeued_queries == len(report.assignment[0])
        # The service's registry counts over every batch.
        assert report.metrics.counter("engine_failures") == 1
        assert (report.metrics.counter("requeued_queries")
                == 2 * len(report.assignment[0]))
    finally:
        service.close()
