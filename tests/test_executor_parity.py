"""Work dealt to a worker process that died in an earlier batch.

That the inline, thread-pool and worker-process executors agree under
seeded fault injection is the executor class of the oracle harness
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
        for _ in range(2):  # the batch that notices, then one after
            report = service.run(queries)
            assert report.path_output_bytes() == baseline
            assert report.failed_engines == [0]
        # The death counts once; both batches requeue engine 0's share.
        assert report.engine_failures == 1
        assert report.requeued_queries == 2 * len(report.assignment[0])
    finally:
        service.close()
