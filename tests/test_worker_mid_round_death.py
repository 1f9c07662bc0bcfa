"""A worker process that dies partway through its round.

An index counts as served only once the ``round_done`` message carrying
its answer arrives, so a worker process that dies after serving part of
its round loses the whole round: every query dealt to it requeues onto
the survivors, and the batch still answers exactly what the in-process
backend answers.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.graph import generators as G
from repro.service import BatchQueryService
from repro.service.batch import FlakyEngine
from repro.workloads import generate_queries


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched engine reaches the worker only by fork",
)
def test_worker_dying_mid_round_requeues_its_whole_round(monkeypatch):
    graph = G.gnm_random(35, 160, seed=21)
    queries = generate_queries(graph, 4, 12, seed=3)
    expected = BatchQueryService(graph, num_engines=2).run(queries)

    def die(self, *args, **kwargs):
        # The worker process exits where FlakyEngine would raise, with
        # its served answers still unsent.
        if self.runs >= self.fail_after:
            os._exit(1)
        self.runs += 1
        return self.inner.run(*args, **kwargs)

    monkeypatch.setattr(FlakyEngine, "run", die)
    # inject_failures=1 without a seed: engine 0 dies on its second run.
    service = BatchQueryService(graph, num_engines=2, backend="process",
                                mp_context="fork", inject_failures=1)
    try:
        report = service.run(queries)
    finally:
        service.close()

    dealt = report.assignment[0]
    assert len(dealt) >= 2  # it served one query before dying
    assert report.failed_engines == [0]
    assert report.engine_failures == 1
    assert report.requeued_queries == len(dealt)
    assert report.path_output_bytes() == expected.path_output_bytes()
