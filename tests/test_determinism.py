"""Fault plans, the all-engines-failed error and the canonical answer bytes.

``ServiceBatchReport.path_output_bytes()`` canonicalises a batch's
answers (sorted paths, sorted keys, compact JSON).  That those bytes
depend only on the graph and the batch, not on the executor, scheduler,
engine count or seeded fault plan, is the service answer class of the
oracle harness (``tests/oracle.py``).  The tests here pin the pieces it
rests on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.graph import generators as G
from repro.service import BatchQueryService
from repro.workloads import generate_queries


def make_batch(count=12):
    graph = G.chung_lu(55, 280, seed=40)
    return graph, generate_queries(graph, 4, count, seed=4)


def test_failure_plan_is_reproducible_from_seed():
    graph, _ = make_batch()
    plans = [
        BatchQueryService(graph, num_engines=4, inject_failures=2,
                          failure_seed=99).failure_plan
        for _ in range(3)
    ]
    assert plans[0] == plans[1] == plans[2]
    assert len(plans[0]) == 2


def test_all_engines_failing_raises_on_both_backends():
    graph, queries = make_batch(count=6)
    for backend in ("thread", "process"):
        service = BatchQueryService(
            graph, num_engines=2, backend=backend, inject_failures=2,
        )
        try:
            with pytest.raises(ServiceError):
                service.run(queries)
        finally:
            service.close()


def test_path_output_bytes_is_canonical():
    """Bytes are stable JSON: key-sorted, path-sorted, ascii."""
    graph, queries = make_batch(count=5)
    service = BatchQueryService(graph, num_engines=2)
    report = service.run(queries)
    payload = json.loads(report.path_output_bytes())
    assert len(payload) == len(queries)
    for entry, query in zip(payload, queries):
        assert entry["source"] == query.source
        assert entry["target"] == query.target
        assert entry["max_hops"] == query.max_hops
        assert entry["paths"] == sorted(entry["paths"])
    # Round-tripping through dumps with the same options is the identity.
    assert json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode() == report.path_output_bytes()
