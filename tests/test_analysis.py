"""Latency attribution: reconciliation, critical path, backend identity.

The load-bearing claims under test:

- **exact reconciliation** — every query's device segments tile its
  kernel cycle count in integer arithmetic, and the batch critical path
  reproduces ``ServiceBatchReport.makespan_seconds`` float for float;
- **source independence** — attributing the span trace and attributing
  the batch report give identical waterfalls, and so do the in-process
  and process backends, a rerun of the in-process one, and a trace
  round-tripped through ``Tracer.ingest``'s span-id remap;
- **regression attribution** — segment deltas between two attributions
  sum to the total delta and rank by contribution.
"""

from __future__ import annotations

import json

import pytest

from repro.graph import generators
from repro.observability import (
    DEVICE_SEGMENTS,
    SERVICE_SEGMENTS,
    Tracer,
    analyze_report,
    analyze_trace,
    attribute_regression,
    diff_segment_seconds,
    split_batch_cycles,
)
from repro.service import BatchQueryService
from repro.workloads.queries import generate_queries


@pytest.fixture(scope="module")
def graph():
    g = generators.chung_lu(240, 1500, seed=9)
    g.reverse()  # warm the memo so T1 is order-independent across tests
    return g


@pytest.fixture(scope="module")
def queries(graph):
    return generate_queries(graph, 4, 18, seed=3)


def _serve(graph, queries, **kwargs):
    service = BatchQueryService(graph, num_engines=3, **kwargs)
    tracer = Tracer()
    try:
        report = service.run(queries, tracer=tracer, profile=True)
    finally:
        service.close()
    return tracer, report


@pytest.fixture(scope="module")
def served(graph, queries):
    return _serve(graph, queries)


class TestReconciliation:
    def test_every_waterfall_reconciles_exactly(self, served):
        tracer, report = served
        for attribution in (analyze_trace(tracer.records()),
                            analyze_report(report)):
            assert attribution.num_queries == report.num_queries
            for wf in attribution.waterfalls:
                assert wf.detailed
                assert wf.accounted_cycles == wf.total_cycles
                if wf.total_cycles:
                    assert wf.kernel_seconds == (
                        wf.total_cycles / wf.frequency_hz
                    )
            assert attribution.reconciled

    def test_total_seconds_is_the_report_sum(self, served):
        """preprocess + kernel is the exact float SystemReport adds."""
        _, report = served
        attribution = analyze_report(report)
        by_key = {
            (wf.source, wf.target): wf for wf in attribution.waterfalls
        }
        for r in report.reports:
            wf = by_key[(r.query.source, r.query.target)]
            assert wf.total_seconds == r.total_seconds

    def test_queue_wait_is_predecessor_time(self, served):
        tracer, _ = served
        attribution = analyze_trace(tracer.records())
        running: dict[str, float] = {}
        for wf in attribution.waterfalls:
            assert wf.queue_wait_seconds == running.get(wf.engine, 0.0)
            running[wf.engine] = (
                running.get(wf.engine, 0.0) + wf.total_seconds
            )

    def test_segment_totals_cover_service_segments(self, served):
        _, report = served
        attribution = analyze_report(report)
        totals = attribution.segment_seconds()
        assert set(totals) == set(SERVICE_SEGMENTS)
        cycles = attribution.segment_cycles()
        assert set(cycles) == set(DEVICE_SEGMENTS)
        assert sum(cycles.values()) == sum(
            r.fpga_cycles for r in report.reports
        )


class TestCriticalPath:
    def test_length_equals_makespan_exactly(self, served):
        _, report = served
        attribution = analyze_report(report)
        assert attribution.critical_path.length_seconds \
            == report.makespan_seconds
        assert attribution.makespan_seconds == report.makespan_seconds

    def test_bounded_by_makespan_and_longest_span(self, served):
        """<= makespan, >= the longest single leaf span of the batch."""
        tracer, _ = served
        attribution = analyze_trace(tracer.records())
        path = attribution.critical_path
        assert path.length_seconds <= attribution.makespan_seconds
        longest_leaf = max(
            max(wf.preprocess_seconds, wf.kernel_seconds)
            for wf in attribution.waterfalls
        )
        assert path.length_seconds >= longest_leaf

    def test_steps_chain_to_the_bound(self, served):
        _, report = served
        attribution = analyze_report(report)
        path = attribution.critical_path
        assert path.kind in ("host", "device")
        if path.kind == "device":
            assert path.engine is not None
            timeline = next(t for t in attribution.timelines
                            if t.engine == path.engine)
            assert len(path.steps) == timeline.queries
        else:
            assert len(path.steps) == attribution.num_queries
        # The chain re-adds to its length in the accumulation order the
        # serving loop used: per-engine running sums, engines combined
        # with sum() (a flat left-fold would differ in the last ulp).
        per_engine: dict[str, float] = {}
        for label, seconds in path.steps:
            engine = label.split("/", 1)[0]
            per_engine[engine] = per_engine.get(engine, 0.0) + seconds
        if path.kind == "host":
            assert sum(per_engine.values()) == path.length_seconds
        else:
            assert per_engine[path.engine] == path.length_seconds

    def test_empty_trace_attributes_to_nothing(self):
        attribution = analyze_trace([])
        assert attribution.num_queries == 0
        assert attribution.makespan_seconds == 0.0
        assert attribution.reconciled


class TestSourceIndependence:
    def test_trace_matches_report(self, served):
        tracer, report = served
        assert analyze_trace(tracer.records()).matches(
            analyze_report(report)
        )

    def test_invariant_under_ingest_remap(self, served):
        """Span-id remapping must not change the attribution."""
        tracer, _ = served
        remapped = Tracer()
        remapped.ingest(tracer.records())
        original = analyze_trace(tracer.records())
        assert analyze_trace(remapped.records()).matches(original)

    def test_thread_backend_attributes_identically(self, graph, queries,
                                                   served):
        """A rerun on the ``"thread"`` (in-process) backend, on a fresh
        service, attributes identically."""
        tracer, _ = served
        threaded, _ = _serve(graph, queries)
        assert analyze_trace(threaded.records()).matches(
            analyze_trace(tracer.records())
        )

    def test_process_backend_attributes_identically(self, graph, queries,
                                                    served):
        tracer, _ = served
        process, _ = _serve(graph, queries, backend="process")
        attribution = analyze_trace(process.records())
        assert attribution.reconciled
        assert attribution.matches(analyze_trace(tracer.records()))


class TestEngineTimelines:
    def test_timelines_reproduce_report_busy_times(self, served):
        _, report = served
        attribution = analyze_report(report)
        assert len(attribution.timelines) == report.num_engines
        for idx, timeline in enumerate(attribution.timelines):
            assert timeline.engine == f"engine{idx}"
            assert timeline.host_seconds \
                == report.engine_host_seconds[idx]
            assert timeline.device_seconds \
                == report.engine_device_seconds[idx]
            assert 0.0 <= attribution.utilization(timeline) <= 1.0


class TestTailAttribution:
    def test_tail_is_slower_than_median(self, served):
        _, report = served
        tail = analyze_report(report).tail()
        assert tail is not None
        assert tail.tail_mean_seconds >= tail.median_seconds
        assert tail.tail_threshold_seconds >= tail.median_seconds
        assert tail.dominant_segment in SERVICE_SEGMENTS

    def test_decile_sizing(self, served):
        _, report = served
        attribution = analyze_report(report)
        tail = attribution.tail(decile=0.5)
        assert tail.tail_count >= attribution.num_queries // 2


class TestCycleSplit:
    def test_split_is_exhaustive(self):
        stages = {"load": 10, "edge_fetch": 40, "verify": 90,
                  "writeback": 5}
        busy, stall, overhead, bound = split_batch_cycles(
            100, 7, 3, stages
        )
        assert bound == "verify"
        assert busy == 90
        assert stall == (100 - 90) + 3
        assert busy + stall + overhead == 100 + 3 + 7

    def test_dram_bound_batch_is_a_stall(self):
        """Pipeline longer than every stage: the excess is wait time."""
        busy, stall, overhead, bound = split_batch_cycles(
            200, 0, 0, {"edge_fetch": 60, "verify": 50}
        )
        assert bound == "expand"
        assert busy == 60
        assert stall == 140
        assert busy + stall + overhead == 200

    def test_empty_batch_expands_nothing(self):
        busy, stall, overhead, bound = split_batch_cycles(0, 0, 0, {})
        assert (busy, stall, overhead) == (0, 0, 0)
        assert bound == "expand"


class TestRegressionAttribution:
    def test_deltas_sum_to_total(self, served):
        tracer, report = served
        baseline = analyze_trace(tracer.records())
        candidate = analyze_report(report)
        regression = attribute_regression(baseline, candidate)
        assert regression.delta_total == pytest.approx(
            sum(d.delta_seconds for d in regression.deltas)
        )

    def test_ranked_by_contribution(self):
        regression = diff_segment_seconds(
            {"preprocess": 1.0, "kernel_expand": 2.0},
            {"preprocess": 1.5, "kernel_expand": 2.1},
        )
        ranked = regression.ranked()
        assert ranked[0].segment == "preprocess"
        assert ranked[0].delta_seconds == pytest.approx(0.5)
        assert regression.share_of_delta(ranked[0]) \
            == pytest.approx(0.5 / 0.6)

    def test_unknown_segments_still_attributed(self):
        regression = diff_segment_seconds(
            {"custom": 1.0}, {"custom": 3.0}
        )
        assert any(d.segment == "custom" and d.delta_seconds == 2.0
                   for d in regression.deltas)
        assert regression.delta_total == 2.0

    def test_zero_delta_has_no_shares(self):
        regression = diff_segment_seconds(
            {"preprocess": 1.0}, {"preprocess": 1.0}
        )
        assert regression.share_of_delta(regression.deltas[0]) == 0.0


class TestSerialization:
    def test_to_dict_round_trips_through_json(self, served):
        _, report = served
        attribution = analyze_report(report)
        doc = json.loads(json.dumps(attribution.to_dict()))
        assert doc["reconciled"] is True
        assert doc["num_queries"] == report.num_queries
        assert doc["makespan_seconds"] == report.makespan_seconds
        assert set(doc["segment_seconds"]) == set(SERVICE_SEGMENTS)
        assert len(doc["queries"]) == report.num_queries
