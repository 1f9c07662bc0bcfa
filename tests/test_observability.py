"""Tracing + profiling subsystem: span integrity, exports, reconciliation.

The load-bearing assertions here are the two reconciliation invariants
the observability layer is designed around:

- every device cycle is accounted: ``DeviceProfile.accounted_cycles``
  (setup + per-batch deltas + refill stalls) equals the engine's total
  cycle count on :class:`SystemReport` exactly;
- the trace and the metrics agree: the modelled duration of every
  ``query`` span in the Chrome export equals the corresponding
  ``latency_seconds`` observation in the :class:`MetricsRegistry`.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.graph import generators
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    query_durations_seconds,
    read_jsonl,
)
from repro.observability.prometheus import (
    MetricsHTTPServer,
    render_prometheus,
)
from repro.service import BatchQueryService, MetricsRegistry
from repro.workloads.queries import generate_queries


@pytest.fixture(scope="module")
def traced_run():
    """One traced + profiled query on a mid-size random graph."""
    graph = generators.chung_lu(300, 1800, seed=3)
    system = PathEnumerationSystem(graph)
    tracer = Tracer()
    report = system.execute(
        Query(source=0, target=7, max_hops=5), tracer=tracer, profile=True
    )
    return tracer, report


class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = {r.name: r for r in tracer.records()}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id is None
        assert tracer.open_spans == 0

    def test_track_scope_and_inheritance(self):
        tracer = Tracer()
        with tracer.track("engine3"):
            with tracer.span("query"):
                with tracer.span("kernel"):
                    pass
        with tracer.span("outside"):
            pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["query"].track == "engine3"
        assert by_name["kernel"].track == "engine3"  # inherited
        assert by_name["outside"].track == "main"

    def test_detach_breaks_parenting(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("dma", detach=True, track="pcie"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["dma"].parent_id is None
        assert by_name["dma"].track == "pcie"

    def test_complete_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("kernel") as kernel:
            tracer.complete("batch", 0, modelled_seconds=1e-6, entries=3)
        batch = next(r for r in tracer.records() if r.name == "batch")
        assert batch.parent_id == kernel.span_id
        assert batch.attrs["entries"] == 3
        assert batch.modelled_seconds == 1e-6

    def test_exception_closes_span_with_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("query"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record.attrs["error"] == "ValueError"
        assert tracer.open_spans == 0

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", flavour="x") as span:
            span.set_modelled(0.5)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        loaded = read_jsonl(path)
        assert loaded == tracer.records()

    def test_attrs_merge(self):
        tracer = Tracer()
        with tracer.span("q", a=1) as span:
            span.set(b=2).set(a=3)
        (record,) = tracer.records()
        assert record.attrs == {"a": 3, "b": 2}


class TestNullTracer:
    def test_falsy_and_noop(self):
        assert not NULL_TRACER
        assert not NullTracer()
        with NULL_TRACER.span("x") as span:
            assert span.set(a=1) is span
            assert span.set_modelled(1.0) is span
        with NULL_TRACER.track("engine0"):
            NULL_TRACER.complete("y", 0)
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.open_spans == 0

    def test_export_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            NULL_TRACER.write_jsonl(tmp_path / "x.jsonl")

    def test_real_tracer_is_truthy(self):
        assert Tracer()


class TestTraceIntegrity:
    def test_all_spans_closed(self, traced_run):
        tracer, _ = traced_run
        assert tracer.open_spans == 0

    def test_parent_links_valid_and_nested(self, traced_run):
        tracer, _ = traced_run
        records = tracer.records()
        by_id = {r.span_id: r for r in records}
        for record in records:
            if record.parent_id is None:
                continue
            parent = by_id[record.parent_id]  # parent must exist
            assert parent.track == record.track
            # wall nesting: a child's life is inside its parent's.
            assert record.start_ns >= parent.start_ns
            assert record.end_ns <= parent.end_ns

    def test_expected_lifecycle_spans(self, traced_run):
        tracer, _ = traced_run
        names = {r.name for r in tracer.records()}
        assert {"query", "preprocess", "kernel", "kernel_setup", "batch",
                "dma_to_device", "dma_from_device"} <= names

    def test_span_modelled_times_match_report(self, traced_run):
        tracer, report = traced_run
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["preprocess"].modelled_seconds == pytest.approx(
            report.preprocess_seconds
        )
        assert by_name["kernel"].modelled_seconds == pytest.approx(
            report.query_seconds
        )
        assert by_name["query"].modelled_seconds == pytest.approx(
            report.total_seconds
        )
        assert by_name["dma_to_device"].modelled_seconds == pytest.approx(
            report.transfer_seconds
        )

    def test_kernel_children_sum_to_kernel_time(self, traced_run):
        """batch + refill + setup spans tile the kernel span exactly."""
        tracer, report = traced_run
        records = tracer.records()
        kernel = next(r for r in records if r.name == "kernel")
        child_sum = sum(
            r.modelled_seconds
            for r in records
            if r.parent_id == kernel.span_id
        )
        assert child_sum == pytest.approx(report.query_seconds, rel=1e-12)


class TestDeviceProfileReconciliation:
    def test_batch_cycles_sum_to_engine_total(self, traced_run):
        _, report = traced_run
        profile = report.profile
        assert profile is not None
        assert profile.accounted_cycles == profile.total_cycles
        assert profile.total_cycles == report.fpga_cycles

    def test_profile_counts_match_engine_stats(self, traced_run):
        _, report = traced_run
        profile = report.profile
        assert profile.num_batches == report.engine_stats.batches
        assert sum(b.results for b in profile.batches) == report.num_paths
        assert profile.buffer_peak_paths > 0

    def test_stage_occupancy_bounded(self, traced_run):
        _, report = traced_run
        for stage, occ in report.profile.stage_occupancy().items():
            assert 0.0 <= occ <= 1.0, stage

    def test_cache_counters_present(self, traced_run):
        _, report = traced_run
        counters = report.profile.cache_counters
        assert set(counters) == {"vertex_arr", "edge_arr", "bar_arr"}
        for label in counters:
            assert 0.0 <= report.profile.cache_hit_rate(label) <= 1.0

    def test_profile_off_by_default(self):
        graph = generators.chung_lu(60, 240, seed=2)
        system = PathEnumerationSystem(graph)
        report = system.execute(Query(source=0, target=5, max_hops=4))
        assert report.profile is None

    def test_to_dict_is_json_serialisable(self, traced_run):
        _, report = traced_run
        json.dumps(report.profile.to_dict())


class TestChromeExport:
    def test_document_structure(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer.records())
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"M", "X", "i"}
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "main" in names
        assert "pcie" in names
        json.dumps(doc)  # must be serialisable as-is

    def test_query_duration_matches_report(self, traced_run):
        tracer, report = traced_run
        (duration,) = query_durations_seconds(chrome_trace(tracer.records()))
        assert duration == pytest.approx(report.total_seconds, rel=1e-9)

    def test_children_laid_out_inside_parent(self, traced_run):
        tracer, _ = traced_run
        doc = chrome_trace(tracer.records())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        kernel = next(e for e in slices if e["name"] == "kernel")
        for e in slices:
            if e["name"] == "batch":
                assert e["ts"] >= kernel["ts"] - 1e-9
                assert (e["ts"] + e["dur"]
                        <= kernel["ts"] + kernel["dur"] + 1e-6)


class TestPrometheusExposition:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.increment("queries", 3)
        for v in (0.1, 0.2, 0.3):
            registry.observe("latency_seconds", v)
        registry.observe("batch_cycles", 120.0)
        registry.observe("batch_cycles", 5000.0)
        return registry

    def test_render_text_format(self):
        text = render_prometheus(self.make_registry())
        assert "# TYPE pefp_queries counter" in text
        assert "pefp_queries 3" in text
        assert "# TYPE pefp_latency_seconds summary" in text
        assert 'pefp_latency_seconds{quantile="0.5"} 0.2' in text
        assert "pefp_latency_seconds_count 3" in text
        assert "# TYPE pefp_batch_cycles summary" in text
        assert 'pefp_batch_cycles{quantile="0.99"} 5000' in text
        assert "pefp_batch_cycles_sum 5120" in text
        assert "pefp_batch_cycles_count 2" in text
        assert " histogram" not in text
        assert text.endswith("\n")

    def test_http_endpoint(self):
        registry = self.make_registry()
        with MetricsHTTPServer(registry, port=0) as server:
            body = urllib.request.urlopen(server.url).read().decode()
            assert "pefp_queries 3" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/other"
                )


class TestServiceTracing:
    @pytest.fixture(scope="class")
    def served(self):
        graph = generators.chung_lu(240, 1500, seed=9)
        queries = generate_queries(graph, 4, 16, seed=1)
        service = BatchQueryService(graph, num_engines=3)
        tracer = Tracer()
        report = service.run(queries, tracer=tracer, profile=True)
        return service, tracer, report

    def test_every_query_on_an_engine_track(self, served):
        _, tracer, report = served
        query_spans = [r for r in tracer.records() if r.name == "query"]
        assert len(query_spans) == report.num_queries
        assert all(r.track.startswith("engine") for r in query_spans)

    def test_chrome_durations_reconcile_with_latency_metrics(self, served):
        """Acceptance criterion: trace vs registry, within rounding."""
        service, tracer, report = served
        durations = sorted(
            query_durations_seconds(chrome_trace(tracer.records()))
        )
        samples = sorted(service.metrics.samples("latency_seconds"))
        assert len(durations) == len(samples) == report.num_queries
        for d, s in zip(durations, samples):
            assert d == pytest.approx(s, rel=1e-9)

    def test_device_profiles_reconcile_with_reports(self, served):
        """Acceptance criterion: per-batch counters sum to total cycles."""
        _, _, report = served
        profiled = [r for r in report.reports if r.profile is not None]
        assert profiled  # non-empty queries carry a profile
        for r in profiled:
            assert r.profile.accounted_cycles == r.fpga_cycles
        summary = report.profile_summary()
        assert summary["total_cycles"] == sum(
            r.fpga_cycles for r in report.reports
        )

    def test_profile_feeds_registry_histograms(self, served):
        service, _, report = served
        batch_cycles = service.metrics.summary("batch_cycles")
        assert batch_cycles is not None
        assert batch_cycles.count == sum(
            p.num_batches for p in report.device_profiles
        )
        assert batch_cycles.total == sum(
            b.cycles for p in report.device_profiles for b in p.batches
        )
        assert service.metrics.counter("device_cycles") == sum(
            p.total_cycles for p in report.device_profiles
        )

    def test_trace_report_renders(self, served):
        from repro.reporting.trace import trace_report

        _, tracer, report = served
        text = trace_report(tracer.records(), report.profile_summary())
        assert "serve_batch" in text
        assert "engine0" in text
        assert "device cycles" in text

    def test_untraced_run_unchanged(self):
        """Same answers with and without observability enabled."""
        graph = generators.chung_lu(150, 800, seed=4)
        queries = generate_queries(graph, 4, 8, seed=2)
        plain = BatchQueryService(graph, num_engines=2).run(queries)
        traced = BatchQueryService(graph, num_engines=2).run(
            queries, tracer=Tracer(), profile=True
        )
        assert plain.path_sets() == traced.path_sets()


class TestSeededFaultInjection:
    def make(self, seed):
        graph = generators.chung_lu(120, 600, seed=6)
        return BatchQueryService(
            graph, num_engines=4, inject_failures=2, failure_seed=seed
        )

    def test_same_seed_same_plan(self):
        assert self.make(13).failure_plan == self.make(13).failure_plan

    def test_seeds_span_different_plans(self):
        plans = {tuple(self.make(s).failure_plan) for s in range(20)}
        assert len(plans) > 1

    def test_legacy_default_plan(self):
        graph = generators.chung_lu(120, 600, seed=6)
        service = BatchQueryService(
            graph, num_engines=4, inject_failures=2
        )
        assert service.failure_plan == [(0, 1), (1, 1)]

    def test_seeded_run_is_reproducible(self):
        graph = generators.chung_lu(120, 600, seed=6)
        queries = generate_queries(graph, 4, 12, seed=3)

        def run_once():
            service = BatchQueryService(
                graph, num_engines=3, inject_failures=1, failure_seed=99,
            )
            return service.run(queries)

        a, b = run_once(), run_once()
        assert a.failure_plan == b.failure_plan
        assert a.failed_engines == b.failed_engines
        assert a.path_sets() == b.path_sets()
        assert a.requeued_queries == b.requeued_queries


class TestSpanHygiene:
    """No span survives an error path: ``open_spans == 0`` afterwards.

    The attribution layer reads finished spans only, so a leaked open
    span means silently missing latency — these regression-test every
    failure mode the service can unwind through with a tracer attached.
    """

    @pytest.fixture()
    def workload(self):
        graph = generators.chung_lu(150, 800, seed=6)
        return graph, generate_queries(graph, 4, 9, seed=5)

    def test_all_engines_failing_leaves_no_open_spans(self, workload):
        from repro.errors import ServiceError

        graph, queries = workload
        service = BatchQueryService(
            graph, num_engines=2, inject_failures=2
        )
        tracer = Tracer()
        with pytest.raises(ServiceError):
            service.run(queries, tracer=tracer)
        assert tracer.open_spans == 0
        # Failed attempts close their query spans with an error marker
        # and no modelled time, so attribution skips them.
        errored = [r for r in tracer.records()
                   if r.name == "query" and "error" in r.attrs]
        assert errored
        assert all(r.modelled_seconds is None for r in errored)

    def test_requeue_after_failure_leaves_no_open_spans(self, workload):
        graph, queries = workload
        service = BatchQueryService(
            graph, num_engines=3, inject_failures=1, failure_seed=99,
        )
        tracer = Tracer()
        report = service.run(queries, tracer=tracer, profile=True)
        assert report.engine_failures >= 1
        assert tracer.open_spans == 0
        from repro.observability import analyze_trace

        attribution = analyze_trace(tracer.records())
        assert attribution.num_queries == report.num_queries
        assert all(wf.reconciled for wf in attribution.waterfalls)

    def test_budget_truncation_leaves_no_open_spans(self, workload):
        from repro.core.config import QueryBudget

        graph, queries = workload
        service = BatchQueryService(graph, num_engines=2)
        tracer = Tracer()
        report = service.run(
            queries, budget=QueryBudget(max_results=1), tracer=tracer,
            profile=True,
        )
        assert report.truncated_queries > 0
        assert tracer.open_spans == 0
        from repro.observability import analyze_trace

        attribution = analyze_trace(tracer.records())
        assert attribution.reconciled
        assert any(wf.truncated for wf in attribution.waterfalls)


class TestCounterAndGaugeExposition:
    def test_gauges_render_as_gauge_metrics(self):
        registry = MetricsRegistry()
        registry.set_gauge("attribution/kernel_verify_share", 0.75)
        text = render_prometheus(registry)
        assert "# TYPE pefp_attribution_kernel_verify_share gauge" in text
        assert "pefp_attribution_kernel_verify_share 0.75" in text

    def test_sharing_counters_exported(self):
        """PR 7's sharing counters reach the Prometheus exposition."""
        graph = generators.chung_lu(150, 800, seed=4)
        queries = generate_queries(graph, 4, 6, seed=2)
        service = BatchQueryService(
            graph, num_engines=2, sharing=True
        )
        service.run(list(queries) + list(queries))  # force dedupe hits
        text = render_prometheus(service.metrics)
        for counter in ("pefp_deduped_queries", "pefp_shared_frontiers",
                        "pefp_build_failures"):
            assert f"# TYPE {counter} counter" in text
        assert service.metrics.counter("deduped_queries") > 0
        assert service.metrics.counter("deduped_queries") \
            == service.metrics.counter("result_hits")

    def test_attribution_gauges_set_on_profiled_runs(self):
        graph = generators.chung_lu(150, 800, seed=4)
        queries = generate_queries(graph, 4, 6, seed=2)
        service = BatchQueryService(graph, num_engines=2)
        service.run(queries, profile=True)
        text = render_prometheus(service.metrics)
        assert "pefp_attribution_preprocess_share" in text
        assert "pefp_attribution_kernel_verify_share" in text
        shares = [
            service.metrics.gauge(f"attribution/{segment}_share")
            for segment in ("preprocess", "kernel_setup", "kernel_expand",
                            "kernel_verify", "kernel_stall",
                            "kernel_overhead")
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_unprofiled_run_sets_no_attribution_gauges(self):
        graph = generators.chung_lu(150, 800, seed=4)
        queries = generate_queries(graph, 4, 6, seed=2)
        service = BatchQueryService(graph, num_engines=2)
        service.run(queries)
        assert "attribution" not in render_prometheus(service.metrics)
