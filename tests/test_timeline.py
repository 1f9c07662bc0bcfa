"""Windowed telemetry: sketches, MetricsTimeline, export, backends."""

import math
import pickle
import random

import pytest

from repro.errors import ConfigError
from repro.graph import generators
from repro.observability.timeline import (
    derive_window_metrics,
    read_timeline_jsonl,
    render_openmetrics,
    write_timeline_jsonl,
)
from repro.service import BatchQueryService
from repro.service.metrics import (
    ExactSum,
    HistogramSketch,
    MetricsRegistry,
    MetricsTimeline,
)
from repro.workloads.queries import generate_queries


class TestExactSum:
    def test_matches_fsum_regardless_of_order(self):
        rng = random.Random(3)
        values = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
                  for _ in range(500)]
        forward = ExactSum()
        backward = ExactSum()
        for v in values:
            forward.add(v)
        for v in reversed(values):
            backward.add(v)
        assert forward.value == backward.value == math.fsum(values)

    def test_merge_is_exact(self):
        values = [0.1] * 10 + [1e16, -1e16]
        a = ExactSum()
        b = ExactSum()
        for v in values[:6]:
            a.add(v)
        for v in values[6:]:
            b.add(v)
        a.merge(b)
        assert a.value == math.fsum(values)

    def test_copy_is_independent(self):
        a = ExactSum()
        a.add(1.0)
        b = a.copy()
        b.add(2.0)
        assert a.value == 1.0
        assert b.value == 3.0


class TestHistogramSketch:
    def test_exact_aggregates(self):
        sketch = HistogramSketch()
        values = [0.5, 2.0, 0.0, -3.0, 2.0]
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        assert sketch.total == math.fsum(values)
        assert sketch.minimum == -3.0
        assert sketch.maximum == 2.0

    def test_quantile_within_relative_error(self):
        rng = random.Random(11)
        values = [rng.uniform(1e-6, 10.0) for _ in range(2000)]
        sketch = HistogramSketch()
        for v in values:
            sketch.observe(v)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99):
            truth = ordered[int(math.ceil(len(ordered) * q)) - 1]
            # gamma = 2^(1/8): mid-bucket estimates sit within ~4.5%.
            assert sketch.quantile(q) == pytest.approx(truth, rel=0.05)

    def test_quantile_clamped_to_observed_range(self):
        sketch = HistogramSketch()
        sketch.observe(7.0)
        assert sketch.quantile(0.0) == 7.0
        assert sketch.quantile(1.0) == 7.0

    def test_rank_at_most_never_overcounts(self):
        rng = random.Random(5)
        values = [rng.uniform(0.0, 2.0) for _ in range(500)]
        sketch = HistogramSketch()
        for v in values:
            sketch.observe(v)
        for threshold in (0.25, 0.5, 1.0, 1.5):
            truth = sum(1 for v in values if v <= threshold)
            assert sketch.rank_at_most(threshold) <= truth

    def test_merged_shards_equal_pooled(self):
        rng = random.Random(9)
        values = [rng.uniform(1e-6, 1.0) for _ in range(300)]
        pooled = HistogramSketch()
        shard_a = HistogramSketch()
        shard_b = HistogramSketch()
        for i, v in enumerate(values):
            pooled.observe(v)
            (shard_a if i % 3 else shard_b).observe(v)
        shard_a.merge(shard_b)
        assert shard_a.to_dict() == pooled.to_dict()

    def test_gamma_mismatch_rejected(self):
        # Gamma is fixed; a document written at another gamma is foreign
        # input whose bucket indices would be silently misread.
        timeline = MetricsTimeline()
        timeline.observe(0.0, "x", 1.5)
        doc = timeline.to_dict()
        assert MetricsTimeline.from_dict(doc).canonical_bytes() == (
            timeline.canonical_bytes())
        with pytest.raises(ConfigError):
            MetricsTimeline.from_dict({**doc, "gamma": 2.0})
        sketch_doc = doc["windows"][0]["series"]["x"]
        with pytest.raises(ConfigError):
            HistogramSketch.from_dict({**sketch_doc, "gamma": 2.0})

    def test_dict_round_trip(self):
        sketch = HistogramSketch()
        for v in (0.0, 1.5, -2.0, 1e-9):
            sketch.observe(v)
        clone = HistogramSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.total == sketch.total


class TestMetricsTimeline:
    def test_record_buckets_by_window(self):
        tl = MetricsTimeline(window_seconds=1.0)
        tl.record(0.5, "queries")
        tl.record(0.9, "queries", 2)
        tl.record(2.5, "queries")
        assert tl.indices() == [0, 2]
        assert tl.counter_totals() == {"queries": 4}
        assert tl.span() == (0, 2)

    def test_zero_count_record_is_dropped(self):
        tl = MetricsTimeline(window_seconds=1.0)
        tl.record(0.5, "queries", 0)
        assert tl.num_windows == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigError):
            MetricsTimeline(window_seconds=0.0)

    def test_gauge_latest_timestamp_wins(self):
        tl = MetricsTimeline(window_seconds=1.0)
        tl.set_gauge(0.2, "depth", 5.0)
        tl.set_gauge(0.8, "depth", 1.0)
        tl.set_gauge(0.5, "depth", 9.0)  # older: ignored
        [entry] = tl.sliding(1)
        assert entry["gauges"]["depth"] == 1.0

    def test_sliding_covers_empty_windows(self):
        tl = MetricsTimeline(window_seconds=1.0)
        tl.record(0.5, "queries", 3)
        tl.record(3.5, "queries", 1)
        view = tl.sliding(1)
        assert [e["index"] for e in view] == [0, 1, 2, 3]
        assert view[1]["counters"] == {}
        assert view[3]["counters"] == {"queries": 1}

    def test_sliding_merges_trailing_windows(self):
        tl = MetricsTimeline(window_seconds=1.0)
        tl.record(0.5, "queries", 3)
        tl.observe(0.5, "lat", 1.0)
        tl.record(1.5, "queries", 2)
        tl.observe(1.5, "lat", 3.0)
        view = tl.sliding(2)
        assert view[1]["counters"]["queries"] == 5
        assert view[1]["series"]["lat"].count == 2
        assert view[1]["series"]["lat"].total == 4.0

    def test_merge_is_order_independent(self):
        def shard(seed):
            rng = random.Random(seed)
            tl = MetricsTimeline(window_seconds=1e-3)
            for _ in range(50):
                t = rng.uniform(0.0, 0.01)
                tl.record(t, "queries")
                tl.observe(t, "latency_seconds", rng.uniform(1e-6, 1e-3))
                tl.set_gauge(t, "depth", rng.randint(0, 5))
            return tl

        ab = shard(1)
        ab.merge(shard(2))
        ba = shard(2)
        ba.merge(shard(1))
        assert ab.canonical_bytes() == ba.canonical_bytes()

    def test_merge_rejects_self_and_mismatched_windows(self):
        tl = MetricsTimeline(window_seconds=1.0)
        with pytest.raises(ConfigError):
            tl.merge(tl)
        with pytest.raises(ConfigError):
            tl.merge(MetricsTimeline(window_seconds=2.0))

    def test_reconcile_clean_and_dirty(self):
        tl = MetricsTimeline(window_seconds=1.0)
        registry = MetricsRegistry()
        for t, v in ((0.5, 1e-4), (1.5, 2e-4), (1.7, 3e-4)):
            tl.record(t, "queries")
            tl.observe(t, "latency_seconds", v)
            registry.increment("queries")
            registry.observe("latency_seconds", v)
        assert tl.reconcile(registry) == []
        # An event the timeline never saw shows up as two mismatches.
        registry.increment("queries")
        registry.observe("latency_seconds", 5e-4)
        problems = tl.reconcile(registry)
        assert any("counter queries" in p for p in problems)
        assert any("series latency_seconds" in p for p in problems)

    def test_pickle_round_trip(self):
        tl = MetricsTimeline(window_seconds=1e-3)
        tl.record(0.0005, "queries", 2)
        tl.observe(0.0005, "lat", 1e-4)
        tl.set_gauge(0.0005, "depth", 3.0)
        clone = pickle.loads(pickle.dumps(tl))
        assert clone.canonical_bytes() == tl.canonical_bytes()

    def test_dict_round_trip(self):
        tl = MetricsTimeline(window_seconds=1e-3)
        tl.record(0.0021, "queries")
        tl.observe(0.0021, "lat", -1e-4)
        clone = MetricsTimeline.from_dict(tl.to_dict())
        assert clone.canonical_bytes() == tl.canonical_bytes()


class TestTimelineExport:
    def _sample_timeline(self):
        tl = MetricsTimeline(window_seconds=1e-3)
        for i in range(6):
            t = i * 4e-4
            tl.record(t, "queries")
            tl.record(t, "engine0_queries")
            tl.observe(t, "latency_seconds", (i + 1) * 1e-4)
            tl.observe(t, "engine0_device_seconds", 2e-4)
            tl.set_gauge(t, "engine0/queue_depth", 5 - i)
        return tl

    def test_jsonl_round_trip(self, tmp_path):
        tl = self._sample_timeline()
        path = write_timeline_jsonl(tl, tmp_path / "timeline.jsonl")
        clone = read_timeline_jsonl(path)
        assert clone.canonical_bytes() == tl.canonical_bytes()

    def test_jsonl_read_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ConfigError):
            read_timeline_jsonl(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigError):
            read_timeline_jsonl(empty)
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ConfigError):
            read_timeline_jsonl(unknown)
        header = ('{"kind":"timeline_header","version":1,'
                  '"window_seconds":0.001,"gamma":1.0905077326652577,'
                  '"num_windows":0}')
        dup = tmp_path / "dup.jsonl"
        dup.write_text(header + "\n" + header + "\n")
        with pytest.raises(ConfigError):
            read_timeline_jsonl(dup)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text(header.replace("1.0905077326652577", "2.0")
                           + "\n")
        with pytest.raises(ConfigError):
            read_timeline_jsonl(foreign)

    def test_derived_metrics(self):
        tl = self._sample_timeline()
        windows = derive_window_metrics(tl)
        first = windows[0]
        # 3 queries landed in window 0 of a 1 ms window.
        assert first["derived"]["throughput_qps"] == pytest.approx(3000.0)
        # 3 completions x 200 µs device time / 1 ms window.
        assert first["derived"]["engine0/utilization"] == pytest.approx(0.6)
        assert first["derived"]["in_flight_engines"] == 1

    def test_openmetrics_rendering(self):
        text = render_openmetrics(self._sample_timeline())
        assert text.endswith("# EOF\n")
        assert "# TYPE pefp_queries counter" in text
        # Cumulative counter samples are monotone over the windows.
        samples = [line.split() for line in text.splitlines()
                   if line.startswith("pefp_queries_total ")]
        values = [float(v) for _, v, _ in samples]
        stamps = [float(t) for _, _, t in samples]
        assert values == sorted(values)
        assert stamps == sorted(stamps)
        assert values[-1] == 6
        assert "pefp_latency_seconds_count" in text
        assert "pefp_engine0_queue_depth" in text
        assert "pefp_engine0_utilization" in text


class TestServiceTimelines:
    def _serve(self, graph, queries, **kwargs):
        service = BatchQueryService(graph, num_engines=2, **kwargs)
        timeline = MetricsTimeline()
        try:
            report = service.run(list(queries), timeline=timeline)
        finally:
            service.close()
        return report, timeline

    def test_backends_agree_and_reconcile(self):
        graph = generators.chung_lu(120, 600, seed=3)
        queries = generate_queries(graph, 4, 8, seed=3)
        serial_report, serial_tl = self._serve(
            graph, queries, use_threads=False)
        thread_report, thread_tl = self._serve(
            graph, queries, use_threads=True)
        assert serial_tl.reconcile(serial_report.metrics) == []
        assert thread_tl.reconcile(thread_report.metrics) == []
        assert serial_tl.canonical_bytes() == thread_tl.canonical_bytes()
        assert serial_tl.counter_totals()["queries"] == len(queries)
        assert serial_report.timeline is serial_tl
