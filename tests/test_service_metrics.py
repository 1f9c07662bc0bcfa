"""Unit tests for the service metrics registry and percentile math."""

import math
import threading

import pytest

from repro.service.metrics import (
    EXACT_SAMPLES,
    LatencySummary,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        for q in (0, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_p0_is_minimum(self):
        assert percentile([4.0, 2.0, 9.0], 0) == 2.0

    def test_returns_actual_sample(self):
        samples = [0.1, 0.2, 10.0]
        assert percentile(samples, 99) in samples

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rank_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestLatencySummary:
    def test_fields(self):
        s = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.total == 10.0
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == 2.0
        assert s.p99 == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_samples([])


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        assert m.counter("x") == 0
        m.increment("x")
        m.increment("x", 4)
        assert m.counter("x") == 5

    def test_observe_and_summary(self):
        m = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            m.observe("latency_seconds", v)
        summary = m.summary("latency_seconds")
        assert summary is not None
        assert summary.count == 3
        assert summary.p50 == 2.0

    def test_summary_missing_series_is_none(self):
        assert MetricsRegistry().summary("nope") is None

    def test_samples_returns_copy(self):
        m = MetricsRegistry()
        m.observe("s", 1.0)
        m.samples("s").append(99.0)
        assert m.samples("s") == [1.0]

    def test_snapshot(self):
        m = MetricsRegistry()
        m.increment("queries", 2)
        m.observe("latency_seconds", 0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"queries": 2}
        assert snap["series"]["latency_seconds"].count == 1

    def test_thread_safety_under_contention(self):
        m = MetricsRegistry()

        def hammer():
            for _ in range(500):
                m.increment("n")
                m.observe("s", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 2000
        assert m.summary("s").count == 2000


class TestReservoirSampling:
    """The raw observation list behind exact percentiles, capped at
    ``EXACT_SAMPLES``; past the cap only the sketch remains."""

    def test_exact_below_capacity(self):
        registry = MetricsRegistry()
        for v in range(7):
            registry.observe("x", float(v))
        assert registry.samples("x") == [float(v) for v in range(7)]
        assert registry.sample_count("x") == 7

    def test_capped_above_capacity(self):
        registry = MetricsRegistry()
        for v in range(EXACT_SAMPLES):
            registry.observe("x", float(v))
        assert len(registry.samples("x")) == EXACT_SAMPLES
        registry.observe("x", 0.5)
        assert registry.samples("x") is None
        assert registry.sample_count("x") == EXACT_SAMPLES + 1

    def test_aggregates_stay_exact_past_cap(self):
        registry = MetricsRegistry()
        values = [v / 7 for v in range(1, 10_001)]
        for v in values:
            registry.observe("x", v)
        summary = registry.summary("x")
        assert summary.count == 10_000
        assert summary.total == math.fsum(values)
        assert summary.mean == math.fsum(values) / 10_000
        assert summary.minimum == values[0]
        assert summary.maximum == values[-1]

    def test_reservoir_percentiles_are_plausible(self):
        registry = MetricsRegistry()
        for v in range(1, 20_001):
            registry.observe("x", float(v))
        summary = registry.summary("x")
        # Past the cap quantiles come from the 2^(1/8) sketch: within
        # ~4.5% of the nearest-rank truth.
        assert summary.p50 == pytest.approx(10_000, rel=0.05)
        assert summary.p99 == pytest.approx(19_800, rel=0.05)


class TestHistograms:
    """Device distributions (per-batch cycles, occupancy, hit rates) are
    ordinary sample series, rendered as Prometheus summaries."""

    def test_bucketing_and_overflow(self):
        registry = MetricsRegistry()
        for v in (5.0, 50.0, 500.0, 5e9):
            registry.observe("cycles", v)
        sketch = registry.sketch("cycles")
        # Every magnitude gets its own log bucket; nothing overflows.
        assert len(sketch.positive) == 4
        summary = registry.summary("cycles")
        assert summary.count == 4
        assert summary.total == 5e9 + 555.0
        assert summary.maximum == 5e9
        assert summary.p50 == 50.0

    def test_missing_histogram_is_none(self):
        registry = MetricsRegistry()
        assert registry.sketch("nope") is None
        assert registry.summary("nope") is None
        assert registry.samples("nope") == []

    def test_snapshot_includes_histograms(self):
        registry = MetricsRegistry()
        registry.observe("batch_cycles", 1.0)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "series"}
        assert snap["series"]["batch_cycles"].count == 1


class TestMergeQuantileBias:
    """Regression: merged quantiles must not over-weight small workers.

    Once a merged series holds more than ``EXACT_SAMPLES`` observations
    its raw list is dropped and quantiles come from the merged sketch,
    whose bucket counts are exact per shard — never from a truncated
    concatenation of the shards' samples.
    """

    def test_merged_p95_matches_pooled_truth(self):
        from repro.service.metrics import percentile

        # Big worker: 5000 fast queries.  Small worker: 30 slow ones.
        big = MetricsRegistry()
        fast = [1.0 + i * 1e-6 for i in range(5000)]
        for v in fast:
            big.observe("latency_seconds", v)
        small = MetricsRegistry()
        slow = [100.0] * 30
        for v in slow:
            small.observe("latency_seconds", v)

        big.merge(small)
        merged = big.summary("latency_seconds")
        pooled = fast + slow
        truth = percentile(pooled, 95)

        assert truth < 2.0
        assert merged.p95 == pytest.approx(truth, rel=0.05)
        assert merged.count == 5030
        assert merged.total == math.fsum(pooled)
        assert merged.maximum == 100.0
        assert big.samples("latency_seconds") is None

    def test_small_series_keeps_exact_quantiles(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            a.observe("x", v)
        b.observe("x", 4.0)
        a.merge(b)
        # Both shards kept every observation and the union fits the cap,
        # so quantiles stay nearest-rank exact.
        assert a.summary("x").p50 == 2.0
        assert a.samples("x") == [1.0, 2.0, 3.0, 4.0]
