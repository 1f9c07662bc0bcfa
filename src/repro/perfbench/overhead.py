"""The disabled-observability overhead guards, as perfbench scenarios.

The observability layer promises that a run with ``tracer=None`` and
``timeline=None`` (the defaults everywhere) pays only falsy checks and
no-op spans.  Formerly a one-off CI script
(``scripts/check_tracing_overhead.py``); now the same measurement is a
scenario, so the guard's numbers land in every ``BENCH_<n>.json``
snapshot and drifts are tracked instead of merely pass/failed:

1. run a small serving workload with tracing disabled and enabled,
   reporting both (the enabled cost is informational — it is allowed to
   be slower);
2. microbenchmark the disabled-path primitives the instrumented code
   executes per event — the ``if tracer:`` guard and a
   ``NULL_TRACER.span(...)`` context block — and project their total
   cost over the number of events the enabled run actually recorded;
3. flag the run (``within_budget = 0``) if that projected disabled
   overhead exceeds :data:`MAX_DISABLED_OVERHEAD` of the disabled
   runtime — an *exact-class* metric, so the regression gate fails on it
   even though every other number here is noisy wall time.

The projection deliberately over-counts (every event priced as a full
null-span ``with`` block, though hot-loop sites use a bare guard), so a
pass is conservative.

:func:`measure_telemetry_overhead` applies the same method to the
windowed-telemetry layer: a serving run with ``timeline=None`` must pay
only ``if timeline is not None:`` guards at the emission sites.  The
enabled run counts actual emission events through a counting timeline
subclass, and the disabled guard is microbenchmarked and projected over
that event count against the same :data:`MAX_DISABLED_OVERHEAD` budget.
"""

from __future__ import annotations

import time

from repro.graph import generators
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem
from repro.observability import NULL_TRACER, Tracer

#: maximum tolerated disabled-path overhead (fraction of runtime).
MAX_DISABLED_OVERHEAD = 0.02

REPEATS = 3
NUM_QUERIES = 12
GUARD_ITERS = 100_000


def _build_workload(seed: int):
    graph = generators.chung_lu(400, 2400, seed=seed)
    n = graph.num_vertices
    queries = [
        Query(source=(7 * i) % n, target=(11 * i + 3) % n, max_hops=4)
        for i in range(NUM_QUERIES)
    ]
    system = PathEnumerationSystem(graph)
    return system, [q for q in queries if q.source != q.target]


def _run_workload(system, queries, tracer) -> float:
    start = time.perf_counter()
    for query in queries:
        system.execute(query, tracer=tracer)
    return time.perf_counter() - start


def _median_runtime(system, queries, tracer) -> float:
    times = [_run_workload(system, queries, tracer) for _ in range(REPEATS)]
    return sorted(times)[len(times) // 2]


def _per_event_disabled_cost() -> float:
    """Seconds per instrumentation event on the disabled path."""
    tracer = None
    start = time.perf_counter()
    for _ in range(GUARD_ITERS):
        if tracer:  # the engine hot loop's guard
            raise AssertionError("unreachable")
        with NULL_TRACER.span("x"):  # the host layer's with-block
            pass
    return (time.perf_counter() - start) / GUARD_ITERS


def measure_tracing_overhead(seed: int) -> dict[str, float]:
    """One guard measurement; see the module docstring for the method."""
    system, queries = _build_workload(seed)
    # Warm caches/JIT-ish effects before timing.
    _run_workload(system, queries, None)

    disabled = _median_runtime(system, queries, None)
    enabled_tracer = Tracer()
    enabled = _median_runtime(system, queries, enabled_tracer)
    events = len(enabled_tracer.records()) / REPEATS

    event_cost = _per_event_disabled_cost()
    projected = events * event_cost
    overhead = projected / disabled if disabled > 0 else 0.0
    return {
        "disabled_wall_seconds": disabled,
        "enabled_wall_seconds": enabled,
        "trace_events_per_run": events,
        "per_event_seconds": event_cost,
        "projected_overhead": overhead,
        "within_budget": 1.0 if overhead <= MAX_DISABLED_OVERHEAD else 0.0,
    }


def _per_event_disabled_telemetry_cost() -> float:
    """Seconds per emission event on the ``timeline=None`` path."""
    timeline = None
    start = time.perf_counter()
    for _ in range(GUARD_ITERS):
        if timeline is not None:  # the emission sites' guard
            raise AssertionError("unreachable")
    return (time.perf_counter() - start) / GUARD_ITERS


def measure_telemetry_overhead(seed: int) -> dict[str, float]:
    """The telemetry twin of :func:`measure_tracing_overhead`.

    Runs a small 2-engine batch service with windowed telemetry off
    (``timeline=None``) and on (a counting timeline that tallies every
    counter increment, sample and gauge it is handed), then projects the
    microbenchmarked cost of the disabled-path guard over the measured
    event count.
    """
    from repro.service import BatchQueryService
    from repro.service.metrics import MetricsTimeline

    class _CountingTimeline(MetricsTimeline):
        """A timeline that counts emitted events (events per run)."""

        def __init__(self, window_seconds):
            super().__init__(window_seconds)
            self.events = 0

        def update(self, t, counts, samples):
            # One event per increment (zeros included) and per sample.
            self.events += len(counts) + len(samples)
            super().update(t, counts, samples)

        def set_gauge(self, t, name, value):
            self.events += 1
            super().set_gauge(t, name, value)

    graph = generators.chung_lu(400, 2400, seed=seed)
    n = graph.num_vertices
    queries = [
        Query(source=(7 * i) % n, target=(11 * i + 3) % n, max_hops=4)
        for i in range(NUM_QUERIES)
    ]
    queries = [q for q in queries if q.source != q.target]
    service = BatchQueryService(graph, num_engines=2)

    def run_once(timeline) -> float:
        start = time.perf_counter()
        service.run(list(queries), timeline=timeline)
        return time.perf_counter() - start

    # Warm the artifact cache so the disabled and enabled runs serve the
    # exact same (cached) work rather than comparing cold vs warm.
    run_once(None)

    disabled = sorted(run_once(None) for _ in range(REPEATS))[REPEATS // 2]
    enabled_walls = []
    event_counts = []
    for _ in range(REPEATS):
        timeline = _CountingTimeline(1e-3)
        enabled_walls.append(run_once(timeline))
        event_counts.append(timeline.events)
    enabled = sorted(enabled_walls)[REPEATS // 2]
    events = sum(event_counts) / REPEATS

    event_cost = _per_event_disabled_telemetry_cost()
    projected = events * event_cost
    overhead = projected / disabled if disabled > 0 else 0.0
    return {
        "disabled_wall_seconds": disabled,
        "enabled_wall_seconds": enabled,
        "telemetry_events_per_run": events,
        "per_event_seconds": event_cost,
        "projected_overhead": overhead,
        "within_budget": 1.0 if overhead <= MAX_DISABLED_OVERHEAD else 0.0,
    }
