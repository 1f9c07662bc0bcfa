"""Latency attribution over recorded traces and device profiles.

The tracer (:mod:`repro.observability.tracer`) records *what happened*;
this module answers *where the latency went*.  It consumes either a
finished span trace (in-memory or ``trace.jsonl``, thread and process
backends alike — :meth:`Tracer.ingest` remaps ids but changes nothing
this module reads) or a :class:`ServiceBatchReport` with per-query
:class:`~repro.fpga.profile.DeviceProfile`\\ s, and produces the same
:class:`BatchAttribution` from both:

- a per-query **latency waterfall** (:class:`QueryWaterfall`): queue
  wait, preprocess (``T1``), and the kernel's cycles split into setup /
  expand / verify / stall / overhead, plus the off-latency PCIe
  transfers;
- the batch **critical path** (:class:`CriticalPath`): the chain of
  segments that bounds the makespan — the serial host CPU when the batch
  is ``T1``-bound, the busiest engine's kernel chain when device-bound;
- per-engine utilization **timelines** (:class:`EngineTimeline`);
- **tail attribution** (:class:`TailAttribution`): which segment
  dominates the slowest decile relative to the median query;
- **regression attribution** (:func:`attribute_regression`): rank
  segments by their contribution to the delta between two attributions.

Everything lives on the modelled clock and reconciles *exactly*:

- per query, the device segments sum to the kernel's cycle count in
  integer arithmetic, and ``preprocess + kernel == total_seconds`` is
  the same float sum :class:`SystemReport` performs;
- per batch, the critical path's length reproduces
  ``ServiceBatchReport.makespan_seconds`` float for float, because the
  builders accumulate in the exact order ``EngineServer`` does.

Queue wait is derived from the trace layout, not measured: on the
modelled clock each engine track packs its query spans back to back (the
Chrome export's layout), so a query's queue wait is the modelled time
its engine spent on earlier queries of the batch.  Result-cache hits
under cross-query sharing answer without opening a ``query`` span, so
trace-based attribution of a sharing batch covers only the queries that
actually executed (the report-based path sees every report).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.observability.tracer import SpanRecord

#: kernel-cycle segments of one query, in waterfall order.
DEVICE_SEGMENTS = (
    "kernel_setup",
    "kernel_expand",
    "kernel_verify",
    "kernel_stall",
    "kernel_overhead",
    "kernel_inter_pe",
)

#: the segments that sum to a query's service time (``total_seconds``).
SERVICE_SEGMENTS = ("preprocess",) + DEVICE_SEGMENTS

_ENGINE_TRACK_RE = re.compile(r"^engine(\d+)$")


def _engine_sort_key(track: str) -> tuple[int, int, str]:
    """Engine tracks in numeric order, then any other track by name."""
    match = _ENGINE_TRACK_RE.match(track)
    if match:
        return (0, int(match.group(1)), track)
    return (1, 0, track)


@dataclass(frozen=True)
class QueryWaterfall:
    """One query's latency, split into attributable segments.

    ``queue_wait_seconds`` is reported *beside* the service-time
    segments, not inside them: it is time the query waited for its
    engine, already attributed to the earlier queries that caused it.
    The PCIe transfer fields are likewise informational — the paper's
    latency model amortises transfers outside ``total_seconds``.
    """

    engine: str
    #: serve position on this query's engine (0-based).
    position: int
    source: int | None
    target: int | None
    max_hops: int | None
    queue_wait_seconds: float
    preprocess_seconds: float
    kernel_seconds: float
    total_cycles: int
    frequency_hz: float | None
    #: integer cycles per :data:`DEVICE_SEGMENTS` entry.
    device_cycles: dict[str, int] = field(default_factory=dict)
    dma_to_device_seconds: float = 0.0
    dma_from_device_seconds: float = 0.0
    paths: int = 0
    truncated: bool = False
    empty: bool = False
    #: ``False`` when the cycle split had to fall back (a trace recorded
    #: before the batch spans carried split attributes, or a report
    #: without device profiles) — totals still reconcile, the
    #: expand/verify/stall split does not.
    detailed: bool = True

    @property
    def total_seconds(self) -> float:
        """``T1 + T2`` — the same sum ``SystemReport.total_seconds`` is."""
        return self.preprocess_seconds + self.kernel_seconds

    @property
    def accounted_cycles(self) -> int:
        return sum(self.device_cycles.values())

    @property
    def reconciled(self) -> bool:
        """Exact reconciliation on the modelled clock.

        Device segments must tile the kernel's cycle count in integer
        arithmetic, and the kernel seconds must be exactly
        ``cycles / frequency`` (the one float division the timing model
        itself performs).
        """
        if self.accounted_cycles != self.total_cycles:
            return False
        if self.frequency_hz and self.total_cycles:
            return (
                self.kernel_seconds
                == self.total_cycles / self.frequency_hz
            )
        return True

    def segment_seconds(self) -> dict[str, float]:
        """Seconds per :data:`SERVICE_SEGMENTS` entry.

        Device segments are displayed as ``cycles / frequency`` — the
        reconciliation invariant itself is asserted on the integer
        cycles, where exactness does not depend on float summation
        order.
        """
        out = {"preprocess": self.preprocess_seconds}
        freq = self.frequency_hz
        for segment in DEVICE_SEGMENTS:
            cycles = self.device_cycles.get(segment, 0)
            out[segment] = cycles / freq if freq else 0.0
        return out


@dataclass(frozen=True)
class EngineTimeline:
    """One engine's modelled occupancy over the batch."""

    engine: str
    queries: int
    host_seconds: float
    device_seconds: float

    @property
    def busy_seconds(self) -> float:
        return self.host_seconds + self.device_seconds


@dataclass(frozen=True)
class CriticalPath:
    """The span chain that bounds the batch makespan.

    ``kind`` is ``"host"`` when the serial host CPU's ``T1`` total is
    the bound (the chain is every query's preprocess, in the host's
    accumulation order) or ``"device"`` when the busiest engine's kernel
    chain is (that engine's kernels, in serve order).  ``length_seconds``
    reproduces the makespan exactly — same floats, same order.
    """

    kind: str
    engine: str | None
    #: ``(label, seconds)`` per chain step, in chain order.
    steps: tuple[tuple[str, float], ...]
    length_seconds: float


@dataclass(frozen=True)
class TailAttribution:
    """Why the slow queries are slow: tail vs median segment shares."""

    tail_count: int
    tail_threshold_seconds: float
    tail_mean_seconds: float
    median_seconds: float
    #: mean per-segment seconds over the tail queries.
    tail_segments: dict[str, float]
    #: per-segment seconds of the median-latency query.
    median_segments: dict[str, float]
    tail_queue_wait_seconds: float
    median_queue_wait_seconds: float

    @property
    def dominant_segment(self) -> str:
        """The segment whose tail excess over the median is largest."""
        return max(
            SERVICE_SEGMENTS,
            key=lambda s: (self.tail_segments.get(s, 0.0)
                           - self.median_segments.get(s, 0.0)),
        )


@dataclass(frozen=True)
class BatchAttribution:
    """The full attribution of one served batch."""

    #: ordered by (engine, serve position).
    waterfalls: tuple[QueryWaterfall, ...]
    timelines: tuple[EngineTimeline, ...]
    critical_path: CriticalPath
    host_seconds_total: float
    device_makespan_seconds: float
    makespan_seconds: float
    frequency_hz: float | None
    warmup_seconds: float = 0.0
    batch_dma_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.waterfalls)

    @property
    def reconciled(self) -> bool:
        """Every waterfall reconciles and the critical path is the makespan."""
        return (
            all(wf.reconciled for wf in self.waterfalls)
            and self.critical_path.length_seconds == self.makespan_seconds
        )

    def segment_cycles(self) -> dict[str, int]:
        """Batch totals of the device segments, in integer cycles."""
        totals = {segment: 0 for segment in DEVICE_SEGMENTS}
        for wf in self.waterfalls:
            for segment in DEVICE_SEGMENTS:
                totals[segment] += wf.device_cycles.get(segment, 0)
        return totals

    def segment_seconds(self) -> dict[str, float]:
        """Batch totals of every service segment, in modelled seconds."""
        totals = {segment: 0.0 for segment in SERVICE_SEGMENTS}
        for wf in self.waterfalls:
            for segment, secs in wf.segment_seconds().items():
                totals[segment] += secs
        return totals

    def utilization(self, timeline: EngineTimeline) -> float:
        """Device-busy fraction of one engine over the device makespan."""
        if self.device_makespan_seconds <= 0.0:
            return 0.0
        return timeline.device_seconds / self.device_makespan_seconds

    def tail(self, decile: float = 0.1) -> TailAttribution | None:
        """Attribution of the slowest ``decile`` of queries vs the median."""
        if not self.waterfalls:
            return None
        ordered = sorted(self.waterfalls, key=lambda w: w.total_seconds)
        count = max(1, -(-len(ordered) * int(decile * 100) // 100))
        tail = ordered[-count:]
        median = ordered[(len(ordered) - 1) // 2]
        tail_segments = {segment: 0.0 for segment in SERVICE_SEGMENTS}
        for wf in tail:
            for segment, secs in wf.segment_seconds().items():
                tail_segments[segment] += secs
        tail_segments = {
            segment: secs / len(tail)
            for segment, secs in tail_segments.items()
        }
        return TailAttribution(
            tail_count=len(tail),
            tail_threshold_seconds=tail[0].total_seconds,
            tail_mean_seconds=(
                sum(w.total_seconds for w in tail) / len(tail)
            ),
            median_seconds=median.total_seconds,
            tail_segments=tail_segments,
            median_segments=median.segment_seconds(),
            tail_queue_wait_seconds=(
                sum(w.queue_wait_seconds for w in tail) / len(tail)
            ),
            median_queue_wait_seconds=median.queue_wait_seconds,
        )

    def matches(self, other: "BatchAttribution") -> bool:
        """Exact agreement with another attribution of the same batch.

        This is the trace-vs-report (and thread-vs-process) identity the
        ``service.attribution`` scenario gates: same queries in the same
        per-engine order, with identical floats and identical cycle
        splits.
        """
        if len(self.waterfalls) != len(other.waterfalls):
            return False
        for a, b in zip(self.waterfalls, other.waterfalls):
            if (
                (a.engine, a.position, a.source, a.target, a.max_hops)
                != (b.engine, b.position, b.source, b.target, b.max_hops)
                or a.queue_wait_seconds != b.queue_wait_seconds
                or a.preprocess_seconds != b.preprocess_seconds
                or a.kernel_seconds != b.kernel_seconds
                or a.total_cycles != b.total_cycles
                or a.device_cycles != b.device_cycles
            ):
                return False
        return (
            self.host_seconds_total == other.host_seconds_total
            and self.makespan_seconds == other.makespan_seconds
            and self.critical_path.length_seconds
            == other.critical_path.length_seconds
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view (the CI attribution artifact)."""
        return {
            "num_queries": self.num_queries,
            "reconciled": self.reconciled,
            "makespan_seconds": self.makespan_seconds,
            "host_seconds_total": self.host_seconds_total,
            "device_makespan_seconds": self.device_makespan_seconds,
            "warmup_seconds": self.warmup_seconds,
            "batch_dma_seconds": self.batch_dma_seconds,
            "critical_path": {
                "kind": self.critical_path.kind,
                "engine": self.critical_path.engine,
                "length_seconds": self.critical_path.length_seconds,
                "steps": len(self.critical_path.steps),
            },
            "segment_seconds": self.segment_seconds(),
            "segment_cycles": self.segment_cycles(),
            "engines": [
                {
                    "engine": t.engine,
                    "queries": t.queries,
                    "host_seconds": t.host_seconds,
                    "device_seconds": t.device_seconds,
                    "utilization": self.utilization(t),
                }
                for t in self.timelines
            ],
            "queries": [
                {
                    "engine": wf.engine,
                    "position": wf.position,
                    "source": wf.source,
                    "target": wf.target,
                    "max_hops": wf.max_hops,
                    "queue_wait_seconds": wf.queue_wait_seconds,
                    "total_seconds": wf.total_seconds,
                    "segments": wf.segment_seconds(),
                    "device_cycles": dict(wf.device_cycles),
                    "reconciled": wf.reconciled,
                }
                for wf in self.waterfalls
            ],
        }


# ----------------------------------------------------------------------
# assembling an attribution from per-engine waterfall lists
# ----------------------------------------------------------------------
def _assemble(per_engine: dict[str, list[QueryWaterfall]],
              frequency_hz: float | None,
              warmup_seconds: float,
              batch_dma_seconds: float) -> BatchAttribution:
    """Fold per-engine waterfalls into a :class:`BatchAttribution`.

    The host and device totals are accumulated exactly as
    ``EngineServer`` does — per-engine running sums in serve order,
    engines combined in index order — so ``makespan_seconds`` reproduces
    the report's float bit for bit.
    """
    engines = sorted(per_engine, key=_engine_sort_key)
    waterfalls: list[QueryWaterfall] = []
    timelines: list[EngineTimeline] = []
    host_by_engine: list[float] = []
    device_by_engine: list[float] = []
    for engine in engines:
        host_busy = 0.0
        device_busy = 0.0
        for wf in per_engine[engine]:
            host_busy += wf.preprocess_seconds
            device_busy += wf.kernel_seconds
            waterfalls.append(wf)
        host_by_engine.append(host_busy)
        device_by_engine.append(device_busy)
        timelines.append(EngineTimeline(
            engine=engine,
            queries=len(per_engine[engine]),
            host_seconds=host_busy,
            device_seconds=device_busy,
        ))
    host_total = sum(host_by_engine)
    device_makespan = max(device_by_engine, default=0.0)
    makespan = max(host_total, device_makespan)

    if host_total >= device_makespan:
        # Host-bound: the serial CPU's preprocess chain, accumulated in
        # the same order host_total was.
        steps = tuple(
            (f"{wf.engine}/q{wf.position} preprocess",
             wf.preprocess_seconds)
            for engine in engines
            for wf in per_engine[engine]
        )
        path = CriticalPath(kind="host", engine=None, steps=steps,
                            length_seconds=host_total)
    else:
        busiest = engines[device_by_engine.index(device_makespan)]
        steps = tuple(
            (f"{busiest}/q{wf.position} kernel", wf.kernel_seconds)
            for wf in per_engine[busiest]
        )
        path = CriticalPath(kind="device", engine=busiest, steps=steps,
                            length_seconds=device_makespan)

    return BatchAttribution(
        waterfalls=tuple(waterfalls),
        timelines=tuple(timelines),
        critical_path=path,
        host_seconds_total=host_total,
        device_makespan_seconds=device_makespan,
        makespan_seconds=makespan,
        frequency_hz=frequency_hz,
        warmup_seconds=warmup_seconds,
        batch_dma_seconds=batch_dma_seconds,
    )


# ----------------------------------------------------------------------
# trace-based builder
# ----------------------------------------------------------------------
def waterfalls_from_trace(
    records: list[SpanRecord],
) -> dict[str, list[QueryWaterfall]]:
    """Per-engine waterfalls from a finished span trace.

    Query spans are grouped by track and ordered by wall start within
    it — on any one engine that is the serve order, whichever backend
    recorded the trace.  Spans that errored (an engine failure unwinds
    the ``query`` span with an ``error`` attribute and no modelled time)
    are excluded: the failed attempt never accumulated into the batch's
    modelled totals either.
    """
    ordered = sorted(records, key=lambda r: (r.start_ns, r.span_id))
    children: dict[int, list[SpanRecord]] = {}
    for record in ordered:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(record)

    per_engine: dict[str, list[QueryWaterfall]] = {}
    windows: list[tuple[int, int, str, int]] = []
    for record in ordered:
        if record.name != "query":
            continue
        if record.modelled_seconds is None or "error" in record.attrs:
            continue
        queue_wait = sum(
            wf.total_seconds for wf in per_engine.get(record.track, ())
        )
        preprocess = 0.0
        kernel_seconds = 0.0
        total_cycles = 0
        frequency = None
        device_cycles = {segment: 0 for segment in DEVICE_SEGMENTS}
        dma_to = dma_from = 0.0
        detailed = True
        for child in children.get(record.span_id, ()):
            if child.name == "preprocess":
                preprocess = child.modelled_seconds or 0.0
            elif child.name == "kernel":
                kernel_seconds = child.modelled_seconds or 0.0
                total_cycles = int(child.attrs.get("cycles", 0))
                frequency = child.attrs.get("frequency_hz")
                detailed &= _fold_device_events(
                    ((span.name, _span_cycles(span, frequency), span.attrs)
                     for span in children.get(child.span_id, ())),
                    device_cycles,
                )
        waterfall = QueryWaterfall(
            engine=record.track,
            position=len(per_engine.get(record.track, ())),
            source=record.attrs.get("source"),
            target=record.attrs.get("target"),
            max_hops=record.attrs.get("max_hops"),
            queue_wait_seconds=queue_wait,
            preprocess_seconds=preprocess,
            kernel_seconds=kernel_seconds,
            total_cycles=total_cycles,
            frequency_hz=frequency,
            device_cycles=device_cycles,
            dma_to_device_seconds=dma_to,
            dma_from_device_seconds=dma_from,
            paths=int(record.attrs.get("paths", 0)),
            truncated=bool(record.attrs.get("truncated", False)),
            empty=bool(record.attrs.get("empty", False)),
            detailed=detailed,
        )
        windows.append((record.start_ns, record.end_ns, record.track,
                        waterfall.position))
        per_engine.setdefault(record.track, []).append(waterfall)

    _associate_dma(ordered, windows, per_engine)
    return per_engine


def _associate_dma(ordered: list[SpanRecord],
                   windows: list[tuple[int, int, str, int]],
                   per_engine: dict[str, list[QueryWaterfall]]) -> None:
    """Attach detached PCIe spans to the queries that issued them.

    DMA spans live on their own ``pcie`` track (so transfer time is
    never double-counted inside query latency), but each is opened while
    its query span is still open on the same thread — so wall-time
    containment recovers the association.  With overlapping engine
    worker windows the innermost (latest-starting) containing query
    wins; this is informational plumbing, not part of the reconciled
    service-time segments.
    """
    from dataclasses import replace

    for record in ordered:
        if record.name not in ("dma_to_device", "dma_from_device"):
            continue
        best: tuple[int, str, int] | None = None
        for start_ns, end_ns, track, position in windows:
            if start_ns <= record.start_ns <= end_ns:
                if best is None or start_ns > best[0]:
                    best = (start_ns, track, position)
        if best is None:
            continue
        _, track, position = best
        wf = per_engine[track][position]
        seconds = record.modelled_seconds or 0.0
        if record.name == "dma_to_device":
            wf = replace(wf, dma_to_device_seconds=(
                wf.dma_to_device_seconds + seconds))
        else:
            wf = replace(wf, dma_from_device_seconds=(
                wf.dma_from_device_seconds + seconds))
        per_engine[track][position] = wf


def _fold_device_events(events, device_cycles: dict[str, int]) -> bool:
    """Fold one kernel's device events into the device-segment cycles.

    ``events`` are ``(span name, cycles, span attributes)`` triples:
    the kernel's child spans of a trace, or a profile's
    :meth:`~repro.fpga.profile.DeviceProfile.span_events` — the same
    projection, so both attributions split cycles identically.  Returns
    ``False`` when any batch span predates the cycle-split attributes
    and the expand/verify/stall split had to fall back to attributing
    the whole batch to ``kernel_expand`` (totals still reconcile).
    """
    detailed = True
    for name, cycles, attrs in events:
        if name == "kernel_setup":
            device_cycles["kernel_setup"] += cycles
        elif name == "refill":
            device_cycles["kernel_stall"] += cycles
        elif name == "inter_pe":
            device_cycles["kernel_inter_pe"] += cycles
        elif name == "batch":
            if "busy_cycles" in attrs:
                bound = attrs.get("bound", "expand")
                key = ("kernel_verify" if bound == "verify"
                       else "kernel_expand")
                device_cycles[key] += int(attrs["busy_cycles"])
                device_cycles["kernel_stall"] += int(attrs["stall_cycles"])
                device_cycles["kernel_overhead"] += int(
                    attrs["overhead_cycles"])
            else:
                device_cycles["kernel_expand"] += cycles
                detailed = False
    return detailed


def _span_cycles(span: SpanRecord, frequency: float | None) -> int:
    """A span's cycle count: its ``cycles`` attribute, else derived."""
    if "cycles" in span.attrs:
        return int(span.attrs["cycles"])
    if frequency and span.modelled_seconds is not None:
        return round(span.modelled_seconds * frequency)
    return 0


def analyze_trace(records: list[SpanRecord]) -> BatchAttribution:
    """Full batch attribution from a finished span trace."""
    per_engine = waterfalls_from_trace(records)
    frequency = None
    warmup = 0.0
    batch_dma = 0.0
    for record in records:
        if record.name == "warmup" and record.modelled_seconds:
            warmup += record.modelled_seconds
        elif record.name == "batch_dma" and record.modelled_seconds:
            batch_dma += record.modelled_seconds
    for waterfalls in per_engine.values():
        for wf in waterfalls:
            if wf.frequency_hz:
                frequency = wf.frequency_hz
                break
        if frequency:
            break
    return _assemble(per_engine, frequency, warmup, batch_dma)


# ----------------------------------------------------------------------
# report-based builder
# ----------------------------------------------------------------------
def waterfalls_from_report(report) -> dict[str, list[QueryWaterfall]]:
    """Per-engine waterfalls from a :class:`ServiceBatchReport`.

    Ordering follows ``report.assignment`` — per-engine serve order for
    every scheduler (work stealing appends in actual serve order).
    After mid-batch engine failures the assignment still names the
    engine a query was first dispatched to, so queue waits of a
    failure-recovered batch are attributed to the original engines;
    per-query reconciliation is unaffected.
    """
    per_engine: dict[str, list[QueryWaterfall]] = {}
    for engine_idx, indices in enumerate(report.assignment):
        engine = f"engine{engine_idx}"
        waterfalls: list[QueryWaterfall] = []
        queue_wait = 0.0
        for query_idx in indices:
            r = report.reports[query_idx]
            waterfalls.append(_waterfall_from_system_report(
                r, engine, len(waterfalls), queue_wait
            ))
            queue_wait += waterfalls[-1].total_seconds
        per_engine[engine] = waterfalls
    return per_engine


def _waterfall_from_system_report(r, engine: str, position: int,
                                  queue_wait: float) -> QueryWaterfall:
    profile = r.profile
    device_cycles = {segment: 0 for segment in DEVICE_SEGMENTS}
    frequency = None
    detailed = True
    if profile is not None:
        frequency = profile.frequency_hz
        _fold_device_events(
            ((name, attrs["cycles"], attrs)
             for name, attrs in profile.span_events()),
            device_cycles,
        )
    elif r.fpga_cycles:
        device_cycles["kernel_expand"] = r.fpga_cycles
        detailed = False
    return QueryWaterfall(
        engine=engine,
        position=position,
        source=r.query.source,
        target=r.query.target,
        max_hops=r.query.max_hops,
        queue_wait_seconds=queue_wait,
        preprocess_seconds=r.preprocess_seconds,
        kernel_seconds=r.query_seconds,
        total_cycles=r.fpga_cycles,
        frequency_hz=frequency,
        device_cycles=device_cycles,
        dma_to_device_seconds=r.transfer_seconds,
        dma_from_device_seconds=r.result_transfer_seconds,
        paths=r.num_paths,
        truncated=r.truncated,
        empty=r.device is None,
        detailed=detailed,
    )


def analyze_report(report) -> BatchAttribution:
    """Full batch attribution from a :class:`ServiceBatchReport`."""
    per_engine = waterfalls_from_report(report)
    frequency = None
    for waterfalls in per_engine.values():
        for wf in waterfalls:
            if wf.frequency_hz:
                frequency = wf.frequency_hz
                break
        if frequency:
            break
    return _assemble(
        per_engine, frequency,
        warmup_seconds=report.warmup_seconds,
        batch_dma_seconds=report.batch_transfer_seconds,
    )


# ----------------------------------------------------------------------
# regression attribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentDelta:
    """One segment's contribution to a total-latency delta."""

    segment: str
    baseline_seconds: float
    candidate_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.candidate_seconds - self.baseline_seconds


@dataclass(frozen=True)
class RegressionAttribution:
    """Which segments a latency delta came from, ranked by contribution."""

    baseline_total: float
    candidate_total: float
    deltas: tuple[SegmentDelta, ...]

    @property
    def delta_total(self) -> float:
        return self.candidate_total - self.baseline_total

    def ranked(self) -> list[SegmentDelta]:
        """Segments by absolute delta contribution, largest first."""
        return sorted(self.deltas,
                      key=lambda d: -abs(d.delta_seconds))

    def share_of_delta(self, delta: SegmentDelta) -> float:
        """Fraction of the total delta this segment explains."""
        if self.delta_total == 0.0:
            return 0.0
        return delta.delta_seconds / self.delta_total


def diff_segment_seconds(
    baseline: dict[str, float], candidate: dict[str, float],
) -> RegressionAttribution:
    """Attribute a latency delta to segments, from two totals dicts."""
    segments = list(SERVICE_SEGMENTS)
    for name in list(baseline) + list(candidate):
        if name not in segments:
            segments.append(name)
    deltas = tuple(
        SegmentDelta(
            segment=name,
            baseline_seconds=baseline.get(name, 0.0),
            candidate_seconds=candidate.get(name, 0.0),
        )
        for name in segments
    )
    return RegressionAttribution(
        baseline_total=sum(baseline.values()),
        candidate_total=sum(candidate.values()),
        deltas=deltas,
    )


def attribute_regression(
    baseline: BatchAttribution, candidate: BatchAttribution,
) -> RegressionAttribution:
    """Rank segments by their contribution to the delta between two runs."""
    return diff_segment_seconds(
        baseline.segment_seconds(), candidate.segment_seconds()
    )
