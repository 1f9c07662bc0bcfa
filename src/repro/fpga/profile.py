"""Device-level profiling counters for one kernel run.

The engine's aggregate :class:`~repro.core.engine.EngineStats` answer
*what happened*; this module answers *where the cycles went*, per batch —
the visibility the paper's micro-architectural claims (BRAM caching,
Batch-DFS locality, data-separated verification) need to be inspected
rather than trusted.

Every engine run builds one :class:`DeviceProfiler`, the run's device
event sink.  The kernel reports each event to :meth:`DeviceProfiler.record`,
which builds the typed event once, keeps it when the run is profiled
(``PEFPEngine.run(profile=True)``) and emits its span when a tracer is
attached.  The events are:

- the ``kernel_setup`` cycles (seed lookups and push);
- one :class:`BatchProfile` per Batch-DFS processing batch: the clock
  delta of the whole iteration plus the raw (pre-overlap) cycle cost of
  each dataflow stage, the DRAM share, and any flush stall the batch
  triggered;
- one :class:`RefillProfile` per Θ1 refill stall;
- one :class:`InterPeProfile` per multi-PE superstep boundary that cost
  cycles.

:meth:`DeviceProfiler.finish` adds the end-of-run counters (BRAM/DRAM
hit-miss per cached array, memory-port traffic, the buffer/DRAM
path-stack high-water marks) and freezes a :class:`DeviceProfile`.  A
span's attributes are the event's ``span_attrs()``, and report-sourced
attribution folds :meth:`DeviceProfile.span_events` — the same
projection — so trace and profile cannot disagree.

The per-event clock deltas are *exhaustive*: ``setup_cycles`` plus every
batch, refill and inter-PE delta reconciles exactly with the device's
total cycle count (``DeviceProfile.accounted_cycles == total_cycles``) —
a property the test suite asserts against ``SystemReport.fpga_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: the five dataflow stages of one processing batch, in pipeline order.
BATCH_STAGES = ("load", "edge_fetch", "barrier_fetch", "verify",
                "writeback")


def split_batch_cycles(pipeline_cycles: int, overhead_cycles: int,
                       flush_cycles: int,
                       stage_cycles: dict) -> tuple[int, int, int, str]:
    """Split one batch's cycles into ``(busy, stall, overhead, bound)``.

    The overlapped pipeline window is bounded by its slowest resource:
    the slowest dataflow stage (busy compute) or the shared DRAM
    channels (a stall).  The busy share is attributed wholly to the
    bounding stage — ``verify`` when the verification stage is the
    slowest, ``expand`` otherwise — and the remainder of the window plus
    the flush stall is wait time.  The split is exhaustive by
    construction::

        busy + stall + overhead == pipeline + flush + overhead
                                == BatchProfile.cycles

    The single definition behind :meth:`BatchProfile.span_attrs` and
    :attr:`BatchProfile.stall_cycles`.
    """
    slowest = max(
        (int(stage_cycles.get(s, 0)) for s in BATCH_STAGES), default=0
    )
    busy = min(slowest, pipeline_cycles)
    stall = max(0, pipeline_cycles - slowest) + flush_cycles
    bound = (
        "verify"
        if int(stage_cycles.get("verify", 0)) == slowest and slowest > 0
        else "expand"
    )
    return busy, stall, overhead_cycles, bound


@dataclass(frozen=True)
class BatchProfile:
    """Cycle breakdown of one processing batch.

    ``cycles`` is the device-clock delta across the whole loop iteration
    (overlapped pipeline cost + control overhead + any flush stall), so
    batch profiles sum to the engine's reported total.  ``stage_cycles``
    holds the *raw* per-stage costs before overlap — their sum exceeds
    ``pipeline_cycles`` by design (stages run concurrently).
    """

    index: int
    entries: int
    expansions: int
    results: int
    new_paths: int
    cycles: int
    pipeline_cycles: int
    overhead_cycles: int
    flush_cycles: int
    flushes: int
    dram_cycles: int
    buffer_paths: int
    stage_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def verify_cycles(self) -> int:
        """Raw cycles of the verification stage."""
        return self.stage_cycles.get("verify", 0)

    @property
    def expand_cycles(self) -> int:
        """Raw cycles of the expansion stages (everything but verify)."""
        return sum(self.stage_cycles.get(s, 0)
                   for s in BATCH_STAGES if s != "verify")

    @property
    def stall_cycles(self) -> int:
        """Cycles the batch spent waiting rather than computing.

        The DRAM-bound wait (pipeline cost beyond the slowest stage's own
        cycles — off-chip traffic serialising on the channel) plus the
        flush stall charged after write-back; see
        :func:`split_batch_cycles`.
        """
        return split_batch_cycles(self.pipeline_cycles,
                                  self.overhead_cycles, self.flush_cycles,
                                  self.stage_cycles)[1]

    def span_attrs(self) -> dict:
        """The ``batch`` span's attributes: the exact cycle split the
        attribution layer reads (busy + stall + overhead tiles
        ``cycles``)."""
        busy, stall, overhead, bound = split_batch_cycles(
            self.pipeline_cycles, self.overhead_cycles, self.flush_cycles,
            self.stage_cycles,
        )
        return {
            "entries": self.entries,
            "expansions": self.expansions,
            "results": self.results,
            "cycles": self.cycles,
            "busy_cycles": busy,
            "stall_cycles": stall,
            "overhead_cycles": overhead,
            "bound": bound,
        }

    def occupancy(self, stage: str) -> float:
        """Fraction of this batch's pipeline window ``stage`` was busy."""
        if self.pipeline_cycles <= 0:
            return 0.0
        return min(
            1.0, self.stage_cycles.get(stage, 0) / self.pipeline_cycles
        )


@dataclass(frozen=True)
class RefillProfile:
    """One Θ1 refill stall: DRAM tail block pulled into the buffer area."""

    cycles: int
    paths: int

    def span_attrs(self) -> dict:
        return {"cycles": self.cycles, "paths": self.paths}


@dataclass(frozen=True)
class InterPeProfile:
    """Interconnect charges of one multi-PE superstep boundary.

    ``cycles`` is the global-clock delta the boundary consumed — the
    critical destination FIFO's routing cost plus the barrier sync —
    and decomposes exactly as ``route + barrier`` where ``route`` is
    itself ``hop + stream + arbiter + stall`` (integers throughout; see
    :mod:`repro.fpga.interconnect`).
    """

    superstep: int
    cycles: int
    messages: int
    route_cycles: int
    arbiter_cycles: int
    stall_cycles: int
    barrier_cycles: int

    def span_attrs(self) -> dict:
        return {"cycles": self.cycles, "messages": self.messages,
                "barrier_cycles": self.barrier_cycles}


@dataclass(frozen=True)
class DeviceProfile:
    """Everything the profiler collected over one kernel run."""

    frequency_hz: float
    total_cycles: int
    #: clock cycles before the first batch (seed lookups and push).
    setup_cycles: int
    batches: tuple[BatchProfile, ...]
    refills: tuple[RefillProfile, ...]
    #: per cached array (vertex_arr/edge_arr/bar_arr): hits, misses,
    #: cached_words, total_words.
    cache_counters: dict[str, dict[str, int]]
    #: per memory (bram/dram): reads, read_words, writes, write_words,
    #: stall_cycles, allocated_words, capacity_words.
    memory_counters: dict[str, dict[str, int]]
    buffer_peak_paths: int
    dram_peak_paths: int
    #: the verification funnel — how many scheduled expansions each check
    #: of Algorithm 2 killed (``expansions``, ``rejected_target``,
    #: ``rejected_barrier``, ``rejected_visited``, ``survivors``).  The
    #: counts account exactly: expansions = rejections + survivors.
    verify_funnel: dict[str, int] = field(default_factory=dict)
    #: which memory the buffer area lived in: ``"bram"`` normally,
    #: ``"dram"`` under the ``use_cache=False`` ablation (Fig. 14) — the
    #: DRAM-resident buffer is unbounded, so its ``buffer_peak_paths``
    #: high-water mark is not comparable with BRAM-mode runs.
    buffer_domain: str = "bram"
    #: interconnect charges, one per multi-PE superstep boundary that
    #: cost cycles; always empty on single-PE runs.
    inter_pe: tuple[InterPeProfile, ...] = ()
    #: processing elements the run used (1 = the classic single pipeline).
    num_pes: int = 1

    # -- reconciliation ------------------------------------------------
    @property
    def accounted_cycles(self) -> int:
        """Setup + batches + refills + inter-PE; equals ``total_cycles``."""
        return (
            self.setup_cycles
            + sum(b.cycles for b in self.batches)
            + sum(r.cycles for r in self.refills)
            + sum(i.cycles for i in self.inter_pe)
        )

    # -- aggregates ----------------------------------------------------
    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def refill_cycles(self) -> int:
        return sum(r.cycles for r in self.refills)

    @property
    def flush_cycles(self) -> int:
        return sum(b.flush_cycles for b in self.batches)

    @property
    def expand_cycles(self) -> int:
        return sum(b.expand_cycles for b in self.batches)

    @property
    def verify_cycles(self) -> int:
        return sum(b.verify_cycles for b in self.batches)

    @property
    def stall_cycles(self) -> int:
        """DRAM-bound waits + flush stalls + refill stalls, summed."""
        return sum(b.stall_cycles for b in self.batches) + self.refill_cycles

    @property
    def inter_pe_cycles(self) -> int:
        """Total interconnect cycles (routing + barriers), all supersteps."""
        return sum(i.cycles for i in self.inter_pe)

    @property
    def inter_pe_messages(self) -> int:
        """Frontier records that crossed between PEs."""
        return sum(i.messages for i in self.inter_pe)

    def stage_cycle_totals(self) -> dict[str, int]:
        """Raw per-stage cycles summed over every batch."""
        totals: dict[str, int] = {}
        for batch in self.batches:
            for stage, cycles in batch.stage_cycles.items():
                totals[stage] = totals.get(stage, 0) + cycles
        return totals

    def stage_occupancy(self) -> dict[str, float]:
        """Per-stage busy fraction of the summed pipeline windows."""
        window = sum(b.pipeline_cycles for b in self.batches)
        if window <= 0:
            return {stage: 0.0 for stage in BATCH_STAGES}
        totals = self.stage_cycle_totals()
        return {
            stage: min(1.0, totals.get(stage, 0) / window)
            for stage in BATCH_STAGES
        }

    def span_events(self):
        """``(span name, span attributes)`` of every recorded event — the
        projection the tracer emitted while the run was observed."""
        yield "kernel_setup", {"cycles": self.setup_cycles}
        for kind, events in (("batch", self.batches),
                             ("refill", self.refills),
                             ("inter_pe", self.inter_pe)):
            for event in events:
                yield kind, event.span_attrs()

    def cache_hit_rate(self, label: str) -> float:
        counters = self.cache_counters.get(label)
        if not counters:
            return 0.0
        touched = counters["hits"] + counters["misses"]
        return counters["hits"] / touched if touched else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable aggregate view (per-batch list elided)."""
        return {
            "frequency_hz": self.frequency_hz,
            "total_cycles": self.total_cycles,
            "setup_cycles": self.setup_cycles,
            "num_batches": self.num_batches,
            "num_refills": len(self.refills),
            "expand_cycles": self.expand_cycles,
            "verify_cycles": self.verify_cycles,
            "stall_cycles": self.stall_cycles,
            "flush_cycles": self.flush_cycles,
            "refill_cycles": self.refill_cycles,
            "stage_cycles": self.stage_cycle_totals(),
            "stage_occupancy": self.stage_occupancy(),
            "cache_counters": self.cache_counters,
            "memory_counters": self.memory_counters,
            "buffer_peak_paths": self.buffer_peak_paths,
            "buffer_domain": self.buffer_domain,
            "dram_peak_paths": self.dram_peak_paths,
            "verify_funnel": dict(self.verify_funnel),
            "num_pes": self.num_pes,
            "inter_pe_cycles": self.inter_pe_cycles,
            "inter_pe_messages": self.inter_pe_messages,
        }


def aggregate_profiles(profiles: list[DeviceProfile]) -> dict:
    """Sum a batch's per-query profiles into one service-level dict.

    Peaks take the max, everything else adds; the result is what
    ``serve-batch --profile`` writes to ``profile.json`` and what
    ``repro trace-report`` renders.
    """
    out: dict = {
        "queries_profiled": len(profiles),
        "total_cycles": 0,
        "setup_cycles": 0,
        "num_batches": 0,
        "num_refills": 0,
        "expand_cycles": 0,
        "verify_cycles": 0,
        "stall_cycles": 0,
        "flush_cycles": 0,
        "refill_cycles": 0,
        "stage_cycles": {},
        "cache_counters": {},
        "memory_counters": {},
        "buffer_peak_paths": 0,
        "buffer_domains": [],
        "dram_peak_paths": 0,
        "verify_funnel": {},
        "num_pes": 1,
        "inter_pe_cycles": 0,
        "inter_pe_messages": 0,
    }
    domains: set[str] = set()
    for profile in profiles:
        d = profile.to_dict()
        for key in ("total_cycles", "setup_cycles", "num_batches",
                    "num_refills", "expand_cycles", "verify_cycles",
                    "stall_cycles", "flush_cycles", "refill_cycles",
                    "inter_pe_cycles", "inter_pe_messages"):
            out[key] += d.get(key, 0)
        out["num_pes"] = max(out["num_pes"], d.get("num_pes", 1))
        for stage, cycles in d["stage_cycles"].items():
            out["stage_cycles"][stage] = (
                out["stage_cycles"].get(stage, 0) + cycles
            )
        for label, counters in d["cache_counters"].items():
            agg = out["cache_counters"].setdefault(
                label, {"hits": 0, "misses": 0}
            )
            agg["hits"] += counters["hits"]
            agg["misses"] += counters["misses"]
        for name, counters in d["memory_counters"].items():
            agg = out["memory_counters"].setdefault(name, {})
            for key in ("reads", "read_words", "writes", "write_words",
                        "stall_cycles"):
                agg[key] = agg.get(key, 0) + counters[key]
        out["buffer_peak_paths"] = max(out["buffer_peak_paths"],
                                       d["buffer_peak_paths"])
        domains.add(d.get("buffer_domain", "bram"))
        out["dram_peak_paths"] = max(out["dram_peak_paths"],
                                     d["dram_peak_paths"])
        for check, count in d["verify_funnel"].items():
            out["verify_funnel"][check] = (
                out["verify_funnel"].get(check, 0) + count
            )
    out["buffer_domains"] = sorted(domains)
    window = sum(
        b.pipeline_cycles for p in profiles for b in p.batches
    )
    stage_totals = out["stage_cycles"]
    out["stage_occupancy"] = {
        stage: (min(1.0, stage_totals.get(stage, 0) / window)
                if window > 0 else 0.0)
        for stage in BATCH_STAGES
    }
    return out


class DeviceProfiler:
    """The device event sink of one engine run.

    :meth:`record` builds each event once, keeps it when ``profile`` is
    set and emits its span on ``tracer`` (modelled seconds
    ``cycles / frequency_hz``, attributes ``span_attrs()``).
    """

    def __init__(self, frequency_hz: float, profile: bool = False,
                 tracer=None) -> None:
        self.frequency_hz = frequency_hz
        self.profile = profile
        self.tracer = tracer if tracer else None
        #: whether events need building at all; the engines install
        #: :meth:`record` as the kernel's hook only when this is set.
        self.observing = profile or self.tracer is not None
        self.setup_cycles = 0
        self._batches: list[BatchProfile] = []
        self._refills: list[RefillProfile] = []
        self._inter_pe: list[InterPeProfile] = []

    def record(self, kind: str, wall_ns: int, fields: dict) -> None:
        """Record one ``kernel_setup``, ``batch``, ``refill`` or
        ``inter_pe`` event that started at wall time ``wall_ns``;
        ``fields`` are the typed event's constructor arguments."""
        if kind == "kernel_setup":
            self.setup_cycles = fields["cycles"]
            event = None
        else:
            if kind == "batch":
                events = self._batches
                event = BatchProfile(index=len(events), **fields)
            elif kind == "refill":
                events = self._refills
                event = RefillProfile(**fields)
            else:
                events = self._inter_pe
                event = InterPeProfile(**fields)
            if self.profile:
                events.append(event)
        if self.tracer is not None:
            attrs = fields if event is None else event.span_attrs()
            self.tracer.complete(
                kind, wall_ns,
                modelled_seconds=attrs["cycles"] / self.frequency_hz,
                **attrs)

    def finish(self, device, stats, cached_arrays,
               num_pes: int = 1) -> DeviceProfile | None:
        """Freeze the kept events into a :class:`DeviceProfile`, or
        ``None`` when the run was not profiled.

        ``stats`` is the run's :class:`~repro.core.engine.EngineStats`
        (peaks, buffer domain and the verification funnel);
        ``cached_arrays`` are every PE's
        :class:`~repro.core.cache.CachedArray` instances, whose counters
        are summed per label.  Counters and the device's memory-port
        traffic are snapshotted here, after the clock stopped.
        """
        if not self.profile:
            return None
        cache_counters: dict[str, dict[str, int]] = {}
        for arr in cached_arrays:
            merged = cache_counters.setdefault(arr.label, {})
            for key, value in arr.counters().items():
                merged[key] = merged.get(key, 0) + value
        return DeviceProfile(
            frequency_hz=device.config.frequency_hz,
            total_cycles=device.cycles,
            setup_cycles=self.setup_cycles,
            batches=tuple(self._batches),
            refills=tuple(self._refills),
            cache_counters=cache_counters,
            memory_counters=device.memory_counters(),
            buffer_peak_paths=stats.peak_buffer_paths,
            dram_peak_paths=stats.peak_dram_paths,
            verify_funnel={
                "expansions": stats.expansions,
                "rejected_target": stats.rejected_target,
                "rejected_barrier": stats.rejected_barrier,
                "rejected_visited": stats.rejected_visited,
                "survivors": stats.intermediate_paths,
            },
            buffer_domain=stats.buffer_domain,
            inter_pe=tuple(self._inter_pe),
            num_pes=num_pes,
        )
