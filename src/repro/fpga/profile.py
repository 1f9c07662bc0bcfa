"""Device-level profiling counters for one kernel run.

The engine's aggregate :class:`~repro.core.engine.EngineStats` answer
*what happened*; this module answers *where the cycles went*, per batch —
the visibility the paper's micro-architectural claims (BRAM caching,
Batch-DFS locality, data-separated verification) need to be inspected
rather than trusted.

A :class:`DeviceProfiler` is handed to ``PEFPEngine.run(profile=True)``
and collects:

- one :class:`BatchProfile` per Batch-DFS processing batch: the clock
  delta of the whole iteration plus the raw (pre-overlap) cycle cost of
  each dataflow stage, the DRAM share, and any flush stall the batch
  triggered;
- one :class:`RefillProfile` per Θ1 refill stall;
- end-of-run counters: BRAM/DRAM hit-miss per cached array, memory-port
  traffic, and the buffer/DRAM path-stack high-water marks.

The per-event clock deltas are *exhaustive*: ``setup_cycles`` plus every
batch and refill delta reconciles exactly with the device's total cycle
count (``DeviceProfile.accounted_cycles == total_cycles``) — a property
the test suite asserts against ``SystemReport.fpga_cycles``.
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

    The single definition behind the engine's batch-span attributes,
    :attr:`BatchProfile.stall_cycles` and the attribution layer, which
    is what makes trace- and report-based attribution agree batch for
    batch.
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
    """Mutable collector the engine writes into during one run."""

    def __init__(self) -> None:
        self.setup_cycles = 0
        self._batches: list[BatchProfile] = []
        self._refills: list[RefillProfile] = []
        self._inter_pe: list[InterPeProfile] = []

    def mark_setup(self, cycles: int) -> None:
        """Cycles consumed before the main loop (seed reads + push)."""
        self.setup_cycles = cycles

    def record_batch(self, **kwargs) -> None:
        self._batches.append(BatchProfile(index=len(self._batches),
                                          **kwargs))

    def record_refill(self, cycles: int, paths: int) -> None:
        self._refills.append(RefillProfile(cycles=cycles, paths=paths))

    def record_inter_pe(self, **kwargs) -> None:
        self._inter_pe.append(InterPeProfile(**kwargs))

    def finish(self, device, cached_arrays, buffer_peak_paths: int,
               dram_peak_paths: int,
               verify_funnel: dict[str, int] | None = None,
               buffer_domain: str = "bram",
               num_pes: int = 1) -> DeviceProfile:
        """Freeze the collected events into a :class:`DeviceProfile`.

        ``cached_arrays`` is the engine's list of
        :class:`~repro.core.cache.CachedArray` instances; their hit/miss
        counters and the device's memory-port traffic are snapshotted
        here, after the clock stopped.  ``verify_funnel`` carries the
        engine's per-check rejection counters (see
        :attr:`DeviceProfile.verify_funnel`).
        """
        return DeviceProfile(
            frequency_hz=device.config.frequency_hz,
            total_cycles=device.cycles,
            setup_cycles=self.setup_cycles,
            batches=tuple(self._batches),
            refills=tuple(self._refills),
            cache_counters={
                arr.label: arr.counters() for arr in cached_arrays
            },
            memory_counters=device.memory_counters(),
            buffer_peak_paths=buffer_peak_paths,
            dram_peak_paths=dram_peak_paths,
            verify_funnel=dict(verify_funnel or {}),
            buffer_domain=buffer_domain,
            inter_pe=tuple(self._inter_pe),
            num_pes=num_pes,
        )
