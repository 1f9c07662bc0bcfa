"""PEFP main loop (Algorithm 1) on the simulated device.

The engine is *functionally* a BFS-style expand-and-verify enumerator and
*temporally* a cycle-accounting model.  The three path areas and their
interaction implement Algorithms 1 and 3:

- **processing area** ``P'`` (BRAM): the batch of expansions in flight;
- **buffer area** ``P`` (BRAM): a stack of intermediate paths, flushed
  wholesale to DRAM when full;
- **memory area** ``P_D`` (DRAM): the overflow stack, refilled from its
  tail in blocks of Θ1.

Timing model
------------
Processing one batch is a dataflow region of five stages — batch load,
edge fetch, barrier fetch, verification, write-back — exactly the structure
the paper pipelines.  Stages overlap, so a batch costs

    ``max(stage cycles) .. bounded below by .. sum(DRAM cycles)``

plus a small fixed control overhead: on-chip stages run concurrently, but
all off-chip traffic serialises on the single modelled DRAM channel.
Buffer flushes and Θ1 refills stall the pipeline and are charged serially,
which is what makes the Batch-DFS ablation (Fig. 13) visible: FIFO batching
keeps whole BFS levels live and pays for every overflow round trip.

With ``use_cache=False`` (the Fig. 14 ablation) the buffer area lives in
DRAM — every intermediate path is written to and fetched from off-chip
memory — and the CSR/barrier caches are disabled, so the fetch stages pay
full DRAM latency per access.

Vectorised hot path
-------------------
The per-batch work is computed from precomputed array tables rather than
per-expansion Python loops, without changing a single charged cycle:

- one numpy gather per run builds ``edge_bar`` (the barrier value of every
  CSR edge endpoint), and per ``(vertex, parent-hops)`` the surviving
  successor positions/ids are built array-at-once and memoised — the
  barrier and target checks of Algorithm 2 become table lookups;
- every memory-model charge of the straight-line loop
  (``tests/engine_reference.py``) has a closed form in the slice
  bounds and cache residency constants, so stage costs and port traffic
  are computed arithmetically and folded into the device models in bulk;
  the charges linear in run totals (entries loaded, paths pushed) fold
  once per run;
- a record's tail is named by its row end ``last_ptr``, which keys the
  prune tables, so no charge reads a vertex id.  That lets the kernel
  write paths in the caller's ids (``vertex_ids``, e.g. Pre-BFS's
  ``old_of_new``): the seed, each prune-table candidate and the result's
  target carry them, and no translation pass follows the run.

One kernel per processing element
---------------------------------
A :class:`_Kernel` is one PE's pipeline: its device, buffer and DRAM path
areas, cached arrays and deferred accumulators.  Its phases are
:meth:`~_Kernel.refill`, :meth:`~_Kernel.flush` and the resumable batch
loop :meth:`~_Kernel.steps`, a generator that runs one step (a refill
or a batch) per resume and yields the cycles it charged.  A batch is
one walk down the Batch-DFS stack top that runs stages 2-4 on each
slice as it is selected; the FIFO ablation feeds the same loop body
from :func:`~repro.core.batching.fifo_batch`'s list.  Between steps the
kernel's hot state lives in the suspended generator's locals; the
deferred accumulators fold into the models once per run, when the
generator ends or is closed.  Every
folded quantity is a plain sum, so one fold equals a fold per step.  A
survivor whose tail vertex another PE owns goes to that PE's outbox at
the moment it is admitted.  The tables that depend only on (graph,
barrier, target, k) live in one :class:`_RunTables` that every PE of a
run reads.

:meth:`PEFPEngine.run` drains a single kernel's generator.  With
``DeviceConfig.num_pes > 1`` it hands over to
:func:`repro.core.multi_pe.run_multi_pe`, which resumes N kernels one
refill or batch per superstep.

``docs/TIMING_MODEL.md`` derives why the charges are unchanged; the
differential suite asserts byte-identical results, stats, cycles,
traffic, profiles and device spans against the reference loop, which
lives beside the test harness in ``tests/engine_reference.py``.  Both
loops report their device events to one
:class:`~repro.fpga.profile.DeviceProfiler` per run.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import fifo_batch
from repro.core.cache import CachedArray
from repro.core.config import PEFPConfig, QueryBudget
from repro.core.paths import BufferArea, DramArea, PathRecord, record_words
from repro.core.verify import VerificationModule
from repro.errors import QueryError
from repro.fpga.clock import Clock
from repro.fpga.device import Device, DeviceConfig
from repro.fpga.pipeline import PipelineModel
from repro.fpga.profile import DeviceProfile, DeviceProfiler
from repro.graph.csr import CSRGraph


@dataclass
class EngineStats:
    """Counters describing one engine run."""

    batches: int = 0
    expansions: int = 0
    results: int = 0
    intermediate_paths: int = 0
    #: successors equal to the target — emitted as results when the hop
    #: bound allows, but always *rejected as intermediates* (a simple path
    #: cannot continue through t), mirroring Algorithm 2's first check.
    rejected_target: int = 0
    rejected_barrier: int = 0
    rejected_visited: int = 0
    flushes: int = 0
    flushed_paths: int = 0
    refills: int = 0
    refilled_paths: int = 0
    peak_buffer_paths: int = 0
    peak_dram_paths: int = 0
    #: which memory held the buffer area: ``"bram"`` normally, ``"dram"``
    #: under the ``use_cache=False`` ablation.  The DRAM-resident buffer
    #: is unbounded, so ``peak_buffer_paths`` is a DRAM high-water mark
    #: there and must not be compared against BRAM-mode runs (Fig. 14).
    buffer_domain: str = "bram"
    #: valid new intermediate paths keyed by the *parent* path length
    #: (Table III counts newly generated paths per expanded length l).
    new_paths_by_parent_length: dict[int, int] = field(default_factory=dict)
    #: expansions scheduled keyed by parent path length.
    expansions_by_parent_length: dict[int, int] = field(default_factory=dict)
    #: frontier records routed between PEs (multi-PE runs only; all five
    #: inter-PE counters stay 0 on single-PE runs, so stats equality with
    #: the single-pipeline engines is preserved).
    inter_pe_messages: int = 0
    #: interconnect routing cycles charged to the global clock
    #: (hop latency + record streaming), summed over supersteps.
    inter_pe_route_cycles: int = 0
    #: round-robin arbiter grant-rotation cycles (contention).
    inter_pe_arbiter_cycles: int = 0
    #: backpressure cycles for records beyond the destination FIFO depth.
    inter_pe_stall_cycles: int = 0
    #: barrier-sync cycles at superstep boundaries.
    inter_pe_barrier_cycles: int = 0
    #: raw (pre-overlap) cycle totals per dataflow stage plus the serial
    #: events; `sum(stage_cycles.values())` exceeds the clock because the
    #: five stages overlap — see the module docstring.
    stage_cycles: dict[str, int] = field(default_factory=dict)

    def add_stage_cycles(self, stage: str, cycles: int) -> None:
        if cycles:
            self.stage_cycles[stage] = (
                self.stage_cycles.get(stage, 0) + cycles
            )


@dataclass
class EngineRunResult:
    """Paths found plus the device-time accounting of the run."""

    paths: list[tuple[int, ...]]
    cycles: int
    seconds: float
    stats: EngineStats
    device: Device
    #: ``True`` when a :class:`~repro.core.config.QueryBudget` stopped the
    #: run before the search space was exhausted — ``paths`` is then an
    #: exact subset of the unbudgeted answer, possibly missing results.
    truncated: bool = False
    #: per-batch cycle breakdown and device counters; only populated when
    #: :meth:`PEFPEngine.run` was called with ``profile=True``.
    profile: DeviceProfile | None = None

    @property
    def num_paths(self) -> int:
        return len(self.paths)


class _StageCost:
    """Cycle cost of one dataflow stage, split by memory domain."""

    __slots__ = ("bram", "dram", "compute")

    def __init__(self) -> None:
        self.bram = 0
        self.dram = 0
        self.compute = 0

    @property
    def total(self) -> int:
        return self.bram + self.dram + self.compute


class PEFPEngine:
    """The FPGA-side enumerator.

    One engine instance is reusable across queries; each :meth:`run`
    simulates a fresh kernel invocation on its own :class:`Device`.
    """

    name = "pefp"

    def __init__(
        self,
        config: PEFPConfig | None = None,
        device_config: DeviceConfig | None = None,
        pipeline: PipelineModel | None = None,
    ) -> None:
        self.config = config or PEFPConfig()
        self.device_config = device_config or DeviceConfig()
        self.pipeline = pipeline or PipelineModel()
        self._timing_tables: tuple[list[int], list[int]] | None = None

    def timing_tables(self) -> tuple[list[int], list[int]]:
        """``(ceil_tab, verify_tab)``, built on the first run and kept.

        ``ceil_tab[n]`` is the BRAM wide-access cycles of ``n`` words and
        ``verify_tab[n]`` the verification-pipeline latency of an
        ``n``-item batch (indices 0..Θ2).  Both depend only on the
        engine's frozen configs and pipeline, never on the graph or the
        query, so every run of the engine reads one copy.
        """
        if self._timing_tables is None:
            pw = self.device_config.bram_port_words
            verifier = VerificationModule(self.pipeline,
                                          self.config.use_data_separation)
            span = range(self.config.theta2 + 1)
            self._timing_tables = (
                [-(-n // pw) for n in span],
                [verifier.batch_cycles(n) for n in span],
            )
        return self._timing_tables

    def run(
        self,
        graph: CSRGraph,
        source: int,
        target: int,
        max_hops: int,
        barrier: np.ndarray,
        on_result=None,
        collect_paths: bool = True,
        budget: QueryBudget | None = None,
        tracer=None,
        profile: bool = False,
        vertex_ids: list[int] | None = None,
    ) -> EngineRunResult:
        """Enumerate all s-t k-paths of ``graph`` on the simulated device.

        ``barrier`` must hold lower bounds on ``sd(v, target)`` — Pre-BFS
        supplies exact distances on the induced subgraph; the no-Pre-BFS
        host path supplies the k-hop reverse-BFS distances with every
        unreached vertex set to ``k + 1`` (a valid lower bound that prunes
        it immediately; zeros would disable barrier pruning entirely).
        Returned paths use ``graph``'s vertex ids, or, with
        ``vertex_ids`` (a list holding the caller's id of each vertex of
        ``graph``, e.g. Pre-BFS's ``old_of_new``), the caller's ids: the
        kernel writes every path in them, so no translation pass follows.
        ``source``, ``target`` and ``barrier`` stay in ``graph``'s ids.

        ``on_result`` streams each found path as it is produced (the
        device streams results over PCIe anyway); with
        ``collect_paths=False`` the result list is not materialised —
        for result sets too large to hold, pair it with ``on_result``.

        ``budget`` bounds the run (see :class:`QueryBudget`): the main
        loop checks the cycle cap before each batch and the result cap
        after each batch, terminates cleanly at the boundary and sets
        ``truncated`` on the result when the answer may be incomplete.
        The paths of a budgeted run are always an exact subset of the
        unbudgeted answer, and the clock never overshoots ``max_cycles``
        by more than one batch (including its flush/refill stalls).

        ``tracer`` (a :class:`repro.observability.Tracer`) emits one span
        per processing batch and refill stall on the caller's current
        span; ``profile=True`` collects a
        :class:`~repro.fpga.profile.DeviceProfile` (per-batch cycle
        breakdown, cache hit/miss, high-water marks) onto the result.
        Both default off and cost nothing when disabled — the hot loop
        pays one falsy check per batch.
        """
        if self.device_config.num_pes > 1:
            from repro.core.multi_pe import run_multi_pe

            return run_multi_pe(
                self, graph, source, target, max_hops, barrier,
                on_result=on_result, collect_paths=collect_paths,
                budget=budget, tracer=tracer, profile=profile,
                vertex_ids=vertex_ids,
            )
        max_hops = _check_query(graph, source, target, max_hops, barrier)
        stats = EngineStats()
        results: list[tuple[int, ...]] = []
        kernel = _Kernel(
            self, graph, barrier,
            _RunTables(self, graph, target, max_hops, barrier, vertex_ids),
            stats, results, on_result=on_result,
            collect_paths=collect_paths,
            max_results=budget.max_results if budget is not None else None,
            max_cycles=budget.max_cycles if budget is not None else None,
        )
        sink = DeviceProfiler(self.device_config.frequency_hz, profile,
                              tracer)
        kernel.seed(source, sink.record)
        if sink.observing:
            kernel.observe = sink.record
        kernel.run()
        return _finish_run([kernel], kernel.device, stats, results, sink)


def _check_query(graph: CSRGraph, source: int, target: int, max_hops: int,
                 barrier: np.ndarray) -> int:
    """Validate a query; return ``max_hops`` clamped to ``|V| - 1``.

    A simple path has at most |V| - 1 edges, so the path-record width
    (and every hop comparison) can be clamped without changing the
    answer; this keeps huge user-supplied k from inflating BRAM needs.
    """
    if not 0 <= source < graph.num_vertices:
        raise QueryError(f"source {source} not in graph")
    if not 0 <= target < graph.num_vertices:
        raise QueryError(f"target {target} not in graph")
    if source == target:
        raise QueryError("source equals target")
    if max_hops < 1:
        raise QueryError(f"hop constraint must be >= 1, got {max_hops}")
    if len(barrier) != graph.num_vertices:
        raise QueryError("barrier array size does not match graph")
    return min(max_hops, graph.num_vertices - 1)


def _finish_run(kernels: list["_Kernel"], device, stats: EngineStats,
                results: list, sink: DeviceProfiler) -> EngineRunResult:
    """Close a run of one or more kernels that shared ``stats``.

    Peaks take the max across PEs.  The run is truncated when a kernel
    dropped results to the budget or work is left anywhere.
    """
    stats.peak_buffer_paths = max(k.buffer.peak_occupancy for k in kernels)
    stats.peak_dram_paths = max(k.dram_area.peak_occupancy for k in kernels)
    profile = sink.finish(
        device, stats,
        [arr for k in kernels for arr in (k.vertex_arr, k.edge_arr,
                                          k.bar_arr)],
        num_pes=len(kernels),
    )
    return EngineRunResult(
        paths=results,
        cycles=device.cycles,
        seconds=device.elapsed_seconds(),
        stats=stats,
        device=device,
        truncated=any(k.dropped or k.has_work for k in kernels),
        profile=profile,
    )


class _RunTables:
    """Constants and memo tables of one run, shared by its PE kernels.

    Everything here depends only on (graph, barrier, target, k, output
    ids) and the configuration, never on a PE's state, so N kernels read
    one copy: build time and memory do not grow with the PE count.  Every
    charged cycle of the batch loop is the closed form of the
    memory-model call the reference loop makes at the same point; the
    residency constants (cached prefix lengths, equal on every PE) make
    hit/miss splits pure arithmetic.  See docs/TIMING_MODEL.md
    ("Vectorised engine").

    ``vertex_ids`` (``None``: ``graph``'s own ids) is where the output
    ids enter: the seed record, each candidate of a prune table and the
    result's target carry them, so a record's vertex tuple is already
    the path the caller reads.  Nothing the kernel charges depends on a
    vertex id, so the tables charge what they charged in ``graph``'s
    ids.  A record's tail is found by its row end ``last_ptr`` instead
    (unique for a non-empty row, and every record's row is non-empty).
    """

    def __init__(self, engine: PEFPEngine, graph: CSRGraph, target: int,
                 max_hops: int, barrier: np.ndarray,
                 vertex_ids: list[int] | None = None) -> None:
        cfg = engine.config
        dcfg = engine.device_config
        if vertex_ids is None:
            vertex_ids = range(graph.num_vertices)
        elif len(vertex_ids) != graph.num_vertices:
            raise QueryError("vertex id table size does not match graph")
        #: the output id of each vertex of ``graph``.
        self.out = vertex_ids
        self.target = target
        self.out_target = vertex_ids[target]
        self.max_hops = max_hops
        self.rec_w = rec_w = record_words(max_hops)
        self.key_span = max_hops + 1
        self.use_dfs = cfg.use_batch_dfs
        self.buffer_in_bram = cfg.use_cache
        self.theta1 = cfg.theta1
        self.theta2 = cfg.theta2
        self.overhead = cfg.batch_overhead_cycles
        self.channels = dcfg.dram_channels
        self.pw = pw = dcfg.bram_port_words
        self.rl = dcfg.dram_read_latency
        self.wl = dcfg.dram_write_latency
        self.ceil_rec = -(-rec_w // pw)
        self.ceil_tab, self.verify_tab = engine.timing_tables()
        num_vertices = graph.num_vertices
        self.indices = indices = graph.indices
        self.iptr = graph.indptr.tolist()
        bar_np = np.asarray(barrier)
        self.edge_bar = bar_np[indices] if indices.size else bar_np[:0]
        # BRAM budgets of the three cached arrays and their prefixes.
        self.vertex_budget = min(len(graph.indptr), cfg.graph_cache_words)
        self.edge_budget = max(0, cfg.graph_cache_words - self.vertex_budget)
        self.bar_budget = cfg.barrier_cache_words
        on = cfg.use_cache
        self.c_v = c_v = CachedArray.prefix_len(len(graph.indptr),
                                                self.vertex_budget, on)
        self.c_e = c_e = CachedArray.prefix_len(indices.size,
                                                self.edge_budget, on)
        self.c_b = c_b = CachedArray.prefix_len(len(barrier),
                                                self.bar_budget, on)
        self.v_all_hit = c_v >= num_vertices + 1
        self.e_all_hit = c_e >= indices.size
        self.b_all_hit = c_b >= num_vertices
        self.v_partial = not self.v_all_hit and c_v > 0
        self.b_partial = 0 < c_b < num_vertices
        #: per (row end, parent-hops), keyed ``last_ptr * key_span + h``:
        #: see :meth:`prune`.
        self.prune_tab: dict[int, tuple] = {}
        #: per row end: prefix counts of barrier-cache hits (only needed
        #: when the barrier cache holds a proper prefix of the vertices).
        self.bhit_tab: dict[int, list[int]] = {}

    def prune(self, last: int, h: int) -> tuple:
        """Build and memoise the prune table of the vertex whose
        successor row ends at ``last``, for parents of ``h`` hops.

        The table is ``(row_lo, row_hi, target count, survivor count,
        target positions, survivor positions, candidates)`` over the full
        row — the array-at-once form of Algorithm 2's target and barrier
        checks.  Each candidate is ``(out_id, row_lo, row_hi, sub_id)``:
        the survivor's output id (what a path holds and the visited check
        compares), its own successor row, and its ``graph`` id (for
        residency and ownership).
        """
        iptr = self.iptr
        # The row is non-empty, so the first index holding ``last`` is
        # the one after the vertex's.
        vlo = iptr[bisect_left(iptr, last) - 1]
        vhi = last
        target = self.target
        out = self.out
        indices = self.indices
        edge_bar = self.edge_bar
        thresh = self.max_hops - 1 - h
        tpos: list[int] = []
        cpos: list[int] = []
        cand: list[tuple] = []
        if vhi - vlo <= 128:
            # small slice: a plain loop beats numpy call overhead (the
            # typical degree by a wide margin)
            pos = vlo
            for u, b in zip(indices[vlo:vhi].tolist(),
                            edge_bar[vlo:vhi].tolist()):
                if u == target:
                    tpos.append(pos)
                elif b <= thresh:
                    cpos.append(pos)
                    cand.append((out[u], iptr[u], iptr[u + 1], u))
                pos += 1
        else:
            slice_u = indices[vlo:vhi]
            t_mask = slice_u == target
            ok = (edge_bar[vlo:vhi] <= thresh) & ~t_mask
            cp = np.flatnonzero(ok)
            cand = [(out[u], iptr[u], iptr[u + 1], u)
                    for u in slice_u[cp].tolist()]
            tpos = (np.flatnonzero(t_mask) + vlo).tolist()
            cpos = (cp + vlo).tolist()
        table = (vlo, vhi, len(tpos), len(cand), tpos, cpos, cand)
        self.prune_tab[last * self.key_span + h] = table
        return table


class _Kernel:
    """One processing element's pipeline (Algorithms 1, 3 and 4).

    Owns the PE's :class:`Device`, its buffer and DRAM path areas and its
    cached arrays.  ``stats`` and ``results`` may be shared by several
    kernels (the PEs of one multi-PE run).  :meth:`steps` is the one
    batch loop: it suspends after every refill or batch with its state
    in locals and folds its counters into them once, when it ends or is
    closed.  With ``owners`` set (multi-PE), a survivor whose tail
    vertex another PE owns goes to ``outbox[owner]`` as a
    ``(vertices, next_ptr, last_ptr)`` record when it is admitted, and
    records routed to this PE wait in ``inbox`` until its next resume
    pushes them.  The driver takes each filled outbox queue whole and
    leaves a fresh one.  ``observe``, when
    set, is called as ``observe(kind, wall_ns, fields)`` once per refill
    or batch — the signature of :meth:`DeviceProfiler.record`, ``fields``
    being the typed event's constructor arguments.
    """

    def __init__(self, engine: PEFPEngine, graph: CSRGraph,
                 barrier: np.ndarray, tables: _RunTables,
                 stats: EngineStats, results: list, *, on_result=None,
                 collect_paths: bool = True, max_results: int | None = None,
                 max_cycles: int | None = None, index: int = 0,
                 owners: list[int] | None = None) -> None:
        cfg = engine.config
        self.tables = tables
        self.stats = stats
        self.results = results
        self.on_result = on_result
        self.collect_paths = collect_paths
        self.max_results = max_results
        self.max_cycles = max_cycles
        self.index = index
        self.owners = owners
        self.outbox: list[list] = (
            [[] for _ in range(engine.device_config.num_pes)]
            if owners is not None else []
        )
        self.inbox: list[tuple] = []
        #: records wait in the inbox, the buffer or the DRAM area: the one
        #: test of whether this PE steps.  The batch loop sets it at every
        #: suspension (its inbox is empty then) and the multi-PE driver
        #: when it delivers to the inbox.
        self.has_work = False
        self.observe = None
        #: set once a batch dropped results to the result budget.
        self.dropped = False
        self.device = device = Device(engine.device_config)
        bram, dram = self.bram, self.dram = device.bram, device.dram
        self.clock = device.clock
        rec_w = tables.rec_w

        # --- static allocations (per PE: capacities are per pipeline) --
        bram.allocate(cfg.theta2 * (rec_w + 2), "processing_area")
        if tables.buffer_in_bram:
            bram.allocate(cfg.buffer_capacity_paths * rec_w, "buffer_area")
            self.buffer = BufferArea(cfg.buffer_capacity_paths)
        else:
            # Buffer stack lives in DRAM: unbounded, every touch off-chip.
            self.buffer = BufferArea(2**62)
            stats.buffer_domain = "dram"
        # Every PE keeps the full CSR in its DRAM channel with the same
        # BRAM prefix budgets; ownership only decides who expands.
        self.vertex_arr = CachedArray(graph.indptr, bram, dram,
                                      tables.vertex_budget, "vertex_arr",
                                      enabled=cfg.use_cache)
        self.edge_arr = CachedArray(graph.indices, bram, dram,
                                    tables.edge_budget, "edge_arr",
                                    enabled=cfg.use_cache)
        self.bar_arr = CachedArray(barrier, bram, dram, tables.bar_budget,
                                   "bar_arr", enabled=cfg.use_cache)
        self.dram_area = DramArea()

    def seed(self, source: int, record) -> int:
        """Push the path consisting of just ``source``; returns the
        setup cycles and passes them to ``record`` (a
        :meth:`DeviceProfiler.record`) as the ``kernel_setup`` event."""
        setup_wall = time.perf_counter_ns()
        lo = self.vertex_arr.read(source)
        hi = self.vertex_arr.read(source + 1)
        if lo < hi:
            t = self.tables
            if t.buffer_in_bram:
                self.bram.write(t.rec_w)
            else:
                self.dram.burst_write(t.rec_w)
            self.buffer.push(PathRecord((t.out[source],), lo, hi))
            self.has_work = True
        cycles = self.clock.cycles
        record("kernel_setup", setup_wall, {"cycles": cycles})
        return cycles

    def flush(self) -> None:
        """Spill the whole buffer area to the DRAM path area (Alg. 1
        l.13): a serial stall."""
        before = self.clock.cycles
        records = self.buffer.drain()
        words = len(records) * self.tables.rec_w
        self.bram.read(words)
        self.dram.burst_write(words)
        self.dram_area.append_block(records)
        stats = self.stats
        stats.flushes += 1
        stats.flushed_paths += len(records)
        stats.add_stage_cycles("flush", self.clock.cycles - before)

    def refill(self) -> None:
        """Θ1 refill from the DRAM tail into the empty buffer area: a
        serial stall."""
        clock = self.clock
        before = clock.cycles
        wall0 = time.perf_counter_ns() if self.observe is not None else 0
        block = self.dram_area.fetch_tail(self.tables.theta1)
        words = len(block) * self.tables.rec_w
        self.dram.burst_read(words)
        self.bram.write(words)
        for rec in block:
            self.buffer.push(rec)
        stats = self.stats
        stats.refills += 1
        stats.refilled_paths += len(block)
        cycles = clock.cycles - before
        stats.add_stage_cycles("refill", cycles)
        if self.observe is not None:
            self.observe("refill", wall0,
                         {"cycles": cycles, "paths": len(block)})

    def _drain_inbox(self) -> None:
        """Push the records routed here at the last superstep boundary.

        Their transfer was charged as interconnect cycles there; an
        overflow flushes this PE's buffer as usual.
        """
        buffer = self.buffer
        records, self.inbox = self.inbox, []
        if (len(buffer._verts) - buffer._head + len(records)
                <= buffer.capacity_paths):
            buffer.extend(records)  # no flush possible
            return
        for verts, lo, hi in records:
            if len(buffer) >= buffer.capacity_paths:
                self.flush()
            buffer.push_path(verts, lo, hi)

    def run(self) -> None:
        """Run the kernel to completion or until a budget is spent."""
        for _ in self.steps():
            pass

    def steps(self):
        """The resumable batch loop: each resume runs one step.

        A resume first pushes the inbox, then runs one refill or one
        batch, then sets :attr:`has_work` and suspends, yielding the
        cycles the step charged (the inbox push included).  The
        generator returns when the buffer and DRAM areas are empty or a
        budget is spent (the cycle cap is checked before each step; the
        result cap after each batch, whose delta is still yielded).  Its
        hot state stays in locals across steps; the deferred
        accumulators fold into the device models, the cached arrays'
        counters and ``stats`` once, when the generator ends or is
        closed.  ``stats.results`` is the exception: the result budget
        is per run and shared by every PE, so it is kept current at
        every suspension.
        """
        stats = self.stats
        stage_cycles = stats.stage_cycles
        buffer = self.buffer
        dram_area = self.dram_area
        clock = self.clock
        observe = self.observe
        t = self.tables
        target = t.out_target
        max_hops = t.max_hops
        rec_w = t.rec_w
        key_span = t.key_span
        use_dfs = t.use_dfs
        buffer_in_bram = t.buffer_in_bram
        theta2 = t.theta2
        overhead = t.overhead
        channels = t.channels
        pw = t.pw
        rl = t.rl
        wl = t.wl
        rl1 = rl - 1
        wl1 = wl - 1
        ceil_rec = t.ceil_rec
        ceil_tab = t.ceil_tab
        verify_tab = t.verify_tab
        indices_np = t.indices
        iptr_l = t.iptr
        c_v = t.c_v
        c_e = t.c_e
        c_b = t.c_b
        v_all_hit = t.v_all_hit
        e_all_hit = t.e_all_hit
        b_all_hit = t.b_all_hit
        v_partial = t.v_partial
        b_partial = t.b_partial
        prune_tab_get = t.prune_tab.get
        prune = t.prune
        bhit_tab = t.bhit_tab
        owners = self.owners
        me = self.index
        outbox = self.outbox
        collect_paths = self.collect_paths
        on_result = self.on_result
        results_append = self.results.extend
        max_results = self.max_results
        max_cycles = self.max_cycles
        clock_advance = clock.advance

        # Local accumulators, folded into the device/stats objects when
        # the run ends (all folded quantities are plain sums, so deferring
        # them is exact; the cold paths — seed, refill, flush — charge
        # the real models directly).
        br_ops = br_words = bw_ops = bw_words = 0          # BRAM port
        dr_ops = dr_words = dw_ops = dw_words = d_stall = 0  # DRAM port
        v_hits = v_miss = e_hits = e_miss = b_hits = b_miss = 0
        n_batches = n_expansions = n_intermediate = 0
        # Run totals that the charges linear in them fold from: entries
        # loaded, paths pushed, batches that gathered vertex rows.
        n_entries = n_pushed = nv_batches = 0
        rej_t = n_survived = 0  # n_survived: passed target and barrier
        # Per-parent-length tallies as lists (h <= max_hops always).  On a
        # single pipeline keys are first touched in ascending h order
        # under both schedulers — a length-(h+1) parent only exists after
        # an expansion at length h — so the fold re-inserts every key in
        # ascending order: that reproduces the reference dicts' insertion
        # order exactly, and the PEs of a multi-PE run, folding one after
        # another, leave the same order.
        exp_list = [0] * (key_span + 1)
        new_list = [0] * (key_span + 1)
        acc_t1 = acc_t2 = acc_t3 = acc_t4 = acc_t5 = acc_ov = 0

        # --- main loop (Algorithms 1 and 3), one step per resume --------
        try:
            while True:
                # a step's delta covers the inbox push before it, too
                step0 = clock._cycles
                if observe is not None:
                    iter_wall0 = time.perf_counter_ns()
                    flush_cycles0 = stage_cycles.get("flush", 0)
                    flushes0 = stats.flushes
                if self.inbox:
                    self._drain_inbox()
                # Budget check at the step boundary.
                if max_cycles is not None and clock._cycles >= max_cycles:
                    return
                bverts = buffer._verts
                bnext = buffer._next
                blast = buffer._last
                bhead = buffer._head
                if len(bverts) == bhead:  # buffer empty
                    if buffer_in_bram and dram_area._stack:
                        self.refill()  # the buffer now holds work
                        yield clock._cycles - step0
                        continue  # re-check the cycle budget after the stall
                    self.has_work = False
                    return

                # --- one walk per batch: select each slice (Batch-DFS from
                # the stack top, or FIFO via the scheduler's list) and run
                # stages 2-4 on it at once --------------------------------
                if use_dfs:
                    fifo = None
                    top = len(bverts)
                    cnt = 0
                else:
                    fifo = iter(fifo_batch(buffer, theta2))
                n_e = 0
                # Fully-cached arrays (the common configuration) charge a
                # fixed pattern per entry — one wide BRAM access of ``size``
                # words each for stages 2 and 3 — so those charges fold into
                # batch-level sums of ``size`` below; only the closed-form
                # wide-port ceiling of stage 2 stays per-entry.  Partially
                # cached or uncached arrays keep the general per-entry split.
                s2b = s2d = s3b = s3d = 0
                n_items = 0
                batch_nt = batch_pass = 0
                nv = n_push = n1 = n2 = 0
                batch_results: list[tuple[int, ...]] = []
                push_v: list[tuple[int, ...]] = []
                push_lo: list[int] = []
                push_hi: list[int] = []
                wres = 0
                while True:
                    if fifo is None:
                        if cnt >= theta2:
                            break
                        top -= 1
                        if top < bhead:
                            break
                        elo = bnext[top]
                        ehi = elo + (theta2 - cnt)
                        pl = blast[top]
                        if ehi > pl:
                            ehi = pl
                        if ehi <= elo:
                            continue
                        bnext[top] = ehi
                        cnt += ehi - elo
                        pv = bverts[top]
                    else:
                        entry = next(fifo, None)
                        if entry is None:
                            break
                        pv, elo, ehi = entry
                        # a FIFO entry carries no row end: the first
                        # pointer past ``elo`` is its row's end
                        pl = iptr_l[bisect_right(iptr_l, elo)]
                    n_e += 1
                    h = len(pv) - 1
                    size = ehi - elo
                    n_items += size
                    exp_list[h] += size
                    tables = prune_tab_get(pl * key_span + h)
                    if tables is None:
                        tables = prune(pl, h)
                    vlo, vhi, n_t, n_pass, tpos, cpos, cu = tables
                    if elo == vlo and ehi == vhi:
                        cand = cu  # full slice (common case)
                    else:
                        if n_t:
                            n_t = (bisect_left(tpos, ehi)
                                   - bisect_left(tpos, elo))
                        if n_pass:
                            a = bisect_left(cpos, elo)
                            b = bisect_left(cpos, ehi)
                            cand = cu[a:b]
                            n_pass = b - a
                        else:
                            cand = cu  # empty
                    # stage 2: edge fetch — one read_range per entry
                    if e_all_hit:
                        s2b += ceil_tab[size]
                    else:
                        nh = c_e - elo
                        if nh > 0:
                            if nh > size:
                                nh = size
                            s2b += ceil_tab[nh]
                            e_hits += nh
                            br_ops += 1
                            br_words += nh
                        else:
                            nh = 0
                        nm = size - nh
                        if nm:
                            s2d += rl + nm - 1
                            e_miss += nm
                            dr_ops += 1
                            dr_words += nm
                            d_stall += rl1
                    # stage 3: barrier fetch — one gather per entry
                    if not b_all_hit:
                        if b_partial:
                            bp = bhit_tab.get(pl)
                            if bp is None:
                                bp = [0]
                                bp.extend(np.cumsum(
                                    indices_np[vlo:vhi] < c_b).tolist())
                                bhit_tab[pl] = bp
                            nbh = bp[ehi - vlo] - bp[elo - vlo]
                        else:
                            nbh = 0
                        if nbh:
                            s3b += nbh
                            b_hits += nbh
                            br_ops += 1
                            br_words += nbh
                        nbm = size - nbh
                        if nbm:
                            s3d += nbm * rl
                            b_miss += nbm
                            dr_ops += 1
                            dr_words += nbm
                            d_stall += nbm * rl1
                    # stage 4: verification outcomes (Algorithm 2)
                    batch_nt += n_t
                    batch_pass += n_pass
                    if n_t and h < max_hops:
                        full = pv + (target,)
                        if n_t == 1:
                            batch_results.append(full)
                        else:
                            batch_results.extend([full] * n_t)
                        wres += (h + 3) * n_t
                    # the surviving candidates' visited check, fused with the
                    # write-back bookkeeping of the paths it admits
                    # (``u``: output id, as ``pv`` holds; ``su``: graph id).
                    # A rejected candidate is counted at the fold, as a
                    # survivor not admitted.
                    nv0 = nv
                    for u, nlo, nhi, su in cand:
                        if u in pv:
                            continue
                        nv += 1
                        if v_partial:
                            if su < c_v:
                                n1 += 1
                            if su + 1 < c_v:
                                n2 += 1
                        if nlo < nhi:
                            # the write-back below charges every admitted
                            # path; one whose tail another PE owns waits in
                            # the outbox for the superstep boundary
                            n_push += 1
                            if owners is None or owners[su] == me:
                                push_v.append(pv + (u,))
                                push_lo.append(nlo)
                                push_hi.append(nhi)
                            else:
                                outbox[owners[su]].append(
                                    (pv + (u,), nlo, nhi))
                    new_list[h] += nv - nv0
                if use_dfs:
                    # Pop the exhausted run at the stack top.  No record
                    # is exhausted at a batch's start, so it is every
                    # record the walk passed but the last, which the batch
                    # may have filled only in part.
                    if top < bhead:
                        top = bhead
                    elif bnext[top] < blast[top]:
                        top += 1
                    if top < len(bverts):
                        del bverts[top:]
                        del bnext[top:]
                        del blast[top:]
                if not n_e:
                    return  # defensive: cannot happen with a non-empty buffer
                n_batches += 1
                n_entries += n_e
                n_expansions += n_items
                rej_t += batch_nt
                n_survived += batch_pass
                n_intermediate += nv
                if b_all_hit:
                    s3b += n_items
                t4 = verify_tab[n_items]

                # Result budget: keep only what fits; dropped results mean the
                # answer is definitively incomplete.  The kept prefix is still
                # a subset of the unbudgeted answer (same deterministic order).
                if max_results is not None:
                    room = max_results - stats.results
                    if len(batch_results) > room:
                        batch_results = batch_results[:room]
                        self.dropped = True
                        wres = sum(len(p) + 1 for p in batch_results)

                # --- stage 1: load; stage 5: write-back ---------------------
                moved = n_e * rec_w
                if buffer_in_bram:
                    t1 = 2 * -(-moved // pw)
                    s1d = 0
                else:
                    s1d = (rl + moved - 1) + 2 * n_e * wl
                    t1 = s1d + -(-moved // pw)

                s5b = s5d = 0
                if batch_results:
                    if collect_paths:
                        results_append(batch_results)
                    if on_result is not None:
                        for p in batch_results:
                            on_result(p)
                    stats.results += len(batch_results)
                    s5d += wl + wres - 1
                    dw_ops += 1
                    dw_words += wres
                    d_stall += wl1
                if nv:
                    # the two vertex_arr gathers (slice bounds of every tail)
                    if v_all_hit:
                        s5b += 2 * nv
                        nv_batches += 1
                    else:
                        for n_hit, n_mis in ((n1, nv - n1), (n2, nv - n2)):
                            if n_hit:
                                s5b += n_hit
                                v_hits += n_hit
                                br_ops += 1
                                br_words += n_hit
                            if n_mis:
                                s5d += n_mis * rl
                                v_miss += n_mis
                                dr_ops += 1
                                dr_words += n_mis
                                d_stall += n_mis * rl1
                    if n_push:
                        # one record write per admitted path (dead ends were
                        # dropped in the fused loop without a write)
                        n_pushed += n_push
                        if buffer_in_bram:
                            s5b += n_push * ceil_rec
                        else:
                            s5d += n_push * (wl + rec_w - 1)

                # Fold the overlapped stages into the device clock: concurrent
                # on-chip stages; off-chip traffic shares the DRAM channels;
                # fixed control cost per batch.
                t2 = s2b + s2d
                t3 = s3b + s3d
                t5 = s5b + s5d
                dram_cycles = s1d + s2d + s3d + s5d
                mx = t1
                if t2 > mx:
                    mx = t2
                if t3 > mx:
                    mx = t3
                if t4 > mx:
                    mx = t4
                if t5 > mx:
                    mx = t5
                dram_bound = -(-dram_cycles // channels)
                if dram_bound > mx:
                    mx = dram_bound
                batch_cycles = mx + overhead
                clock_advance(batch_cycles)
                acc_t1 += t1
                acc_t2 += t2
                acc_t3 += t3
                acc_t4 += t4
                acc_t5 += t5
                acc_ov += overhead

                # Local survivors are pushed here; overflow stalls the
                # pipeline.
                if push_v:
                    bverts = buffer._verts
                    bnext = buffer._next
                    blast = buffer._last
                    n_buf = len(bverts) - buffer._head
                    cap = buffer.capacity_paths
                    if n_buf + len(push_v) <= cap:
                        # no flush possible: append wholesale
                        bverts.extend(push_v)
                        bnext.extend(push_lo)
                        blast.extend(push_hi)
                        n_buf += len(push_v)
                        if n_buf > buffer.peak_occupancy:
                            buffer.peak_occupancy = n_buf
                        push_v = ()
                    for idx in range(len(push_v)):
                        if buffer_in_bram and n_buf >= cap:
                            if n_buf > buffer.peak_occupancy:
                                buffer.peak_occupancy = n_buf
                            self.flush()
                            bverts = buffer._verts
                            bnext = buffer._next
                            blast = buffer._last
                            n_buf = 0
                        bverts.append(push_v[idx])
                        bnext.append(push_lo[idx])
                        blast.append(push_hi[idx])
                        n_buf += 1
                    if n_buf > buffer.peak_occupancy:
                        buffer.peak_occupancy = n_buf

                if observe is not None:
                    stage_breakdown = dict(zip(
                        ("load", "edge_fetch", "barrier_fetch", "verify",
                         "writeback"),
                        (t1, t2, t3, t4, t5),
                    ))
                    flush_now = stage_cycles.get("flush", 0)
                    observe("batch", iter_wall0, {
                        "entries": n_e,
                        "expansions": n_items,
                        "results": len(batch_results),
                        "new_paths": nv,
                        "cycles": clock._cycles - step0,
                        "pipeline_cycles": batch_cycles - overhead,
                        "overhead_cycles": overhead,
                        "flush_cycles": flush_now - flush_cycles0,
                        "flushes": stats.flushes - flushes0,
                        "dram_cycles": dram_cycles,
                        "buffer_paths": len(buffer),
                        "stage_cycles": stage_breakdown,
                    })

                self.has_work = (len(buffer._verts) > buffer._head
                                 or bool(dram_area._stack))
                spent = max_results is not None and stats.results >= max_results
                yield clock._cycles - step0
                if spent:
                    return
        finally:
            # --- fold the deferred accumulators into the models, once ----
            # Charges linear in run totals: the all-hit arrays' accesses
            # (one per entry, one word per expansion), the stage-1 load
            # and its write back (one of each per batch), the all-hit
            # vertex gathers (two per batch that admitted a path) and
            # one record write per pushed path.
            if e_all_hit:
                e_hits += n_expansions
                br_ops += n_entries
                br_words += n_expansions
            if b_all_hit:
                b_hits += n_expansions
                br_ops += n_entries
                br_words += n_expansions
            if v_all_hit:
                v_hits += 2 * n_intermediate
                br_ops += 2 * nv_batches
                br_words += 2 * n_intermediate
            moved = n_entries * rec_w
            bw_ops += n_batches
            bw_words += moved
            if buffer_in_bram:
                br_ops += n_batches
                br_words += moved
                bw_ops += n_pushed
                bw_words += n_pushed * rec_w
            else:
                dr_ops += n_batches
                dr_words += moved
                dw_ops += n_batches + n_pushed
                dw_words += 2 * n_entries + n_pushed * rec_w
                d_stall += (n_batches * rl1 + 2 * n_entries * wl1
                            + n_pushed * wl1)
            port = self.bram.port
            port.reads += br_ops
            port.read_words += br_words
            port.writes += bw_ops
            port.write_words += bw_words
            port = self.dram.port
            port.reads += dr_ops
            port.read_words += dr_words
            port.writes += dw_ops
            port.write_words += dw_words
            port.stall_cycles += d_stall
            self.vertex_arr.hits += v_hits
            self.vertex_arr.misses += v_miss
            self.edge_arr.hits += e_hits
            self.edge_arr.misses += e_miss
            self.bar_arr.hits += b_hits
            self.bar_arr.misses += b_miss
            stats.batches += n_batches
            stats.expansions += n_expansions
            stats.intermediate_paths += n_intermediate
            stats.rejected_target += rej_t
            stats.rejected_barrier += n_expansions - rej_t - n_survived
            stats.rejected_visited += n_survived - n_intermediate
            for tally, counts in (
                    (stats.expansions_by_parent_length, exp_list),
                    (stats.new_paths_by_parent_length, new_list)):
                for h, c in enumerate(counts):
                    c += tally.pop(h, 0)
                    if c:
                        tally[h] = c
            for name, acc in (("load", acc_t1), ("edge_fetch", acc_t2),
                              ("barrier_fetch", acc_t3), ("verify", acc_t4),
                              ("writeback", acc_t5), ("overhead", acc_ov)):
                if acc:
                    stage_cycles[name] = stage_cycles.get(name, 0) + acc


class _CostClock(Clock):
    """A clock that accumulates into one field of a :class:`_StageCost`."""

    __slots__ = ("_cost", "_domain")

    def __init__(self, cost: _StageCost, domain: str) -> None:
        super().__init__()
        self._cost = cost
        self._domain = domain

    def advance(self, cycles: int) -> None:
        super().advance(cycles)
        setattr(self._cost, self._domain,
                getattr(self._cost, self._domain) + cycles)
