"""Multi-PE execution of the PEFP main loop: N pipelines in lockstep.

:class:`~repro.core.engine.PEFPEngine.run` dispatches here when
``DeviceConfig.num_pes > 1`` (and the differential suite calls
:func:`run_multi_pe` directly with ``num_pes == 1`` to pin the base
case).  Each processing element owns a partition of the vertex set
(:mod:`repro.fpga.partition`) and is one vectorised Batch-DFS kernel
(:class:`repro.core.engine._Kernel`, the same kernel a single-PE run
uses) on its own :class:`~repro.fpga.device.Device` (private BRAM
banks, DRAM channel, clock).  The kernel expands the frontier records
whose tail vertex its PE owns; a survivor whose tail another PE owns
goes to the kernel's outbox and crosses the interconnect
(:mod:`repro.fpga.interconnect`) instead of entering the local buffer.
Only the interconnect and the barrier are specific to this module.

Superstep model (BSP lockstep)
------------------------------
Each iteration of the global loop is one *superstep*:

1. every PE with work (its kernel's ``has_work`` flag) resumes its
   kernel for one step — push the records routed to it into the buffer
   area, then run one refill or one processing batch on its local
   clock — and the kernel suspends, yielding the step's cycles;
2. remote records route through per-destination FIFOs behind a
   round-robin arbiter; destinations drain in parallel, so the routing
   charge is the max over destination FIFOs.  Each outbox queue is
   handed over whole (a lone source's queue becomes the destination's
   inbox as it stands) and its kernel gets a fresh one;
3. a barrier sync joins the PEs.

The global clock advances by ``max(PE step deltas) + routing + barrier``
— the slowest PE holds the superstep, the rest overlap under it.  The
run's device event sink (:class:`~repro.fpga.profile.DeviceProfiler`)
records the *critical* (slowest, ties to the lowest index) PE's batch or
refill event plus one ``inter_pe`` event per superstep boundary that
cost cycles, so ``DeviceProfile.accounted_cycles == total_cycles`` holds
exactly, with the same integer-tiling guarantees as the single-PE
engine.  The per-PE ``pe_step`` spans are a timeline view only: they
are emitted here, not through the sink.

Why N=1 is byte-identical to the single-PE engine
-------------------------------------------------
Each step is one batch (or refill) of the vectorised kernel's one
batch loop, a generator the single-PE engine drains.  Between steps its
state lives in the suspended generator, and it folds its accumulators
once per run, when the driver closes it; everything it folds is a plain
sum.  With one PE every vertex is local, nothing reaches the outbox,
and routing and barrier charges are zero, so the superstep loop runs
the single-PE kernel's loop one resume at a time: same paths in the
same order, same cycles, stats, port traffic and profile, by
construction.  ``docs/TIMING_MODEL.md`` spells the argument out.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import QueryBudget
from repro.core.engine import (
    EngineRunResult,
    EngineStats,
    _check_query,
    _finish_run,
    _Kernel,
    _RunTables,
)
from repro.fpga.device import MultiPEDevice
from repro.fpga.interconnect import RoundRobinArbiter, barrier_sync_cycles
from repro.fpga.partition import VertexPartitioner
from repro.fpga.profile import DeviceProfiler
from repro.graph.csr import CSRGraph


def run_multi_pe(
    engine,
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
    """Enumerate all s-t k-paths across ``num_pes`` lockstep pipelines.

    Same contract as :meth:`PEFPEngine.run`; the path *set* is identical
    for every PE count (enumeration order may differ for N > 1 because
    partitioning reorders the shared frontier).
    """
    max_hops = _check_query(graph, source, target, max_hops, barrier)
    dcfg = engine.device_config
    num_pes = dcfg.num_pes
    frequency = dcfg.frequency_hz
    owners = VertexPartitioner(graph.num_vertices, num_pes,
                               dcfg.pe_partition).owners.tolist()
    arbiter = RoundRobinArbiter(dcfg)
    barrier_cost = barrier_sync_cycles(dcfg)
    max_cycles = budget.max_cycles if budget is not None else None
    max_results = budget.max_results if budget is not None else None

    # One set of run tables, stats and results for all PEs; the cycle
    # budget is checked here against the global clock.
    tables = _RunTables(engine, graph, target, max_hops, barrier, vertex_ids)
    stats = EngineStats()
    results: list[tuple[int, ...]] = []
    pes = [
        _Kernel(engine, graph, barrier, tables, stats, results,
                on_result=on_result, collect_paths=collect_paths,
                max_results=max_results, index=i, owners=owners)
        for i in range(num_pes)
    ]
    sink = DeviceProfiler(frequency, profile, tracer)
    #: this superstep's kernel events, in stepping order.
    events: list[tuple] = []
    if sink.observing:
        for pe in pes:
            pe.observe = lambda *event: events.append(event)

    # --- seed: only the owner of `source` starts with work ------------
    global_cycles = pes[owners[source]].seed(source, sink.record)

    # --- superstep loop ------------------------------------------------
    steps = [pe.steps() for pe in pes]
    superstep = 0
    inter_messages = 0
    inter_route = inter_arbiter = inter_stall = inter_barrier = 0
    while max_cycles is None or global_cycles < max_cycles:
        # Every PE with work takes one step; the slowest holds the
        # superstep (ties resolve to the lowest PE index).
        events.clear()
        stepped: list[tuple[_Kernel, int]] = []
        crit = -1
        crit_delta = -1
        for pe, step in zip(pes, steps):
            if not pe.has_work:
                continue
            # the kernel yields its step's delta; a step that spends the
            # result budget still yields, and the loop stops after this
            # superstep
            delta = next(step)
            if delta > crit_delta:
                crit, crit_delta = len(stepped), delta
            stepped.append((pe, delta))
        if not stepped:
            break

        # Route foreign records through the per-destination FIFOs.  Only
        # the PEs that stepped filled an outbox; each queue collected is
        # handed over (the arbiter may deliver a lone queue as the inbox)
        # and its kernel fills a fresh one.  Destinations drain in
        # parallel: the superstep pays the slowest FIFO's charge (ties to
        # the lowest destination index).
        fifos: dict[int, dict[int, list]] = {}
        for pe, _ in stepped:
            outbox = pe.outbox
            for dest, queue in enumerate(outbox):
                if queue:
                    fifos.setdefault(dest, {})[pe.index] = queue
                    outbox[dest] = []
        route_total = 0
        crit_charge = None
        step_messages = 0
        for dest in sorted(fifos):
            delivered, charge = arbiter.merge(dest, fifos[dest])
            # Every inbox is empty at the boundary: a PE with records
            # waiting steps, and a step pushes its inbox first.
            receiver = pes[dest]
            receiver.inbox = delivered
            receiver.has_work = True
            step_messages += charge.messages
            if charge.total > route_total:
                route_total = charge.total
                crit_charge = charge
        inter_cycles = route_total + barrier_cost

        global_cycles += crit_delta + inter_cycles
        inter_messages += step_messages
        route = arbitration = stall = 0
        if crit_charge is not None:
            route = crit_charge.hop_cycles + crit_charge.stream_cycles
            arbitration = crit_charge.arbiter_cycles
            stall = crit_charge.stall_cycles
        inter_route += route
        inter_arbiter += arbitration
        inter_stall += stall
        inter_barrier += barrier_cost

        # Profile/trace: the critical PE's event is the superstep's
        # device event; interconnect + barrier charges get their own.
        if events:
            sink.record(*events[crit])
            if inter_cycles:
                sink.record("inter_pe", time.perf_counter_ns(), {
                    "superstep": superstep, "cycles": inter_cycles,
                    "messages": step_messages, "route_cycles": route,
                    "arbiter_cycles": arbitration, "stall_cycles": stall,
                    "barrier_cycles": barrier_cost,
                })
            if tracer and num_pes > 1:
                # Shadow spans: every stepped PE on its own track.
                # Attribution folds only the critical batch / refill /
                # inter_pe spans above; these are for the timeline view.
                for pos, ((pe, delta), (kind, wall0, _)) in enumerate(
                        zip(stepped, events)):
                    tracer.complete(
                        "pe_step", wall0,
                        modelled_seconds=delta / frequency,
                        track=f"pe{pe.index}",
                        pe=pe.index, kind=kind, cycles=delta,
                        critical=(pos == crit),
                    )

        superstep += 1
        if max_results is not None and stats.results >= max_results:
            break
    # Suspended kernels fold their accumulators as they close.
    for step in steps:
        step.close()

    stats.inter_pe_messages = inter_messages
    stats.inter_pe_route_cycles = inter_route
    stats.inter_pe_arbiter_cycles = inter_arbiter
    stats.inter_pe_stall_cycles = inter_stall
    stats.inter_pe_barrier_cycles = inter_barrier
    stats.add_stage_cycles(
        "inter_pe", inter_route + inter_arbiter + inter_stall + inter_barrier)

    if num_pes == 1:
        device = pes[0].device
    else:
        device = MultiPEDevice(dcfg, [pe.device for pe in pes])
        device.clock.advance(global_cycles)
    return _finish_run(pes, device, stats, results, sink)
