"""The straight-line (per-entry) PEFP main loop, kept as a test oracle.

:class:`~repro.core.engine.PEFPEngine` vectorises the hot path with
precomputed pruning tables and closed-form cycle arithmetic; this module
preserves the original loop that charges every memory access through the
:class:`~repro.core.cache.CachedArray` /
:class:`~repro.fpga.memory.Bram` / :class:`~repro.fpga.memory.Dram`
methods one call at a time.  Both engines must agree *byte for byte* —
same paths in the same order, same cycle totals, same
:class:`~repro.core.engine.EngineStats`, same port traffic, same
:class:`~repro.fpga.profile.DeviceProfile` and device spans (both record
through :class:`~repro.fpga.profile.DeviceProfiler`) — which the
engine byte class of the oracle harness (``tests/oracle.py``) asserts
across cache, batching, budget and flush/refill configurations.

Do not optimise this file: its value is that every charge is an explicit
method call on the memory models, so discrepancies localise immediately.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.batching import batch_dfs, fifo_batch
from repro.core.cache import CachedArray
from repro.core.config import QueryBudget
from repro.core.engine import (
    EngineRunResult,
    EngineStats,
    PEFPEngine,
    _check_query,
    _CostClock,
    _StageCost,
)
from repro.core.paths import BufferArea, DramArea, PathRecord, record_words
from repro.core.verify import VerificationModule
from repro.fpga.device import Device
from repro.fpga.profile import DeviceProfiler
from repro.graph.csr import CSRGraph


class ReferencePEFPEngine(PEFPEngine):
    """Per-entry oracle implementation of the PEFP main loop."""

    name = "pefp-reference"

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
    ) -> EngineRunResult:
        """Enumerate all s-t k-paths; see :meth:`PEFPEngine.run`."""
        max_hops = _check_query(graph, source, target, max_hops, barrier)

        cfg = self.config
        device = Device(self.device_config)
        bram, dram, clock = device.bram, device.dram, device.clock
        stats = EngineStats()
        rec_w = record_words(max_hops)

        # --- static allocations ---------------------------------------
        bram.allocate(cfg.theta2 * (rec_w + 2), "processing_area")
        buffer_in_bram = cfg.use_cache
        if buffer_in_bram:
            bram.allocate(cfg.buffer_capacity_paths * rec_w, "buffer_area")
            buffer = BufferArea(cfg.buffer_capacity_paths)
        else:
            buffer = BufferArea(2**62)
            stats.buffer_domain = "dram"

        vertex_budget = min(len(graph.indptr), cfg.graph_cache_words)
        edge_budget = max(0, cfg.graph_cache_words - vertex_budget)
        vertex_arr = CachedArray(graph.indptr, bram, dram, vertex_budget,
                                 "vertex_arr", enabled=cfg.use_cache)
        edge_arr = CachedArray(graph.indices, bram, dram, edge_budget,
                               "edge_arr", enabled=cfg.use_cache)
        bar_arr = CachedArray(barrier, bram, dram, cfg.barrier_cache_words,
                              "bar_arr", enabled=cfg.use_cache)

        verifier = VerificationModule(self.pipeline, cfg.use_data_separation)
        batch_fn = batch_dfs if cfg.use_batch_dfs else fifo_batch
        dram_area = DramArea()
        sink = DeviceProfiler(self.device_config.frequency_hz, profile,
                              tracer)
        results: list[tuple[int, ...]] = []
        max_results = budget.max_results if budget is not None else None
        max_cycles = budget.max_cycles if budget is not None else None
        truncated = False

        # --- seed: the path consisting of just `source` ----------------
        setup_wall = time.perf_counter_ns()
        lo = vertex_arr.read(source)
        hi = vertex_arr.read(source + 1)
        if lo < hi:
            self._charge_push(bram, dram, rec_w, buffer_in_bram)
            buffer.push(PathRecord((source,), lo, hi))
        sink.record("kernel_setup", setup_wall, {"cycles": clock.cycles})

        # --- main loop (Algorithms 1 and 3) ----------------------------
        while True:
            if max_cycles is not None and clock.cycles >= max_cycles:
                truncated = not buffer.is_empty or not dram_area.is_empty
                break
            if buffer.is_empty:
                if buffer_in_bram and not dram_area.is_empty:
                    before = clock.cycles
                    refill_wall = time.perf_counter_ns()
                    block = dram_area.fetch_tail(cfg.theta1)
                    dram.burst_read(len(block) * rec_w)
                    bram.write(len(block) * rec_w)
                    for rec in block:
                        buffer.push(rec)
                    stats.refills += 1
                    stats.refilled_paths += len(block)
                    refill_cycles = clock.cycles - before
                    stats.add_stage_cycles("refill", refill_cycles)
                    sink.record("refill", refill_wall,
                                {"cycles": refill_cycles,
                                 "paths": len(block)})
                    continue
                else:
                    break
            if sink.observing:
                iter_cycles0 = clock.cycles
                iter_wall0 = time.perf_counter_ns()
                flush_cycles0 = stats.stage_cycles.get("flush", 0)
                flushes0 = stats.flushes
            entries = batch_fn(buffer, cfg.theta2)
            if not entries:
                break  # defensive: cannot happen with a non-empty buffer
            stats.batches += 1

            costs: list[_StageCost] = []

            # Stage 1: move the batch into the processing area.
            load = self._stage(bram, dram, costs)
            with bram.with_clock(load[0]), dram.with_clock(load[1]):
                moved = len(entries) * rec_w
                if buffer_in_bram:
                    bram.read(moved)
                else:
                    dram.burst_read(moved)
                    dram.random_write(2 * len(entries))
                bram.write(moved)

            # Stage 2: edge fetch — gather successor slices.
            fetch = self._stage(bram, dram, costs)
            successor_lists: list[np.ndarray] = []
            n_items = 0
            with bram.with_clock(fetch[0]), dram.with_clock(fetch[1]):
                for entry in entries:
                    plen = len(entry.vertices) - 1
                    stats.expansions_by_parent_length[plen] = (
                        stats.expansions_by_parent_length.get(plen, 0)
                        + entry.num_expansions
                    )
                    nbrs = edge_arr.read_range(entry.nbr_lo, entry.nbr_hi)
                    successor_lists.append(nbrs)
                    n_items += nbrs.size
            stats.expansions += n_items

            # Stage 3: barrier fetch — one gather per expansion.
            barf = self._stage(bram, dram, costs)
            barrier_lists: list[np.ndarray] = []
            with bram.with_clock(barf[0]), dram.with_clock(barf[1]):
                for nbrs in successor_lists:
                    barrier_lists.append(bar_arr.read_vector(nbrs))

            # Stage 4: verification (Algorithm 2).
            batch_results: list[tuple[int, ...]] = []
            valid_paths: list[tuple[int, ...]] = []
            for entry, nbrs, bars in zip(entries, successor_lists,
                                         barrier_lists):
                if nbrs.size == 0:
                    continue
                parent = entry.vertices
                hops = len(parent) - 1
                is_target = nbrs == target
                n_target = int(np.count_nonzero(is_target))
                stats.rejected_target += n_target
                if n_target and hops + 1 <= max_hops:
                    full = parent + (target,)
                    batch_results.extend([full] * n_target)
                rest = nbrs[~is_target]
                rest_bars = bars[~is_target]
                bar_ok = hops + 1 + rest_bars <= max_hops
                stats.rejected_barrier += int(
                    np.count_nonzero(~bar_ok)
                )
                candidates = rest[bar_ok]
                if candidates.size:
                    fresh = ~np.isin(candidates, parent)
                    stats.rejected_visited += int(
                        np.count_nonzero(~fresh)
                    )
                    for u in candidates[fresh]:
                        valid_paths.append(parent + (int(u),))
            verify_cost = _StageCost()
            verify_cost.compute = verifier.batch_cycles(n_items)
            costs.append(verify_cost)

            dropped_results = False
            if max_results is not None:
                room = max_results - stats.results
                if len(batch_results) > room:
                    batch_results = batch_results[:room]
                    dropped_results = True

            # Stage 5: write-back — results to DRAM, survivors to buffer.
            wb = self._stage(bram, dram, costs)
            new_records: list[PathRecord] = []
            with bram.with_clock(wb[0]), dram.with_clock(wb[1]):
                if batch_results:
                    if collect_paths:
                        results.extend(batch_results)
                    if on_result is not None:
                        for p in batch_results:
                            on_result(p)
                    stats.results += len(batch_results)
                    dram.burst_write(sum(len(p) + 1 for p in batch_results))
                if valid_paths:
                    tails = np.fromiter(
                        (p[-1] for p in valid_paths), dtype=np.int64,
                        count=len(valid_paths),
                    )
                    lows = vertex_arr.read_vector(tails)
                    highs = vertex_arr.read_vector(tails + 1)
                else:
                    lows = highs = ()
                for p, nlo, nhi in zip(valid_paths, lows, highs):
                    plen = len(p) - 2  # parent length
                    stats.new_paths_by_parent_length[plen] = (
                        stats.new_paths_by_parent_length.get(plen, 0) + 1
                    )
                    stats.intermediate_paths += 1
                    if nlo >= nhi:
                        continue  # dead end: no successors, drop now
                    self._charge_push(bram, dram, rec_w, buffer_in_bram)
                    new_records.append(PathRecord(p, int(nlo), int(nhi)))

            channels = self.device_config.dram_channels
            dram_bound = -(-sum(c.dram for c in costs) // channels)
            batch_cycles = max(
                max(c.total for c in costs),
                dram_bound,
            ) + cfg.batch_overhead_cycles
            clock.advance(batch_cycles)
            for name, cost in zip(
                ("load", "edge_fetch", "barrier_fetch", "verify",
                 "writeback"), costs,
            ):
                stats.add_stage_cycles(name, cost.total)
            stats.add_stage_cycles("overhead", cfg.batch_overhead_cycles)

            # Apply the buffered pushes; overflow stalls the pipeline.
            for rec in new_records:
                if buffer_in_bram and buffer.is_full:
                    before = clock.cycles
                    self._flush(buffer, rec_w, bram, dram, dram_area, stats)
                    stats.add_stage_cycles("flush", clock.cycles - before)
                buffer.push(rec)

            if sink.observing:
                sink.record("batch", iter_wall0, {
                    "entries": len(entries),
                    "expansions": n_items,
                    "results": len(batch_results),
                    "new_paths": len(valid_paths),
                    "cycles": clock.cycles - iter_cycles0,
                    "pipeline_cycles": (batch_cycles
                                        - cfg.batch_overhead_cycles),
                    "overhead_cycles": cfg.batch_overhead_cycles,
                    "flush_cycles": (stats.stage_cycles.get("flush", 0)
                                     - flush_cycles0),
                    "flushes": stats.flushes - flushes0,
                    "dram_cycles": sum(c.dram for c in costs),
                    "buffer_paths": len(buffer),
                    "stage_cycles": dict(zip(
                        ("load", "edge_fetch", "barrier_fetch", "verify",
                         "writeback"),
                        (c.total for c in costs),
                    )),
                })

            if max_results is not None and stats.results >= max_results:
                truncated = (
                    dropped_results
                    or not buffer.is_empty
                    or not dram_area.is_empty
                )
                break

        stats.peak_buffer_paths = buffer.peak_occupancy
        stats.peak_dram_paths = dram_area.peak_occupancy
        return EngineRunResult(
            paths=results,
            cycles=device.cycles,
            seconds=device.elapsed_seconds(),
            stats=stats,
            device=device,
            truncated=truncated,
            profile=sink.finish(device, stats,
                                (vertex_arr, edge_arr, bar_arr)),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _stage(bram, dram, costs: list[_StageCost]):
        """Create meters for one stage and register its cost record."""
        cost = _StageCost()
        costs.append(cost)
        bram_meter = _CostClock(cost, "bram")
        dram_meter = _CostClock(cost, "dram")
        return bram_meter, dram_meter

    @staticmethod
    def _charge_push(bram, dram, rec_w: int, buffer_in_bram: bool) -> None:
        if buffer_in_bram:
            bram.write(rec_w)
        else:
            dram.burst_write(rec_w)

    @staticmethod
    def _flush(
        buffer: BufferArea,
        rec_w: int,
        bram,
        dram,
        dram_area: DramArea,
        stats: EngineStats,
    ) -> None:
        """Spill the whole buffer area to the DRAM path area (Alg. 1 l.13)."""
        records = buffer.drain()
        words = len(records) * rec_w
        bram.read(words)
        dram.burst_write(words)
        dram_area.append_block(records)
        stats.flushes += 1
        stats.flushed_paths += len(records)
