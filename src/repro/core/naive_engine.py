"""The strawman FPGA design PEFP exists to beat: level-synchronous BFS
with all intermediate paths resident.

Section I (Challenge 3): "we have to frequently transfer intermediate
results between BRAM and FPGA's external memory (DRAM) when using
BFS-based paradigm, which significantly affects the overall performance".
This engine implements exactly that paradigm: each BFS level is expanded
wholesale; the level's survivors live in BRAM while they fit and spill
entirely to DRAM when they don't.  It shares the verification pipeline
and the caches with PEFP, so the *only* difference is the absence of
buffer-and-batch + Batch-DFS — making it the cleanest possible contrast
for what Section VI-B buys.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import CachedArray
from repro.core.config import PEFPConfig
from repro.core.engine import (
    EngineRunResult,
    EngineStats,
    _CostClock,
    _StageCost,
    _check_query,
)
from repro.core.paths import record_words
from repro.core.verify import VerificationModule
from repro.fpga.device import Device, DeviceConfig
from repro.fpga.pipeline import PipelineModel
from repro.graph.csr import CSRGraph


class LevelBFSEngine:
    """Level-synchronous device-side enumerator (no buffer-and-batch).

    Functionally identical to PEFP (same answers); temporally it pays the
    full spill cost whenever a level exceeds the on-chip level area.
    """

    name = "level-bfs"

    def __init__(
        self,
        config: PEFPConfig | None = None,
        device_config: DeviceConfig | None = None,
        pipeline: PipelineModel | None = None,
    ) -> None:
        self.config = config or PEFPConfig()
        self.device_config = device_config or DeviceConfig()
        self.pipeline = pipeline or PipelineModel()

    def run(
        self,
        graph: CSRGraph,
        source: int,
        target: int,
        max_hops: int,
        barrier: np.ndarray,
    ) -> EngineRunResult:
        max_hops = _check_query(graph, source, target, max_hops, barrier)

        cfg = self.config
        device = Device(self.device_config)
        bram, dram, clock = device.bram, device.dram, device.clock
        stats = EngineStats()
        rec_w = record_words(max_hops)

        # The whole BRAM path budget is one flat level area.
        level_capacity = cfg.buffer_capacity_paths
        bram.allocate(level_capacity * rec_w, "level_area")
        vertex_budget = min(len(graph.indptr), cfg.graph_cache_words)
        edge_budget = max(0, cfg.graph_cache_words - vertex_budget)
        vertex_arr = CachedArray(graph.indptr, bram, dram, vertex_budget,
                                 "vertex_arr", enabled=cfg.use_cache)
        edge_arr = CachedArray(graph.indices, bram, dram, edge_budget,
                               "edge_arr", enabled=cfg.use_cache)
        bar_arr = CachedArray(barrier, bram, dram, cfg.barrier_cache_words,
                              "bar_arr", enabled=cfg.use_cache)
        verifier = VerificationModule(self.pipeline,
                                      cfg.use_data_separation)

        results: list[tuple[int, ...]] = []
        level: list[tuple[int, ...]] = [(source,)]
        stats.peak_buffer_paths = 1

        while level:
            # A level larger than the on-chip area lives in DRAM and is
            # streamed in and out once per pass: the paradigm's cost.
            overflow = max(0, len(level) - level_capacity)
            if overflow:
                stats.flushes += 1
                stats.flushed_paths += overflow
                dram.burst_write(overflow * rec_w)
                dram.burst_read(overflow * rec_w)

            costs: list[_StageCost] = []
            next_level: list[tuple[int, ...]] = []
            fetch = _StageCost()
            items = 0
            with bram.with_clock(_CostClock(fetch, "bram")), \
                    dram.with_clock(_CostClock(fetch, "dram")):
                expansions: list[tuple[tuple[int, ...], np.ndarray,
                                       np.ndarray]] = []
                for path in level:
                    tail = path[-1]
                    lo = vertex_arr.read(tail)
                    hi = vertex_arr.read(tail + 1)
                    nbrs = edge_arr.read_range(lo, hi)
                    bars = bar_arr.read_vector(nbrs)
                    expansions.append((path, nbrs, bars))
                    items += nbrs.size
            costs.append(fetch)
            stats.expansions += items

            for path, nbrs, bars in expansions:
                hops = len(path) - 1
                plen = hops
                stats.expansions_by_parent_length[plen] = (
                    stats.expansions_by_parent_length.get(plen, 0)
                    + int(nbrs.size)
                )
                is_target = nbrs == target
                if is_target.any() and hops + 1 <= max_hops:
                    results.extend(
                        [path + (target,)]
                        * int(np.count_nonzero(is_target))
                    )
                    stats.results += int(np.count_nonzero(is_target))
                rest = nbrs[~is_target]
                rest_bars = bars[~is_target]
                ok = hops + 1 + rest_bars <= max_hops
                stats.rejected_barrier += int(np.count_nonzero(~ok))
                for u in rest[ok]:
                    u = int(u)
                    if u in path:
                        stats.rejected_visited += 1
                        continue
                    next_level.append(path + (u,))
                    stats.intermediate_paths += 1

            verify_cost = _StageCost()
            verify_cost.compute = verifier.batch_cycles(items)
            costs.append(verify_cost)
            writeback = _StageCost()
            writeback.bram = -(-len(next_level) * rec_w
                               // device.bram.port_words)
            costs.append(writeback)

            channels = self.device_config.dram_channels
            dram_bound = -(-sum(c.dram for c in costs) // channels)
            clock.advance(
                max(max(c.total for c in costs), dram_bound)
                + cfg.batch_overhead_cycles
            )
            stats.batches += 1
            stats.peak_buffer_paths = max(stats.peak_buffer_paths,
                                          len(next_level))
            level = next_level

        return EngineRunResult(
            paths=results,
            cycles=device.cycles,
            seconds=device.elapsed_seconds(),
            stats=stats,
            device=device,
        )
