"""Per-layer host-time attribution, measured from outside the program.

:func:`install` replaces each layer's public entry points with wrappers
that time every call.  Names are patched where they are looked up
(``repro.service.cache.pre_bfs``, ``repro.service.batch.observe_report``,
``repro.core.multi_pe.run_multi_pe``, ...), so nothing under ``src/``
changes.  Process-backend workers inherit the wrappers when the pool forks
and write their totals to a file when the pool shuts them down.

Spans are timed on the calling thread's CPU clock.  Engine threads of the
thread backend share one GIL, so a span's wall duration would also contain
the time its thread waited for the other engine; summed over threads that
counts the same second twice.  Thread CPU time sums to the process's busy
time instead.  A layer's *self* time is its spans' time minus the wrapped
calls nested inside them on the same thread.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter


class LayerTrace:
    """Per-layer call counts, self time and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: wall seconds of each ``ProcessEnginePool.run_batch`` call.
        self.round_walls: list[float] = []
        #: wall seconds of ``EngineServer.serve`` per server; a process
        #: worker builds one server per batch, so this is its busy time
        #: per batch, in batch order.
        self.server_busy: list[float] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, on_exit=None, skip=None):
        """``fn`` timed as one ``layer`` span per call.

        ``on_exit(trace, args, result, wall_s)`` runs under the trace lock
        after each call; ``skip(*args)`` true passes the call through
        untimed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0)
            wall0 = time.perf_counter_ns()
            cpu0 = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time_ns() - cpu0
                wall = time.perf_counter_ns() - wall0
                nested = stack.pop()
                if stack:
                    stack[-1] += cpu
                with self._lock:
                    self.self_ns[layer] += cpu - nested
                    self.calls[layer] += 1
            if on_exit is not None:
                with self._lock:
                    on_exit(self, args, result, wall / 1e9)
            return result

        return traced

    def merge(self, other: dict) -> None:
        """Add a worker's dumped totals (see :meth:`dump`)."""
        self.self_ns.update(other["self_ns"])
        self.calls.update(other["calls"])
        self.counts.update(other["counts"])

    def dump(self, path: str, cpu_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({
                "self_ns": self.self_ns, "calls": self.calls,
                "counts": self.counts, "server_busy": self.server_busy,
                "cpu_s": cpu_s,
            }, fh)


def _count_prebfs(trace, args, result, wall):
    trace.counts["preprocess.subgraph_edges"] += result.subgraph.num_edges


def _count_engine(trace, args, result, wall):
    stats = result.stats
    for key in ("expansions", "batches", "refills", "flushes", "results"):
        trace.counts[f"engine.{key}"] += getattr(stats, key)


def _count_multi_pe(trace, args, result, wall):
    stats = result.stats
    trace.counts["multi_pe.expansions"] += stats.expansions
    trace.counts["multi_pe.inter_pe_messages"] += stats.inter_pe_messages
    trace.counts["multi_pe.inter_pe_cycles"] += (
        stats.inter_pe_route_cycles + stats.inter_pe_arbiter_cycles
        + stats.inter_pe_stall_cycles + stats.inter_pe_barrier_cycles
    )


def _count_translate(trace, args, result, wall):
    trace.counts["host.paths_translated"] += len(result)


def _add_busy(trace, args, result, wall):
    # The process workers serve one batch per server, built in order; the
    # thread backend's concurrent servers land in one slot, unused.
    trace.server_busy[-1] += wall


def _add_round(trace, args, result, wall):
    trace.round_walls.append(wall)


def _multi_pe_run(engine, *args) -> bool:
    return engine.device_config.num_pes > 1


def install(trace: LayerTrace, dump_dir: str):
    """Wrap every layer entry point; returns an ``uninstall`` callable."""
    from repro.core import multi_pe
    from repro.core.engine import PEFPEngine
    from repro.host import system
    from repro.preprocess.prebfs import PreBFSResult
    from repro.service import batch, cache, parallel

    artifact_cache = cache.GraphArtifactCache
    targets = [
        (cache, "pre_bfs", "preprocess", _count_prebfs, None),
        (system, "pre_bfs", "preprocess", _count_prebfs, None),
        # The shared (k-1)-hop forward BFS of a source group.
        (cache, "k_hop_bfs", "preprocess.forward", None, None),
        (artifact_cache, "pre_bfs", "cache", None, None),
        (artifact_cache, "result", "cache", None, None),
        (artifact_cache, "forward_frontier", "cache", None, None),
        (artifact_cache, "reverse", "cache", None, None),
        # Multi-PE runs delegate to run_multi_pe: not an engine span.
        (PEFPEngine, "run", "engine", _count_engine, _multi_pe_run),
        (multi_pe, "run_multi_pe", "multi_pe", _count_multi_pe, None),
        (system.PathEnumerationSystem, "execute", "host.execute", None,
         None),
        (PreBFSResult, "translate_paths", "host.translate",
         _count_translate, None),
        (batch.BatchQueryService, "run", "batch", None, None),
        (batch.EngineServer, "serve", "serve", _add_busy, None),
        (batch, "observe_report", "metrics", None, None),
        (parallel.ProcessEnginePool, "run_batch", "parallel", _add_round,
         None),
    ]
    originals = []
    for owner, name, layer, on_exit, skip in targets:
        fn = owner.__dict__[name]
        originals.append((owner, name, fn))
        setattr(owner, name, trace.wrap(layer, fn, on_exit, skip))

    server_init = batch.EngineServer.__init__

    def init(server, *args, **kwargs):
        server_init(server, *args, **kwargs)
        trace.server_busy.append(0.0)

    worker_main = parallel._worker_main

    def traced_worker_main(*args):
        # Runs in the forked worker: start from empty totals and hand them
        # to the coordinator through a file when the pool shuts us down.
        trace.reset()
        cpu0 = time.process_time()
        try:
            worker_main(*args)
        finally:
            trace.dump(os.path.join(dump_dir, f"worker-{os.getpid()}.json"),
                       time.process_time() - cpu0)

    originals += [(batch.EngineServer, "__init__", server_init),
                  (parallel, "_worker_main", worker_main)]
    batch.EngineServer.__init__ = init
    parallel._worker_main = traced_worker_main

    def uninstall() -> None:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)

    return uninstall


def load_worker_dumps(dump_dir: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(dump_dir, name)) as fh:
                dumps.append(json.load(fh))
    return dumps
