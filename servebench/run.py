#!/usr/bin/env python3
"""End-to-end serving benchmark of the PEFP reproduction.

Usage (from the repository root)::

    python3 servebench/run.py --workload rt-dense --seed 1 --seconds 8 --trace 0

One client sends ``BatchQueryService.run`` requests in a closed loop (the
next request leaves when the previous one returned) for ``--seconds`` of
service time, then every answer is checked against an independent CPU
enumerator.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer table of a traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``servebench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import multiprocessing
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: set-up is timed in fresh processes, at least ``SETUP_PROBES`` of them
#: and more while they take under ``SETUP_PROBE_S`` in all (a set-up of a
#: small graph is mostly imports, whose time varies most from process to
#: process); ``setup_s`` is their median.
SETUP_PROBES = 5
SETUP_PROBE_S = 3.0
#: processes the answer oracle runs in (never more than the 2 cores the
#: benchmark is sized for).
ORACLE_PROCESSES = 2
#: requests generated ahead of time and then sent back to back.
PREFETCH = 16
#: a run that cannot finish its modelled window in this long fails.
HARD_LIMIT_S = 120.0
#: ``wall_qps`` is the median throughput over consecutive requests grouped
#: into chunks of at least this much service time: the host's speed comes
#: in bursts, and a median over chunks does not follow a short burst.
CHUNK_S = 0.5
#: host times are reported in reference-host seconds.  A shared virtual
#: machine can change speed by 2x over minutes, for every program alike,
#: so before each group of requests (and after each set-up)
#: the client times :func:`host_probe`, a fixed loop that runs none of the
#: program's code, and scales the host times it measures next by
#: ``REFERENCE_PROBE_S / probe time``.  A slower program still reads slower;
#: a slower host does not.
REFERENCE_PROBE_S = 0.003

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_qps": "q/s",
    "wall_latency_p50_ms": "ms",
    "wall_latency_tail_ms": "ms",
    "modelled_qps": "q/s",
    "modelled_latency_p50_ms": "ms",
    "modelled_latency_tail_ms": "ms",
    "device_cycles_p50": "cyc",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A run that must fail loudly instead of reporting numbers."""


# -- statistics --------------------------------------------------------------

def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than 11 samples
    no percentile qualifies and the maximum is returned as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def chunked_rate(walls, sizes) -> float:
    """Median of queries per second over chunks of ``CHUNK_S`` or more."""
    rates, time_, queries = [], 0.0, 0
    for wall, size in zip(walls, sizes):
        time_ += wall
        queries += size
        if time_ >= CHUNK_S:
            rates.append(queries / time_)
            time_, queries = 0.0, 0
    return statistics.median(rates) if rates else queries / time_


def host_probe() -> float:
    """Seconds a fixed pure-Python and NumPy loop takes now (best of 3)."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(20000):
            acc += i * i
            table[i & 1023] = acc
        np.cumsum(np.arange(20000) ** 2)
        best = min(best, time.perf_counter() - t0)
    return best


def host_scale() -> float:
    """Factor from this host's seconds, now, to reference-host seconds."""
    return REFERENCE_PROBE_S / host_probe()


def answer_digest(paths) -> tuple[int, int]:
    """Order-free fingerprint of a path list; duplicates change the count."""
    return len(paths), hash(frozenset(paths))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live multiprocessing children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kb += int(line.split()[1])
    return kb / 1024


# -- set-up ------------------------------------------------------------------

def setup_probe(workload_name: str) -> None:
    """Time one set-up in this fresh process and print it as JSON."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    from repro.datasets.registry import load_dataset
    import repro.service.batch  # noqa: F401  (service import is set-up)

    workload = WORKLOADS[workload_name]
    t1 = time.perf_counter()
    graph = load_dataset(workload.dataset)
    t2 = time.perf_counter()
    service = workload.make_service(graph)
    service.cache.warm(graph)
    t3 = time.perf_counter()
    service.run([])  # starts the process pool on the process backend
    t4 = time.perf_counter()
    service.close()
    scale = host_scale()
    print(json.dumps({
        "setup_s": (t4 - t0) * scale,
        "graph_build_s": (t2 - t1) * scale,
        "pool_start_s":
            (t4 - t3) * scale if workload.backend == "process" else 0.0,
    }))


def measure_setup(workload_name: str) -> dict[str, float]:
    """Median of each set-up part over fresh processes."""
    probes = []
    started = time.perf_counter()
    while (len(probes) < SETUP_PROBES
           or time.perf_counter() - started < SETUP_PROBE_S):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(p[key] for p in probes)
            for key in probes[0]}


def start_service(workload, graph, warmup):
    """A fresh service with its pool started and one warm-up request
    served, so lazy imports and worker start-up are not timed."""
    service = workload.make_service(graph)
    service.run([])
    service.run(warmup)
    return service


# -- the closed loop -----------------------------------------------------------

class Served:
    """What the client keeps of the requests it sent."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        #: per request: the host's speed factor (see ``REFERENCE_PROBE_S``).
        self.scales: list[float] = []
        self.service_s = 0.0
        #: coordinator CPU seconds spent inside ``service.run``.
        self.cpu_s = 0.0
        #: per request: (makespan seconds, per-query latencies, cycles).
        self.modelled: list[tuple[float, list[float], int]] = []
        #: per query: (query, answer digest, truncated).
        self.answers: list = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.cache_stats: dict[str, int] = {}
        self.result_bytes = 0

    @property
    def queries(self) -> int:
        return len(self.answers)

    @property
    def reference_walls(self) -> list[float]:
        """Request latencies in reference-host seconds."""
        return [w * s for w, s in zip(self.walls, self.scales)]


def serve(service, requests, seconds: float, window: int,
          on_report=None, result_bytes: bool = False,
          profile: bool = False) -> Served:
    """Send ``requests`` one after another until ``seconds`` of service time
    have passed and at least ``window`` requests were answered.

    Requests are taken ``PREFETCH`` at a time, so that generating them and
    probing the host's speed never run between two requests of a group.
    """
    served = Served()
    started = time.perf_counter()
    requests = iter(requests)
    while served.service_s < seconds or len(served.walls) < window:
        group = list(itertools.islice(requests, PREFETCH))
        if not group:
            break
        scale = host_scale()
        for batch in group:
            if served.service_s >= seconds and len(served.walls) >= window:
                break
            if time.perf_counter() - started > HARD_LIMIT_S:
                raise BenchError(
                    f"only {len(served.walls)} of the {window} requests of "
                    f"the modelled window finished in {HARD_LIMIT_S:.0f} s"
                )
            served.attempted += len(batch)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                report = service.run(batch, profile=profile)
            except Exception:  # counted, and the loop goes on
                served.failed += len(batch)
                traceback.print_exc()
                continue
            wall = time.perf_counter() - t0
            served.cpu_s += time.process_time() - cpu0
            served.walls.append(wall)
            served.scales.append(scale)
            served.service_s += wall
            served.modelled.append((
                report.makespan_seconds,
                [r.total_seconds for r in report.reports],
                sum(r.fpga_cycles for r in report.reports),
            ))
            for r in report.reports:
                served.answers.append(
                    (r.query, answer_digest(r.paths), r.truncated)
                )
            if len(served.walls) == window:
                served.peak_rss_mb = peak_rss_mb()
            served.cache_stats = report.cache_stats
            if result_bytes:
                served.result_bytes += sum(
                    len(pickle.dumps(r)) for r in report.reports
                )
            if on_report is not None:
                on_report(report)
    return served


def modelled_window(served: Served, window: int) -> dict:
    """The modelled clock over the first ``window`` requests."""
    head = served.modelled[:window]
    return {
        "makespans": [m for m, _, _ in head],
        "latencies": [lat for _, lats, _ in head for lat in lats],
        "cycles": [c for _, _, c in head],
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def guard_modelled(workload_name: str, seed: int, window: dict) -> None:
    """The modelled clock is deterministic: runs of the same code and seed
    must agree exactly.  The first run records it; later ones compare."""
    record = (ROOT / ".bench_build" / "servebench"
              / f"{workload_name}-seed{seed}-{source_hash()}.json")
    if record.exists():
        if json.loads(record.read_text()) != window:
            raise BenchError(
                f"modelled clock differs from an earlier run of the same "
                f"code and seed (recorded in {record.relative_to(ROOT)}): "
                f"the simulator is not deterministic"
            )
        return
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(window))
    tmp.replace(record)


# -- the answer oracle -----------------------------------------------------------

def oracle_worker(workload_name: str) -> None:
    """Answer the queries read from stdin (JSON ``[s, t, k]`` lists) with
    the workload's oracle; print their digests as JSON."""
    from workloads import WORKLOADS

    from repro.baselines import BCDFS, Join
    from repro.datasets.registry import load_dataset
    from repro.host.query import Query
    from repro.host.system import PathEnumerationSystem

    workload = WORKLOADS[workload_name]
    graph = load_dataset(workload.dataset)
    enumerator = Join() if workload.oracle == "join" else BCDFS()
    single_pe = (PathEnumerationSystem.for_variant(graph, "pefp")
                 if workload.num_pes > 1 else None)
    answers = []
    for s, t, k in json.load(sys.stdin):
        query = Query(s, t, k)
        expected = [answer_digest(enumerator.enumerate_paths(graph,
                                                             query).paths)]
        if single_pe is not None:
            expected.append(answer_digest(single_pe.execute(query).paths))
        answers.append(expected)
    json.dump(answers, sys.stdout)


def check_answers(workload, answers) -> int:
    """Queries whose answer is truncated (no budget is set) or differs from
    the oracle, which is an independent CPU enumerator and, for multi-PE,
    also the single-PE system.  Runs ``ORACLE_PROCESSES`` fresh processes."""
    distinct = sorted({q for q, _, _ in answers},
                      key=lambda q: (q.source, q.target, q.max_hops))
    shares = [distinct[i::ORACLE_PROCESSES] for i in range(ORACLE_PROCESSES)]
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--oracle",
             "--workload", workload.name],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        for _ in shares
    ]
    try:
        for proc, share in zip(procs, shares):
            proc.stdin.write(json.dumps(
                [[q.source, q.target, q.max_hops] for q in share]))
            proc.stdin.close()
        results = [json.load(proc.stdout) for proc in procs]
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.wait()
    if any(proc.returncode for proc in procs):
        raise BenchError("an oracle process failed")
    expected = {
        query: [tuple(d) for d in digests]
        for share, result in zip(shares, results)
        for query, digests in zip(share, result)
    }
    return sum(
        1 for query, digest, truncated in answers
        if truncated or any(e != digest for e in expected[query])
    )


# -- end-to-end run ------------------------------------------------------------------

def run_end_to_end(workload, graph, seed: int, seconds: float,
                   setup: dict) -> tuple[Served, int, dict]:
    from workloads import MEASURED_STREAM, WARMUP_STREAM, request_stream

    warmup = next(request_stream(workload, graph, seed, WARMUP_STREAM))
    service = start_service(workload, graph, warmup)
    try:
        served = serve(service, request_stream(workload, graph, seed,
                                               MEASURED_STREAM),
                       seconds, workload.modelled_batches)
    finally:
        service.close()
    failed = served.failed + check_answers(workload, served.answers)
    window = modelled_window(served, workload.modelled_batches)
    guard_modelled(workload.name, seed, window)

    walls = served.reference_walls
    sizes = [len(lats) for _, lats, _ in served.modelled]
    wall_tail, wall_pct, wall_n = tail(walls)
    lat_tail, lat_pct, lat_n = tail(window["makespans"])
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_qps": chunked_rate(walls, sizes),
        "wall_latency_p50_ms": statistics.median(walls) * 1e3,
        "wall_latency_tail_ms": wall_tail * 1e3,
        "modelled_qps": len(window["latencies"]) / sum(window["makespans"]),
        "modelled_latency_p50_ms":
            statistics.median(window["makespans"]) * 1e3,
        "modelled_latency_tail_ms": lat_tail * 1e3,
        "device_cycles_p50": statistics.median(window["cycles"]),
        "peak_rss_mb": served.peak_rss_mb,
    }
    probe_ms = REFERENCE_PROBE_S / statistics.median(served.scales) * 1e3
    notes = [
        f"requests {len(served.walls)} ({served.queries} queries) in "
        f"{served.service_s:.2f} s of service time; modelled window "
        f"{workload.modelled_batches} requests "
        f"({len(window['latencies'])} queries)",
        f"host probe {probe_ms:.2f} ms "
        f"(reference {REFERENCE_PROBE_S * 1e3:g} ms); unscaled wall_qps "
        f"{chunked_rate(served.walls, sizes):.6g}",
        f"wall_latency_tail_ms is p{wall_pct:.1f} of {wall_n} requests; "
        f"modelled_latency_tail_ms is p{lat_pct:.1f} of {lat_n} requests",
        f"failed_fraction {failed / max(served.attempted, 1):.6g} "
        f"({failed} of {served.attempted} queries)",
    ]
    return served, failed, {"metrics": metrics, "notes": notes}


# -- traced run ------------------------------------------------------------------

def _rate(stats: dict, kind: str) -> float:
    hits, misses = stats.get(f"{kind}_hits", 0), stats.get(f"{kind}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


class ReplayTotals:
    """Modelled per-layer counts of the profiled replay of the window."""

    def __init__(self) -> None:
        self.fpga = {"setup": 0, "stall": 0, "flush": 0, "refill": 0,
                     "buffer_peak": 0, "dram_peak": 0}
        self.array_counters: dict[str, list[int]] = {}
        self.engine_device: list[float] = []
        self.engine_busy: list[float] = []
        self.device_makespan = 0.0
        self.queue_wait_s = 0.0

    def __call__(self, report) -> None:
        for prof in report.device_profiles:
            self.fpga["setup"] += prof.setup_cycles
            self.fpga["stall"] += prof.stall_cycles
            self.fpga["flush"] += prof.flush_cycles
            self.fpga["refill"] += prof.refill_cycles
            self.fpga["buffer_peak"] = max(self.fpga["buffer_peak"],
                                           prof.buffer_peak_paths)
            self.fpga["dram_peak"] = max(self.fpga["dram_peak"],
                                         prof.dram_peak_paths)
            for label, c in prof.cache_counters.items():
                acc = self.array_counters.setdefault(label, [0, 0])
                acc[0] += c["hits"]
                acc[1] += c["hits"] + c["misses"]
        if not self.engine_device:
            self.engine_device = [0.0] * report.num_engines
            self.engine_busy = [0.0] * report.num_engines
        for e in range(report.num_engines):
            self.engine_device[e] += report.engine_device_seconds[e]
            self.engine_busy[e] += report.engine_busy_seconds[e]
        self.device_makespan += report.device_makespan_seconds
        self.queue_wait_s += sum(
            wf.queue_wait_seconds for wf in report.attribution().waterfalls
        )

    def hit_rate(self, label: str) -> float:
        hits, total = self.array_counters.get(label, (0, 0))
        return hits / total if total else 0.0


def run_traced(workload, graph, seed: int, seconds: float,
               setup: dict) -> tuple[Served, int, dict]:
    """Untraced pass A, traced pass B over the same requests, then an
    untimed ``profile=True`` replay of the modelled window for the
    device-model counts."""
    import layers
    from workloads import MEASURED_STREAM, WARMUP_STREAM, request_stream

    window_n = workload.modelled_batches
    warmup = next(request_stream(workload, graph, seed, WARMUP_STREAM))
    stream = request_stream(workload, graph, seed, MEASURED_STREAM)
    sent: list = []

    def recorded():
        for batch in stream:
            sent.append(batch)
            yield batch

    service = start_service(workload, graph, warmup)
    try:
        untraced = serve(service, recorded(), seconds / 2, window_n)
    finally:
        service.close()
    requests = sent[:len(untraced.walls)]

    trace = layers.LayerTrace()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as dump_dir:
        uninstall = layers.install(trace, dump_dir)
        try:
            service = workload.make_service(graph)
            service.run([])
            trace.reset()  # the traced span starts with the warm-up
            cpu0 = time.process_time()
            service.run(warmup)
            warm_cpu = time.process_time() - cpu0
            try:
                traced = serve(service, requests, 0.0, len(requests),
                               result_bytes=workload.backend == "process")
            finally:
                service.close()
        finally:
            uninstall()
        workers = layers.load_worker_dumps(dump_dir)

    replay = ReplayTotals()
    service = start_service(workload, graph, warmup)
    try:
        profiled = serve(service, requests, 0.0, window_n,
                         on_report=replay, profile=True)
    finally:
        service.close()

    a_window = modelled_window(untraced, window_n)
    if (modelled_window(traced, window_n) != a_window
            or modelled_window(profiled, window_n)["cycles"]
            != a_window["cycles"]):
        raise BenchError("the traced or profiled run moved the modelled "
                         "clock: tracing must not change the simulation")
    guard_modelled(workload.name, seed, a_window)
    failed = untraced.failed + traced.failed + sum(
        1 for a, b in zip(untraced.answers, traced.answers) if a != b
    )
    failed += check_answers(workload, untraced.answers)

    for dump in workers:
        trace.merge(dump)
    self_s = {layer: ns / 1e9 for layer, ns in trace.self_ns.items()}
    total_cpu = traced.cpu_s + warm_cpu + sum(d["cpu_s"] for d in workers)

    def share(seconds_):
        return seconds_ / total_cpu if total_cpu else 0.0

    calls, counts = trace.calls, trace.counts
    preprocess_s = self_s.get("preprocess", 0.0) + self_s.get(
        "preprocess.forward", 0.0)
    engine_s = self_s.get("engine", 0.0)
    multi_pe_s = self_s.get("multi_pe", 0.0)
    batch_s = self_s.get("batch", 0.0) + self_s.get("serve", 0.0)
    expansions = counts["engine.expansions"]
    mpe_expansions = counts["multi_pe.expansions"]
    stats = traced.cache_stats

    # Worker busy time per batch; slot 0 is the pool-start run([]) batch.
    busy = [d["server_busy"][1:] for d in workers]
    rounds = trace.round_walls
    critical = [max((b[i] for b in busy if i < len(b)), default=0.0)
                for i in range(len(rounds))]
    round_wall = sum(rounds)
    worker_busy = sum(sum(b) for b in busy)

    metrics = {
        "datasets.graph_build_s": setup["graph_build_s"],
        "parallel.pool_start_s": setup["pool_start_s"],
        "preprocess.calls": calls["preprocess"],
        "preprocess.wall_s": preprocess_s,
        "preprocess.wall_share": share(preprocess_s),
        "preprocess.subgraph_edges_total":
            counts["preprocess.subgraph_edges"],
        "cache.self_wall_s": self_s.get("cache", 0.0),
        "cache.prebfs_hit_rate": _rate(stats, "prebfs"),
        "cache.forward_hit_rate": _rate(stats, "forward"),
        "cache.result_hit_rate": _rate(stats, "result"),
        "cache.entries": sum(stats.get(f"{k}_entries", 0)
                             for k in ("prebfs", "forward", "result")),
        "engine.calls": calls["engine"],
        "engine.self_wall_s": engine_s,
        "engine.wall_share": share(engine_s),
        "engine.expansions": expansions,
        "engine.batches": counts["engine.batches"],
        "engine.refills": counts["engine.refills"],
        "engine.flushes": counts["engine.flushes"],
        "engine.us_per_expansion":
            engine_s / expansions * 1e6 if expansions else 0.0,
        "engine.result_yield":
            counts["engine.results"] / expansions if expansions else 0.0,
        "multi_pe.calls": calls["multi_pe"],
        "multi_pe.wall_s": multi_pe_s,
        "multi_pe.wall_share": share(multi_pe_s),
        "multi_pe.us_per_expansion":
            multi_pe_s / mpe_expansions * 1e6 if mpe_expansions else 0.0,
        "multi_pe.inter_pe_messages": counts["multi_pe.inter_pe_messages"],
        "multi_pe.inter_pe_cycles": counts["multi_pe.inter_pe_cycles"],
        "fpga.setup_cycles": replay.fpga["setup"],
        "fpga.stall_cycles": replay.fpga["stall"],
        "fpga.flush_cycles": replay.fpga["flush"],
        "fpga.refill_cycles": replay.fpga["refill"],
        "fpga.bar_arr_hit_rate": replay.hit_rate("bar_arr"),
        "fpga.edge_arr_hit_rate": replay.hit_rate("edge_arr"),
        "fpga.vertex_arr_hit_rate": replay.hit_rate("vertex_arr"),
        "fpga.buffer_peak_paths": replay.fpga["buffer_peak"],
        "fpga.dram_peak_paths": replay.fpga["dram_peak"],
        "host.execute_self_s": self_s.get("host.execute", 0.0),
        "host.translate_wall_s": self_s.get("host.translate", 0.0),
        "host.paths_translated": counts["host.paths_translated"],
        "batch.run_self_s": batch_s,
        "batch.overhead_ms_per_request":
            batch_s / (len(traced.walls) + 1) * 1e3,  # + the warm-up
        "metrics.observe_wall_s": self_s.get("metrics", 0.0),
        "scheduler.engine_utilization_min":
            min(replay.engine_device) / replay.device_makespan
            if replay.device_makespan else 0.0,
        "scheduler.busy_imbalance":
            max(replay.engine_busy) / statistics.mean(replay.engine_busy)
            if any(replay.engine_busy) else 0.0,
        "scheduler.queue_wait_ms_total": replay.queue_wait_s * 1e3,
        "parallel.coordinator_self_s": self_s.get("parallel", 0.0),
        "parallel.round_wall_s": round_wall,
        "parallel.ipc_wall_s": sum(r - c for r, c in zip(rounds, critical)),
        "parallel.result_bytes": traced.result_bytes,
        "parallel.worker_busy_share":
            worker_busy / (len(workers) * round_wall) if round_wall else 0.0,
        "trace.unattributed_s": total_cpu - sum(self_s.values()),
        # Median over requests, as both passes serve the same requests.
        "trace.overhead": statistics.median(
            b / a for a, b in zip(untraced.reference_walls,
                                  traced.reference_walls)) - 1.0,
    }
    notes = [
        f"traced {len(traced.walls)} requests ({traced.queries} queries) "
        f"plus the warm-up; {total_cpu:.3f} CPU s attributed over "
        f"{1 + len(workers)} process(es); profiled replay of "
        f"{window_n} requests",
        f"failed_fraction {failed / max(untraced.attempted, 1):.6g}",
    ]
    return untraced, failed, {"metrics": metrics, "notes": notes}


PER_LAYER_UNITS = {
    "_s": "s", "_share": "ratio", "_rate": "ratio", "_ms_total": "ms",
    "_ms_per_request": "ms", "us_per_expansion": "us", "_cycles": "cyc",
    "_bytes": "B", "_paths": "paths", "result_yield": "ratio",
    "busy_imbalance": "ratio", "utilization_min": "ratio",
    "trace.overhead": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- command line ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package at {SRC}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.oracle:
        oracle_worker(args.workload)
        return 0

    from repro.datasets.registry import load_dataset

    workload = WORKLOADS[args.workload]
    try:
        setup = measure_setup(workload.name)
        graph = load_dataset(workload.dataset)
        run = run_traced if args.trace else run_end_to_end
        served, failed, result = run(workload, graph, args.seed,
                                     args.seconds, setup)
    except BenchError as exc:
        print(f"servebench: FAILED: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    units = {name: END_TO_END_UNITS[name] if not args.trace
             else layer_unit(name) for name in metrics}
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for note in result["notes"]:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": served.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
