"""The perfbench scenario registry.

A *scenario* is a named, repeatable workload that emits classed metrics
(see :mod:`repro.perfbench.record`).  Two families live here:

- **experiment scenarios** wrap :mod:`repro.reporting.experiments`
  functions at perfbench workload sizes and flatten each result row into
  per-point metrics through the shared
  :meth:`~repro.reporting.experiments.ExperimentResult.to_record` path —
  the same rows the benchmarks print and EXPERIMENTS.md records;
- **micro-scenarios** exercise the layers the paper experiments do not:
  the multi-engine serving throughput path, the artifact-cache hit path,
  degraded/deadline serving, the kernel device profile (per-stage cycle
  shares, BRAM/DRAM hit ratios, the verification-funnel kill rates), the
  windowed-telemetry reconciliation gate and the disabled-tracing and
  disabled-telemetry overhead guards.

Scenarios marked ``quick`` form the CI perf-gate subset; the full set
adds heavier experiment sweeps.  Every scenario is deterministic in its
modelled metrics for a fixed seed — only ``wall``-class metrics vary
between machines.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.errors import ConfigError
from repro.perfbench.overhead import (
    measure_telemetry_overhead,
    measure_tracing_overhead,
)
from repro.perfbench.record import (
    CLASS_COUNT,
    CLASS_CYCLES,
    CLASS_MODELLED,
    CLASS_WALL,
    Metric,
    ScenarioStats,
    collect_stats,
)

#: default repeated runs per scenario (median-of-N).
DEFAULT_RUNS = 3

#: default workload seed (matches the benchmarks' shared seed).
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    kind: str  # "experiment" | "service" | "engine" | "overhead"
    description: str
    quick: bool
    build: Callable[[int], Mapping[str, Metric]]


SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ConfigError(f"duplicate scenario name {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names(quick: bool = False) -> list[str]:
    """Registered scenario names, registry order (quick subset only?)."""
    return [
        name for name, sc in SCENARIOS.items() if sc.quick or not quick
    ]


def run_scenario(
    name: str,
    seed: int = DEFAULT_SEED,
    runs: int = DEFAULT_RUNS,
) -> ScenarioStats:
    """Execute one scenario ``runs`` times and return its folded stats.

    Every repetition also records the scenario's own ``wall_seconds``
    (how long the simulation took to run it — the only metric expected
    to differ between repetitions of a deterministic scenario).
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(sorted(SCENARIOS))}"
        )

    def timed(seed: int) -> dict[str, Metric]:
        start = time.perf_counter()
        metrics = dict(scenario.build(seed))
        wall = time.perf_counter() - start
        metrics["wall_seconds"] = Metric(
            "wall_seconds", wall, CLASS_WALL, "lower", "s"
        )
        return metrics

    return collect_stats(name, scenario.kind, timed, seed, runs)


# ----------------------------------------------------------------------
# experiment scenarios: flatten ExperimentResult records into metrics
# ----------------------------------------------------------------------
#: result columns that label a row rather than measure it.
_LABEL_HEADERS = {"dataset", "name", "k"}


def _slug(text: str) -> str:
    out = re.sub(r"[^a-z0-9]+", "_", str(text).lower()).strip("_")
    return out or "value"


def _classify_column(header: str) -> tuple[str, str]:
    """(metric class, direction) of one experiment-result column."""
    h = header.lower()
    if "speedup" in h:
        return CLASS_MODELLED, "higher"
    if "path" in h or h.startswith("l="):
        return CLASS_COUNT, "exact"
    if h in ("|v|", "|e|", "d") or h.startswith("paper"):
        return CLASS_COUNT, "exact"
    if "t1" in h or "t2" in h or h == "t" or h.endswith(" t") \
            or "second" in h:
        return CLASS_MODELLED, "lower"
    # remaining numeric columns (avg degree, effective diameter, ...):
    # deterministic model outputs where any drift is a behaviour change.
    return CLASS_MODELLED, "exact"


def _geomean(values: list[float]) -> float | None:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return None
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def metrics_from_experiment(record: dict) -> dict[str, Metric]:
    """Flatten an :meth:`ExperimentResult.to_record` dict into metrics.

    Each row becomes ``<row label>/<column slug>`` metrics (the label is
    the first column plus the ``k`` column when present), each classed by
    its header.  Two headline aggregates summarise the table for the
    trend view: the geometric-mean speedup (when a speedup column
    exists) and the total path count (when a paths column exists).
    """
    headers: list[str] = record["headers"]
    metrics: dict[str, Metric] = {}
    speedups: list[float] = []
    total_paths = 0
    has_paths = False
    label_idx = [
        i for i, h in enumerate(headers) if h.lower() in _LABEL_HEADERS
    ]
    for row in record["rows"]:
        parts = []
        for i in label_idx:
            h = headers[i].lower()
            parts.append(f"k{row[i]}" if h == "k" else _slug(row[i]))
        label = ".".join(parts) or "row"
        for i, header in enumerate(headers):
            if i in label_idx:
                continue
            cell = row[i]
            if not isinstance(cell, (int, float)) \
                    or isinstance(cell, bool):
                continue  # strings (including "inf"/"nan" cells)
            metric_class, direction = _classify_column(header)
            name = f"{label}/{_slug(header)}"
            metrics[name] = Metric(
                name, float(cell), metric_class, direction
            )
            h = header.lower()
            if "speedup" in h:
                speedups.append(float(cell))
            elif "path" in h:
                has_paths = True
                total_paths += int(cell)
    geo = _geomean(speedups)
    if geo is not None:
        metrics["speedup_geomean"] = Metric(
            "speedup_geomean", geo, CLASS_MODELLED, "higher", "x",
            headline=True,
        )
    if has_paths:
        metrics["total_paths"] = Metric(
            "total_paths", float(total_paths), CLASS_COUNT, "exact",
            headline=True,
        )
    return metrics


def _experiment_scenario(
    name: str,
    description: str,
    quick: bool,
    fn: Callable,
    **kwargs,
) -> Scenario:
    def build(seed: int) -> dict[str, Metric]:
        from repro.datasets import load_dataset

        # Same uncharged reverse-CSR warm as the micro-scenarios: keeps
        # T1-bearing metrics independent of scenario execution order.
        for key in kwargs.get("keys") or ():
            load_dataset(key).reverse()
        result = fn(seed=seed, **kwargs)
        return metrics_from_experiment(result.to_record())

    return _register(Scenario(name, "experiment", description, quick, build))


# ----------------------------------------------------------------------
# micro-scenarios: serving layer and kernel profile
# ----------------------------------------------------------------------
def _count(name: str, value: float, headline: bool = False) -> Metric:
    return Metric(name, float(value), CLASS_COUNT, "exact",
                  headline=headline)


def _cycles(name: str, value: float, headline: bool = False) -> Metric:
    return Metric(name, float(value), CLASS_CYCLES, "lower", "cyc",
                  headline=headline)


def _modelled(name: str, value: float, direction: str = "lower",
              unit: str = "s", headline: bool = False) -> Metric:
    return Metric(name, float(value), CLASS_MODELLED, direction, unit,
                  headline=headline)


def _service(graph_key: str, max_hops: int, num_queries: int, seed: int,
             engines: int = 2, **service_kwargs):
    from repro.datasets import load_dataset
    from repro.service import BatchQueryService
    from repro.workloads.queries import generate_queries

    graph = load_dataset(graph_key)
    # The dataset graph is process-cached and memoises its reverse CSR on
    # first use; warm it here (uncharged) so the modelled preprocessing
    # cost never depends on which scenario ran earlier in the process.
    graph.reverse()
    queries = generate_queries(graph, max_hops, num_queries, seed=seed)
    service = BatchQueryService(graph, num_engines=engines,
                                **service_kwargs)
    return service, queries


def _throughput_metrics(report) -> dict[str, Metric]:
    device_cycles = sum(r.fpga_cycles for r in report.reports)
    makespan = report.makespan_seconds
    metrics = {
        "makespan_seconds": _modelled(
            "makespan_seconds", makespan, headline=True),
        "throughput_qps": _modelled(
            "throughput_qps", report.throughput_qps, "higher", "q/s",
            headline=True),
        "host_seconds_total": _modelled(
            "host_seconds_total", report.host_seconds_total),
        "device_makespan_seconds": _modelled(
            "device_makespan_seconds", report.device_makespan_seconds),
        "device_cycles": _cycles("device_cycles", device_cycles,
                                 headline=True),
        "total_paths": _count("total_paths", report.total_paths),
        "paths_per_modelled_second": _modelled(
            "paths_per_modelled_second",
            report.total_paths / makespan if makespan > 0 else 0.0,
            "higher", "paths/s"),
    }
    latency = report.latency
    if latency is not None:
        metrics["latency_p50_seconds"] = _modelled(
            "latency_p50_seconds", latency.p50)
        metrics["latency_p99_seconds"] = _modelled(
            "latency_p99_seconds", latency.p99)
    return metrics


def _build_service_throughput(seed: int) -> dict[str, Metric]:
    service, queries = _service("rt", 4, 24, seed)
    report = service.run(queries)
    return _throughput_metrics(report)


def _build_service_parallel_throughput(seed: int) -> dict[str, Metric]:
    """In-process vs process executor on one workload, 4 engines each.

    ``thread_wall_seconds`` times the in-process executor (the
    ``"thread"`` backend, which serves its engines in order on the
    calling thread).  The modelled metrics (paths, device cycles,
    makespan) are identical across backends by construction and gate as
    usual; the wall-clock comparison — where the process backend's real
    host-side parallelism shows up — is ``wall``-class and therefore
    recorded but never gated (it depends on the machine's core count; a
    single-core runner shows ~1x).  ``backends_agree`` gates the differential guarantee itself.
    """
    from repro.datasets import load_dataset
    from repro.service import BatchQueryService
    from repro.workloads.queries import generate_queries

    graph = load_dataset("rt")
    graph.reverse()  # same uncharged warm as _service (determinism)
    queries = generate_queries(graph, 4, 32, seed=seed)
    engines = 4

    start = time.perf_counter()
    thread_service = BatchQueryService(graph, num_engines=engines)
    thread_report = thread_service.run(queries)
    thread_wall = time.perf_counter() - start

    process_service = BatchQueryService(
        graph, num_engines=engines, backend="process"
    )
    try:
        # Pool startup (fork + per-worker engine build) is billed
        # separately from steady-state serving: a resident service pays
        # it once, not per batch.
        process_service.run(queries[:1])
        start = time.perf_counter()
        process_report = process_service.run(queries)
        process_wall = time.perf_counter() - start
    finally:
        process_service.close()

    agree = (thread_report.path_output_bytes()
             == process_report.path_output_bytes())
    metrics = _throughput_metrics(thread_report)
    metrics.update({
        "backends_agree": _count("backends_agree", float(agree),
                                 headline=True),
        "thread_wall_seconds": Metric(
            "thread_wall_seconds", thread_wall, CLASS_WALL, "lower", "s"),
        "process_wall_seconds": Metric(
            "process_wall_seconds", process_wall, CLASS_WALL, "lower",
            "s"),
        "process_wall_qps": Metric(
            "process_wall_qps",
            len(queries) / process_wall if process_wall > 0 else 0.0,
            CLASS_WALL, "higher", "q/s"),
        "process_speedup_x": Metric(
            "process_speedup_x",
            thread_wall / process_wall if process_wall > 0 else 0.0,
            CLASS_WALL, "higher", "x", headline=True),
    })
    return metrics


def _build_service_batch_sharing(seed: int) -> dict[str, Metric]:
    """Cross-query sharing on a duplicate-heavy, overlapping-source batch.

    One 50%-duplicate batch whose distinct queries draw from a small
    source pool is served three ways: naive per-query execution, sharing
    enabled on the in-process backend, and sharing enabled on the process
    backend.  ``sharing_equivalent`` and ``backends_agree`` gate the
    correctness claims (identical answer bytes and per-query device
    cycles); ``modelled_speedup_x`` is the headline — the modelled
    makespan ratio bought by deduping duplicates and sharing forward
    frontiers, expected >= 2x at 50% duplication.
    """
    from repro.datasets import load_dataset
    from repro.service import BatchQueryService
    from repro.workloads.queries import generate_shared_batch

    graph = load_dataset("rt")
    graph.reverse()  # same uncharged warm as _service (determinism)
    queries = generate_shared_batch(
        graph, 4, 32, seed=seed, duplicate_fraction=0.5, source_pool=8
    )
    engines = 2

    def serve(sharing: bool, backend: str = "thread"):
        service = BatchQueryService(
            graph, num_engines=engines, scheduler="longest-first",
            backend=backend, sharing=sharing,
        )
        start = time.perf_counter()
        try:
            report = service.run(list(queries))
        finally:
            service.close()
        return report, time.perf_counter() - start

    naive, naive_wall = serve(False)
    shared, shared_wall = serve(True)
    process, _ = serve(True, backend="process")

    equivalent = (
        naive.path_output_bytes() == shared.path_output_bytes()
        and [r.fpga_cycles for r in naive.reports]
        == [r.fpga_cycles for r in shared.reports]
    )
    agree = (
        shared.path_output_bytes() == process.path_output_bytes()
        and [r.fpga_cycles for r in shared.reports]
        == [r.fpga_cycles for r in process.reports]
    )
    speedup = (naive.makespan_seconds / shared.makespan_seconds
               if shared.makespan_seconds > 0 else 0.0)
    return {
        "sharing_equivalent": _count(
            "sharing_equivalent", float(equivalent), headline=True),
        "backends_agree": _count(
            "backends_agree", float(agree), headline=True),
        "modelled_speedup_x": _modelled(
            "modelled_speedup_x", speedup, "higher", "x", headline=True),
        "naive_makespan_seconds": _modelled(
            "naive_makespan_seconds", naive.makespan_seconds),
        "shared_makespan_seconds": _modelled(
            "shared_makespan_seconds", shared.makespan_seconds),
        "shared_host_seconds": _modelled(
            "shared_host_seconds", shared.host_seconds_total),
        "result_cache_hits": _count(
            "result_cache_hits", shared.cache_stats.get("result_hits", 0)),
        "forward_cache_hits": _count(
            "forward_cache_hits",
            shared.cache_stats.get("forward_hits", 0)),
        "total_paths": _count("total_paths", shared.total_paths),
        "naive_wall_seconds": Metric(
            "naive_wall_seconds", naive_wall, CLASS_WALL, "lower", "s"),
        "shared_wall_seconds": Metric(
            "shared_wall_seconds", shared_wall, CLASS_WALL, "lower", "s"),
        "wall_speedup_x": Metric(
            "wall_speedup_x",
            naive_wall / shared_wall if shared_wall > 0 else 0.0,
            CLASS_WALL, "higher", "x"),
    }


def _build_service_cache(seed: int) -> dict[str, Metric]:
    service, queries = _service("rt", 3, 16, seed)
    service.run(queries)
    before = service.cache.stats()
    report = service.run(queries)  # every artifact should now be memoised
    after = service.cache.stats()
    hits = (after["prebfs_hits"] - before["prebfs_hits"]
            + after["reverse_hits"] - before["reverse_hits"])
    misses = (after["prebfs_misses"] - before["prebfs_misses"]
              + after["reverse_misses"] - before["reverse_misses"])
    touched = hits + misses
    return {
        "repeat_hits": _count("repeat_hits", hits),
        "repeat_misses": _count("repeat_misses", misses),
        "repeat_hit_rate": _modelled(
            "repeat_hit_rate", hits / touched if touched else 0.0,
            "higher", "", headline=True),
        "repeat_makespan_seconds": _modelled(
            "repeat_makespan_seconds", report.makespan_seconds,
            headline=True),
        "warm_warmup_seconds": _modelled(
            "warm_warmup_seconds", report.warmup_seconds),
        "total_paths": _count("total_paths", report.total_paths),
    }


def _build_service_degraded(seed: int) -> dict[str, Metric]:
    service, queries = _service("rt", 4, 24, seed)
    report = service.run(queries, batch_deadline_ms=0.2)
    metrics = {
        "degraded_queries": _count(
            "degraded_queries", report.metrics.counter("degraded_queries"),
            headline=True),
        "truncated_queries": _count(
            "truncated_queries", report.truncated_queries),
        "makespan_seconds": _modelled(
            "makespan_seconds", report.makespan_seconds, headline=True),
        "total_paths": _count("total_paths", report.total_paths),
    }
    degraded = report.degraded_latency
    if degraded is not None:
        metrics["degraded_p99_seconds"] = _modelled(
            "degraded_p99_seconds", degraded.p99)
    return metrics


def _build_service_deadline(seed: int) -> dict[str, Metric]:
    service, queries = _service("rt", 4, 24, seed)
    report = service.run(queries, deadline_ms=0.05)
    return {
        "truncated_queries": _count(
            "truncated_queries", report.truncated_queries, headline=True),
        "total_paths": _count("total_paths", report.total_paths,
                              headline=True),
        "makespan_seconds": _modelled(
            "makespan_seconds", report.makespan_seconds),
        "throughput_qps": _modelled(
            "throughput_qps", report.throughput_qps, "higher", "q/s"),
    }


def _build_engine_profile(seed: int) -> dict[str, Metric]:
    """One profiled kernel workload: cycle shares, caches, the funnel."""
    from repro.datasets import load_dataset
    from repro.fpga.profile import BATCH_STAGES, aggregate_profiles
    from repro.host.system import PathEnumerationSystem
    from repro.workloads.queries import generate_queries

    graph = load_dataset("rt")
    graph.reverse()  # same uncharged warm as _service (determinism)
    queries = generate_queries(graph, 4, 6, seed=seed)
    system = PathEnumerationSystem.for_variant(graph, "pefp")
    reports = [system.execute(q, profile=True) for q in queries]
    profiles = [r.profile for r in reports if r.profile is not None]
    agg = aggregate_profiles(profiles)

    total = agg["total_cycles"]
    metrics: dict[str, Metric] = {
        "total_cycles": _cycles("total_cycles", total, headline=True),
        "setup_cycles": _cycles("setup_cycles", agg["setup_cycles"]),
        "stall_cycles": _cycles("stall_cycles", agg["stall_cycles"]),
        "flush_cycles": _cycles("flush_cycles", agg["flush_cycles"]),
        "refill_cycles": _cycles("refill_cycles", agg["refill_cycles"]),
        "num_batches": _count("num_batches", agg["num_batches"]),
        "total_paths": _count(
            "total_paths", sum(r.num_paths for r in reports)),
        "preprocess_seconds": _modelled(
            "preprocess_seconds",
            sum(r.preprocess_seconds for r in reports)),
        "query_seconds": _modelled(
            "query_seconds", sum(r.query_seconds for r in reports),
            headline=True),
    }
    for stage in BATCH_STAGES:
        cycles = agg["stage_cycles"].get(stage, 0)
        metrics[f"stage/{stage}_cycles"] = _cycles(
            f"stage/{stage}_cycles", cycles)
        metrics[f"stage/{stage}_share"] = _modelled(
            f"stage/{stage}_share",
            cycles / total if total else 0.0, "exact", "")
    for label, counters in sorted(agg["cache_counters"].items()):
        touched = counters["hits"] + counters["misses"]
        rate = counters["hits"] / touched if touched else 0.0
        metrics[f"cache/{label}_hit_rate"] = _modelled(
            f"cache/{label}_hit_rate", rate, "higher", "",
            headline=(label == "bar_arr"))
        metrics[f"cache/{label}_hits"] = _count(
            f"cache/{label}_hits", counters["hits"])
        metrics[f"cache/{label}_misses"] = _count(
            f"cache/{label}_misses", counters["misses"])
    funnel = agg["verify_funnel"]
    expansions = funnel.get("expansions", 0)
    for check in ("rejected_target", "rejected_barrier",
                  "rejected_visited", "survivors"):
        count = funnel.get(check, 0)
        metrics[f"funnel/{check}"] = _count(f"funnel/{check}", count)
        metrics[f"funnel/{check}_rate"] = _modelled(
            f"funnel/{check}_rate",
            count / expansions if expansions else 0.0, "exact", "",
            headline=(check == "rejected_barrier"))
    metrics["funnel/expansions"] = _count(
        "funnel/expansions", expansions)
    metrics["buffer_peak_paths"] = _count(
        "buffer_peak_paths", agg["buffer_peak_paths"])
    metrics["dram_peak_paths"] = _count(
        "dram_peak_paths", agg["dram_peak_paths"])
    return metrics


def _build_pe_scaling(seed: int) -> dict[str, Metric]:
    """Multi-PE sweep N in {1, 2, 4, 8} on RT: invariance + scaling.

    Two exact gates anchor the PE-count-invariance bar: ``n1_matches_single``
    (the N=1 device model is byte-equal — cycles and paths — to the plain
    single-pipeline engine) and ``all_pe_counts_agree`` (every N enumerates
    the identical sorted path set).  Per-N device cycles and path counts
    are exact-class metrics; ``paths_per_second_per_pe`` records the
    modelled per-PE throughput so scaling regressions (e.g. an interconnect
    charge accidentally doubled) surface as metric diffs.
    """
    from repro.datasets import load_dataset
    from repro.fpga.device import DeviceConfig
    from repro.fpga.profile import aggregate_profiles
    from repro.host.system import PathEnumerationSystem
    from repro.workloads.queries import generate_queries

    graph = load_dataset("rt")
    graph.reverse()  # same uncharged warm as _service (determinism)
    queries = generate_queries(graph, 4, 6, seed=seed)

    def sweep(**engine_kwargs):
        system = PathEnumerationSystem.for_variant(graph, "pefp",
                                                   **engine_kwargs)
        reports = [system.execute(q, profile=True) for q in queries]
        agg = aggregate_profiles(
            [r.profile for r in reports if r.profile is not None])
        return {
            "cycles": agg["total_cycles"],
            "paths": sum(r.num_paths for r in reports),
            "path_sets": [tuple(sorted(r.paths)) for r in reports],
            "seconds": sum(r.query_seconds for r in reports),
            "inter_pe_cycles": agg["inter_pe_cycles"],
            "inter_pe_messages": agg["inter_pe_messages"],
        }

    plain = sweep()
    runs = {
        n: sweep(device_config=DeviceConfig(num_pes=n,
                                            pe_partition="hash"))
        for n in (1, 2, 4, 8)
    }

    metrics: dict[str, Metric] = {
        "n1_matches_single": _count(
            "n1_matches_single",
            float(runs[1]["cycles"] == plain["cycles"]
                  and runs[1]["path_sets"] == plain["path_sets"]
                  and runs[1]["inter_pe_cycles"] == 0),
            headline=True),
        "all_pe_counts_agree": _count(
            "all_pe_counts_agree",
            float(all(r["path_sets"] == runs[1]["path_sets"]
                      for r in runs.values())),
            headline=True),
    }
    for n, r in runs.items():
        per_pe = r["paths"] / (r["seconds"] * n) if r["seconds"] else 0.0
        metrics[f"n{n}/total_cycles"] = _cycles(
            f"n{n}/total_cycles", r["cycles"], headline=(n == 8))
        metrics[f"n{n}/total_paths"] = _count(
            f"n{n}/total_paths", r["paths"])
        metrics[f"n{n}/inter_pe_cycles"] = _cycles(
            f"n{n}/inter_pe_cycles", r["inter_pe_cycles"])
        metrics[f"n{n}/inter_pe_messages"] = _count(
            f"n{n}/inter_pe_messages", r["inter_pe_messages"])
        metrics[f"n{n}/paths_per_second_per_pe"] = _modelled(
            f"n{n}/paths_per_second_per_pe", per_pe, "higher", "p/s",
            headline=(n == 8))
    return metrics


def _build_service_attribution(seed: int) -> dict[str, Metric]:
    """Gate the latency-attribution reconciliation invariant.

    One traced + profiled batch is attributed twice — from the recorded
    span trace and from the batch report — and the scenario gates the
    exactness story end to end: per-query cycle tiling, critical path ==
    makespan float for float, trace/report agreement, and span hygiene
    (no span left open).  The per-segment totals are recorded so
    ``repro bench attribute`` can diff two snapshots and rank segments
    by their contribution to a regression.

    The batch is served without cross-query sharing: result-cache hits
    answer without opening a ``query`` span, so a sharing batch's trace
    covers only the executed queries (documented caveat).
    """
    from repro.observability import Tracer, analyze_report, analyze_trace

    service, queries = _service("rt", 4, 24, seed)
    tracer = Tracer()
    try:
        report = service.run(queries, tracer=tracer, profile=True)
    finally:
        service.close()
    trace_attr = analyze_trace(tracer.records())
    report_attr = analyze_report(report)

    metrics: dict[str, Metric] = {
        "reconciled": _count(
            "reconciled",
            float(trace_attr.reconciled and report_attr.reconciled),
            headline=True),
        "trace_report_agree": _count(
            "trace_report_agree", float(trace_attr.matches(report_attr)),
            headline=True),
        "critical_path_is_makespan": _count(
            "critical_path_is_makespan",
            float(report_attr.critical_path.length_seconds
                  == report.makespan_seconds)),
        "open_spans": _count("open_spans", tracer.open_spans),
        "attributed_queries": _count(
            "attributed_queries", trace_attr.num_queries),
        "makespan_seconds": _modelled(
            "makespan_seconds", report_attr.makespan_seconds,
            headline=True),
        "queue_wait_seconds": _modelled(
            "queue_wait_seconds",
            sum(w.queue_wait_seconds for w in report_attr.waterfalls)),
    }
    for segment, cycles in report_attr.segment_cycles().items():
        metrics[f"segment/{segment}_cycles"] = _cycles(
            f"segment/{segment}_cycles", cycles)
    for segment, seconds in report_attr.segment_seconds().items():
        metrics[f"segment/{segment}_seconds"] = _modelled(
            f"segment/{segment}_seconds", seconds)
    tail = report_attr.tail()
    if tail is not None:
        metrics["tail_mean_seconds"] = _modelled(
            "tail_mean_seconds", tail.tail_mean_seconds)
    return metrics


def _build_tracing_overhead(seed: int) -> dict[str, Metric]:
    raw = measure_tracing_overhead(seed)
    return {
        "projected_overhead": Metric(
            "projected_overhead", raw["projected_overhead"], CLASS_WALL,
            "lower", "", headline=True),
        "within_budget": Metric(
            "within_budget", raw["within_budget"], CLASS_COUNT, "higher",
            "", headline=True),
        "disabled_wall_seconds": Metric(
            "disabled_wall_seconds", raw["disabled_wall_seconds"],
            CLASS_WALL, "lower", "s"),
        "enabled_wall_seconds": Metric(
            "enabled_wall_seconds", raw["enabled_wall_seconds"],
            CLASS_WALL, "lower", "s"),
        "per_event_seconds": Metric(
            "per_event_seconds", raw["per_event_seconds"], CLASS_WALL,
            "lower", "s"),
        "trace_events_per_run": Metric(
            "trace_events_per_run", raw["trace_events_per_run"],
            CLASS_COUNT, "exact"),
    }


def _build_telemetry_overhead(seed: int) -> dict[str, Metric]:
    raw = measure_telemetry_overhead(seed)
    return {
        "projected_overhead": Metric(
            "projected_overhead", raw["projected_overhead"], CLASS_WALL,
            "lower", "", headline=True),
        "within_budget": Metric(
            "within_budget", raw["within_budget"], CLASS_COUNT, "higher",
            "", headline=True),
        "disabled_wall_seconds": Metric(
            "disabled_wall_seconds", raw["disabled_wall_seconds"],
            CLASS_WALL, "lower", "s"),
        "enabled_wall_seconds": Metric(
            "enabled_wall_seconds", raw["enabled_wall_seconds"],
            CLASS_WALL, "lower", "s"),
        "per_event_seconds": Metric(
            "per_event_seconds", raw["per_event_seconds"], CLASS_WALL,
            "lower", "s"),
        "telemetry_events_per_run": Metric(
            "telemetry_events_per_run", raw["telemetry_events_per_run"],
            CLASS_COUNT, "exact"),
    }


def _build_service_slo(seed: int) -> dict[str, Metric]:
    """Windowed telemetry + SLO burn rates as a gated scenario.

    One deadline-pressured batch (RT, k=4, 24 queries, 2 engines, an
    8 ms batch deadline that pushes late queries degraded) is served by
    the in-process and process executors, each recording a fresh
    timeline.  Two exact gates:

    - ``windows_reconcile`` — every backend's per-window sums equal its
      terminal registry counters bit for bit
      (:meth:`~repro.service.metrics.MetricsTimeline.reconcile` returns
      no mismatches);
    - ``backends_agree`` — the two timelines are byte-identical
      (``canonical_bytes``): windowed telemetry is as interleaving-
      independent as the modelled clock it is keyed on.

    The default SLOs are then evaluated on the in-process timeline; alert
    counts and good fractions are exact-class metrics because burn
    rates are pure functions of the deterministic timeline.
    """
    from repro.datasets import load_dataset
    from repro.observability.slo import default_slos, evaluate_slos
    from repro.service import BatchQueryService, MetricsTimeline
    from repro.workloads.queries import generate_queries

    graph = load_dataset("rt")
    graph.reverse()  # same uncharged warm as _service (determinism)
    queries = generate_queries(graph, 4, 24, seed=seed)

    def serve(**service_kwargs):
        service = BatchQueryService(graph, num_engines=2,
                                    **service_kwargs)
        timeline = MetricsTimeline()
        try:
            report = service.run(list(queries), batch_deadline_ms=8.0,
                                 timeline=timeline)
        finally:
            service.close()
        return report, timeline

    serial_report, serial_tl = serve()
    process_report, process_tl = serve(backend="process")

    reconciled = not (
        serial_tl.reconcile(serial_report.metrics)
        or process_tl.reconcile(process_report.metrics)
    )
    agree = serial_tl.canonical_bytes() == process_tl.canonical_bytes()

    evaluation = evaluate_slos(serial_tl, default_slos())
    latency = evaluation.result("latency_p99_500us")
    availability = evaluation.result("availability_full_fidelity")
    return {
        "windows_reconcile": _count(
            "windows_reconcile", float(reconciled), headline=True),
        "backends_agree": _count(
            "backends_agree", float(agree), headline=True),
        "num_windows": _count("num_windows", serial_tl.num_windows),
        "slo_alerts": _count(
            "slo_alerts", len(evaluation.alerts), headline=True),
        "latency_good_fraction": Metric(
            "latency_good_fraction", latency.good_fraction,
            CLASS_COUNT, "exact"),
        "availability_good_fraction": Metric(
            "availability_good_fraction", availability.good_fraction,
            CLASS_COUNT, "exact"),
        "worst_burn_rate": Metric(
            "worst_burn_rate",
            max(r.worst_burn_rate for r in evaluation.results),
            CLASS_COUNT, "exact"),
        "degraded_queries": _count(
            "degraded_queries",
            serial_report.metrics.counter("degraded_queries")),
        "makespan_seconds": _modelled(
            "makespan_seconds", serial_report.makespan_seconds,
            headline=True),
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _register_all() -> None:
    from repro.reporting import experiments as E

    _experiment_scenario(
        "exp.fig8.rt", "Fig. 8 on RT, k=3..4 (PEFP vs JOIN, T2)",
        quick=True, fn=E.fig8_query_time, keys=("rt",),
        queries_per_point=2, k_overrides={"rt": (3, 4)},
    )
    _experiment_scenario(
        "exp.fig14.rt", "Fig. 14 caching ablation on RT, k=3..4",
        quick=True, fn=E.fig14_caching, keys=("rt",),
        queries_per_point=2, k_overrides={"rt": (3, 4)},
    )
    _experiment_scenario(
        "exp.fig15.rt", "Fig. 15 data-separation ablation on RT, k=3..4",
        quick=True, fn=E.fig15_datasep, keys=("rt",),
        queries_per_point=2, k_overrides={"rt": (3, 4)},
    )
    _register(Scenario(
        "engine.profile.rt",
        "engine", "profiled PEFP kernel on RT: stage cycle shares, "
        "BRAM hit ratios, verification-funnel kill rates",
        True, _build_engine_profile,
    ))
    _register(Scenario(
        "device.pe_scaling",
        "engine", "multi-PE sweep N=1,2,4,8 on RT: PE-count invariance "
        "gates (N=1 byte-equal, identical path sets) plus per-PE "
        "throughput and interconnect cycle shares",
        True, _build_pe_scaling,
    ))
    _register(Scenario(
        "service.throughput.rt",
        "service", "2-engine batch service on RT: makespan, qps, "
        "device cycles",
        True, _build_service_throughput,
    ))
    _register(Scenario(
        "service.parallel_throughput",
        "service", "in-process vs process backend, 4 engines: differential "
        "agreement (gated) plus wall-clock speedup (recorded, not gated)",
        True, _build_service_parallel_throughput,
    ))
    _register(Scenario(
        "service.batch_sharing",
        "service", "cross-query sharing on a 50%-duplicate, "
        "overlapping-source batch: equivalence + backend agreement "
        "(gated) and the modelled dedupe speedup",
        True, _build_service_batch_sharing,
    ))
    _register(Scenario(
        "service.cache.rt",
        "service", "artifact-cache hit path: repeat batch on a warm "
        "service",
        True, _build_service_cache,
    ))
    _register(Scenario(
        "service.degraded.rt",
        "service", "batch-deadline degraded serving on RT",
        True, _build_service_degraded,
    ))
    _register(Scenario(
        "service.deadline.rt",
        "service", "per-query deadline serving on RT (truncation path)",
        True, _build_service_deadline,
    ))
    _register(Scenario(
        "service.attribution",
        "service", "latency-attribution reconciliation gate: waterfalls "
        "tile the recorded totals exactly, trace- and report-based "
        "attribution agree, no span left open",
        True, _build_service_attribution,
    ))
    _register(Scenario(
        "service.slo",
        "service", "windowed-telemetry reconciliation gate: per-window "
        "sums equal terminal counters bit for bit, in-process and process "
        "timelines byte-identical, SLO burn-rate alerts deterministic",
        True, _build_service_slo,
    ))
    _register(Scenario(
        "overhead.tracing",
        "overhead", "disabled-tracing overhead guard (<2% budget)",
        True, _build_tracing_overhead,
    ))
    _register(Scenario(
        "overhead.telemetry",
        "overhead", "disabled-telemetry overhead guard (<2% budget)",
        True, _build_telemetry_overhead,
    ))
    # -- full-set-only: heavier experiment sweeps ----------------------
    _experiment_scenario(
        "exp.fig8.rt.full", "Fig. 8 on RT, the full k=3..5 sweep",
        quick=False, fn=E.fig8_query_time, keys=("rt",),
        queries_per_point=2,
    )
    _experiment_scenario(
        "exp.fig12.bd", "Fig. 12 Pre-BFS ablation on BD, k=3..4",
        quick=False, fn=E.fig12_prebfs, keys=("bd",),
        queries_per_point=2, k_overrides={"bd": (3, 4)},
    )
    _experiment_scenario(
        "exp.fig13.bs", "Fig. 13 Batch-DFS ablation on BS (close-pair)",
        quick=False, fn=E.fig13_batchdfs, keys=("bs",),
        queries_per_point=2,
    )
    _experiment_scenario(
        "exp.tab3.bd", "Table III intermediate-path profile on BD",
        quick=False, fn=E.tab3_intermediate_paths, keys=("bd",),
        max_hops=8, sample_size=500, level_cap=2000,
    )


_register_all()


def iter_scenarios(names: Iterable[str] | None = None,
                   quick: bool = False) -> list[Scenario]:
    """Resolve a scenario selection (explicit names beat the quick flag)."""
    if names:
        out = []
        for name in names:
            if name not in SCENARIOS:
                raise ConfigError(
                    f"unknown scenario {name!r}; known: "
                    f"{', '.join(sorted(SCENARIOS))}"
                )
            out.append(SCENARIOS[name])
        return out
    return [SCENARIOS[name] for name in scenario_names(quick=quick)]
