"""Command-line interface: query graphs and inspect datasets.

Usage::

    python -m repro query GRAPH.txt -s 0 -t 42 -k 4 [--algorithm pefp]
    python -m repro serve-batch GRAPH.txt -k 4 -n 1000 --engines 4
    python -m repro stats GRAPH.txt
    python -m repro datasets

``GRAPH.txt`` is a SNAP-style edge list (one ``src dst`` pair per line,
``#``/``%`` comments allowed).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.baselines import BCDFS, HPIndex, Join, NaiveBFS, NaiveDFS, TDFS, TDFS2
from repro.core.variants import VARIANTS
from repro.datasets import DATASETS, load_dataset
from repro.errors import ReproError
from repro.graph import stats as graph_stats
from repro.graph.io import read_edge_list
from repro.host.cost_model import CpuCostModel
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem
from repro.reporting.tables import format_seconds, render_table

_CPU_ALGORITHMS = {
    "naive-dfs": NaiveDFS,
    "naive-bfs": NaiveBFS,
    "t-dfs": TDFS,
    "t-dfs2": TDFS2,
    "bc-dfs": BCDFS,
    "join": Join,
    "hp-index": HPIndex,
}


def _load_graph(path: str):
    if path in DATASETS:
        return load_dataset(path)
    return read_edge_list(path)


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Engine construction kwargs from the shared device flags."""
    if getattr(args, "num_pes", 1) == 1:
        return {}
    from repro.fpga.device import DeviceConfig

    return {"device_config": DeviceConfig(num_pes=args.num_pes,
                                          pe_partition=args.pe_partition)}


def _cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    query = Query(args.source, args.target, args.max_hops)
    device = None
    if args.algorithm in _CPU_ALGORITHMS:
        enumerator = _CPU_ALGORITHMS[args.algorithm]()
        result = enumerator.enumerate_paths(graph, query)
        cost = CpuCostModel()
        t1 = cost.seconds(result.preprocess_ops)
        t2 = cost.seconds(result.enumerate_ops)
        paths = result.paths
    else:
        system = PathEnumerationSystem.for_variant(
            graph, args.algorithm, **_engine_kwargs(args))
        report = system.execute(query)
        t1, t2 = report.preprocess_seconds, report.query_seconds
        paths = report.paths
        device = report.device
    print(f"{len(paths)} path(s) from {args.source} to {args.target} "
          f"within {args.max_hops} hops  "
          f"[T1={format_seconds(t1)} T2={format_seconds(t2)} "
          f"T={format_seconds(t1 + t2)}]")
    shown = paths if args.all else paths[: args.limit]
    for p in shown:
        print(" -> ".join(str(v) for v in p))
    if not args.all and len(paths) > args.limit:
        print(f"... {len(paths) - args.limit} more (use --all)")
    if args.device_report:
        if device is None:
            print("(no device report: CPU algorithm)")
        else:
            from repro.fpga.report import device_report

            print()
            print(device_report(device).render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    st = graph_stats.compute_stats(graph, samples=args.samples)
    rows = [
        ("|V|", st.num_vertices),
        ("|E|", st.num_edges),
        ("avg degree", f"{st.avg_degree:.2f}"),
        ("diameter (sampled)", st.diameter),
        ("90% effective diameter", f"{st.effective_diameter_90:.2f}"),
    ]
    print(render_table(("metric", "value"), rows))
    return 0


def _make_enumerator(name: str):
    if name in _CPU_ALGORITHMS:
        return _CPU_ALGORITHMS[name]()
    from repro.host.system import PEFPEnumerator

    return PEFPEnumerator(name)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.validation import cross_check

    graph = _load_graph(args.graph)
    query = Query(args.source, args.target, args.max_hops)
    report = cross_check(
        graph, query, _make_enumerator(args.left),
        _make_enumerator(args.right),
    )
    print(report.summary())
    for p in sorted(report.only_left)[:10]:
        print(f"  only {args.left}: " + " -> ".join(str(v) for v in p))
    for p in sorted(report.only_right)[:10]:
        print(f"  only {args.right}: " + " -> ".join(str(v) for v in p))
    return 0 if report.ok else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perfbench.cli import BENCH_COMMANDS, dispatch

    if args.experiment in BENCH_COMMANDS:
        return dispatch(args.experiment, args.rest)

    # Legacy spelling: `repro bench fig8 [--seed N]` regenerates one
    # paper experiment and prints its table.
    from repro.reporting.experiments import experiment_by_name

    legacy = argparse.ArgumentParser(prog=f"repro bench {args.experiment}")
    legacy.add_argument("--seed", type=int, default=7)
    opts = legacy.parse_args(args.rest)
    try:
        fn, kwargs = experiment_by_name(args.experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    result = fn(seed=opts.seed, **kwargs)
    print(result.table())
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.core.config import QueryBudget
    from repro.service import BatchQueryService
    from repro.workloads.queries import generate_queries

    graph = _load_graph(args.graph)
    queries = generate_queries(graph, args.max_hops, args.num_queries,
                               seed=args.seed)
    service = BatchQueryService(
        graph,
        variant=args.algorithm,
        num_engines=args.engines,
        scheduler=args.scheduler,
        backend=args.backend,
        sharing=args.sharing,
        inject_failures=args.inject_failures,
        failure_seed=args.failure_seed,
        **_engine_kwargs(args),
    )
    budget = None
    if args.max_results is not None or args.cycle_budget is not None:
        budget = QueryBudget(max_results=args.max_results,
                             max_cycles=args.cycle_budget)
    tracer = None
    if args.trace_dir is not None:
        from repro.observability import Tracer

        tracer = Tracer()
    timeline = None
    if args.timeline_dir is not None or args.slo is not None:
        from repro.service import MetricsTimeline

        timeline = MetricsTimeline(args.timeline_window)
    try:
        report = service.run(
            queries,
            budget=budget,
            deadline_ms=args.deadline_ms,
            batch_deadline_ms=args.batch_deadline_ms,
            tracer=tracer,
            profile=args.profile,
            timeline=timeline,
        )
    finally:
        service.close()
    evaluation = None
    if args.slo is not None:
        # Evaluate before exporting so metrics.prom carries the SLO
        # gauges and trace.jsonl the alert spans.
        evaluation = _evaluate_slo_arg(args.slo, timeline,
                                       registry=service.metrics,
                                       tracer=tracer)
    print(report.render())
    if args.profile:
        from repro.reporting.trace import profile_table

        summary = report.profile_summary()
        if summary is not None:
            print()
            print(profile_table(summary))
    if evaluation is not None:
        from repro.reporting.monitor import slo_section

        print()
        print(slo_section(evaluation))
    if (tracer is not None or args.metrics_out is not None
            or args.timeline_dir is not None):
        _write_observability_artifacts(args, service, report, tracer,
                                       timeline)
    return 0


def _evaluate_slo_arg(slo_arg, timeline, registry=None, tracer=None):
    """Evaluate ``--slo FILE|default`` over a timeline and publish it."""
    from repro.observability.slo import (
        default_slos,
        evaluate_slos,
        load_slo_specs,
        publish_evaluation,
    )

    slos = default_slos() if slo_arg == "default" else load_slo_specs(
        slo_arg
    )
    evaluation = evaluate_slos(timeline, slos)
    publish_evaluation(evaluation, registry=registry, tracer=tracer)
    return evaluation


def _write_observability_artifacts(args, service, report, tracer,
                                   timeline=None) -> int:
    """Persist trace/profile/metrics files after a serve-batch run."""
    import json
    import os

    from repro.observability import render_prometheus, write_chrome_trace

    written = []
    if tracer is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "trace.jsonl")
        tracer.write_jsonl(trace_path)
        written.append(trace_path)
        chrome_path = os.path.join(args.trace_dir, "trace_chrome.json")
        write_chrome_trace(tracer.records(), chrome_path)
        written.append(chrome_path)
        prom_path = os.path.join(args.trace_dir, "metrics.prom")
        with open(prom_path, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(service.metrics))
        written.append(prom_path)
        if args.profile:
            profile_path = os.path.join(args.trace_dir, "profile.json")
            with open(profile_path, "w", encoding="utf-8") as fh:
                json.dump(report.profile_summary(), fh, indent=2)
            written.append(profile_path)
    if timeline is not None and args.timeline_dir is not None:
        from repro.observability.timeline import (
            render_openmetrics,
            write_timeline_jsonl,
        )

        os.makedirs(args.timeline_dir, exist_ok=True)
        timeline_path = os.path.join(args.timeline_dir, "timeline.jsonl")
        write_timeline_jsonl(timeline, timeline_path)
        written.append(timeline_path)
        om_path = os.path.join(args.timeline_dir, "timeline.om")
        with open(om_path, "w", encoding="utf-8") as fh:
            fh.write(render_openmetrics(timeline))
        written.append(om_path)
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(service.metrics))
        written.append(args.metrics_out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import os

    from repro.observability.timeline import read_timeline_jsonl
    from repro.reporting.monitor import monitor_report

    path = args.timeline
    if os.path.isdir(path):
        path = os.path.join(path, "timeline.jsonl")
    if not os.path.exists(path):
        print(f"error: no timeline.jsonl under {args.timeline} "
              "(record one with serve-batch --timeline-dir)",
              file=sys.stderr)
        return 1
    timeline = read_timeline_jsonl(path)
    evaluation = None
    if args.slo is not None:
        evaluation = _evaluate_slo_arg(args.slo, timeline)
    print(monitor_report(timeline, sliding=args.sliding,
                         evaluation=evaluation))
    return 0


def _trace_artifacts(path: str) -> tuple[str, str, str]:
    """(trace.jsonl, profile.json, metrics.prom) paths for a trace arg."""
    import os

    if os.path.isdir(path):
        base = path
        trace_path = os.path.join(base, "trace.jsonl")
    else:
        base = os.path.dirname(path)
        trace_path = path
    return (trace_path, os.path.join(base, "profile.json"),
            os.path.join(base, "metrics.prom"))


def _cmd_trace_report(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.observability import read_jsonl
    from repro.reporting.trace import trace_report

    path = args.trace
    trace_path, profile_path, metrics_path = _trace_artifacts(path)
    records = read_jsonl(trace_path) if os.path.exists(trace_path) else []
    profile = None
    if os.path.exists(profile_path):
        with open(profile_path, encoding="utf-8") as fh:
            profile = json.load(fh)
    if not records and profile is None:
        print(f"error: no trace.jsonl or profile.json under {path}",
              file=sys.stderr)
        return 1
    print(trace_report(records, profile))
    # A partially-populated directory is normal (no --profile, or metrics
    # exported elsewhere); note what is missing instead of erroring.
    if profile is None:
        print()
        print(f"note: no profile.json under {os.path.dirname(profile_path)}"
              " — device-cycle tables skipped (rerun serve-batch with "
              "--profile to collect them)")
    if not os.path.exists(metrics_path):
        print()
        print(f"note: no metrics.prom under {os.path.dirname(metrics_path)}"
              " — exported counters not shown")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.observability import analyze_trace, read_jsonl
    from repro.reporting.trace import attribution_report

    trace_path, _, _ = _trace_artifacts(args.trace)
    if not os.path.exists(trace_path):
        print(f"error: no trace.jsonl under {args.trace} "
              "(record one with serve-batch --trace-dir)", file=sys.stderr)
        return 1
    attribution = analyze_trace(read_jsonl(trace_path))
    if not attribution.waterfalls:
        print(f"error: no query spans in {trace_path} — nothing to "
              "attribute", file=sys.stderr)
        return 1
    print(attribution_report(attribution))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(attribution.to_dict(), fh, indent=2)
        print()
        print(f"wrote {args.json}")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        (spec.key, spec.short_name, spec.paper_name, spec.description,
         ",".join(str(k) for k in spec.k_range))
        for spec in DATASETS.values()
    ]
    print(render_table(("key", "short", "paper dataset", "topology",
                        "k sweep"), rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-hop constrained s-t simple path enumeration "
                    "(PEFP reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_pe_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--num-pes", type=int, default=1, metavar="N",
                       help="processing elements per simulated device "
                            "(default 1; N>1 partitions the vertex set "
                            "and routes frontier records between PEs)")
        p.add_argument("--pe-partition", default="range",
                       choices=("range", "hash"),
                       help="vertex-ownership strategy for --num-pes > 1 "
                            "(default range)")

    q = sub.add_parser("query", help="enumerate s-t k-paths on a graph")
    q.add_argument("graph", help="edge-list file or a dataset key "
                                 "(see `repro datasets`)")
    q.add_argument("-s", "--source", type=int, required=True)
    q.add_argument("-t", "--target", type=int, required=True)
    q.add_argument("-k", "--max-hops", type=int, required=True)
    q.add_argument(
        "--algorithm",
        default="pefp",
        choices=sorted(_CPU_ALGORITHMS) + list(VARIANTS),
        help="enumeration algorithm (default: pefp on the simulated FPGA)",
    )
    q.add_argument("--limit", type=int, default=20,
                   help="max paths to print (default 20)")
    q.add_argument("--all", action="store_true", help="print every path")
    q.add_argument("--device-report", action="store_true",
                   help="print BRAM/DRAM utilization after the query "
                        "(FPGA variants only)")
    _add_pe_flags(q)
    q.set_defaults(func=_cmd_query)

    s = sub.add_parser("stats", help="Table II statistics of a graph")
    s.add_argument("graph")
    s.add_argument("--samples", type=int, default=32,
                   help="BFS sample size for diameter estimates")
    s.set_defaults(func=_cmd_stats)

    d = sub.add_parser("datasets", help="list the 12 built-in stand-ins")
    d.set_defaults(func=_cmd_datasets)

    c = sub.add_parser(
        "compare",
        help="run two algorithms on the same query and diff their answers",
    )
    c.add_argument("graph")
    c.add_argument("-s", "--source", type=int, required=True)
    c.add_argument("-t", "--target", type=int, required=True)
    c.add_argument("-k", "--max-hops", type=int, required=True)
    c.add_argument("--left", default="pefp",
                   choices=sorted(_CPU_ALGORITHMS) + list(VARIANTS))
    c.add_argument("--right", default="join",
                   choices=sorted(_CPU_ALGORITHMS) + list(VARIANTS))
    c.set_defaults(func=_cmd_compare)

    b = sub.add_parser(
        "bench",
        help="regenerate one paper experiment (tab2, fig8..fig15, tab3) "
             "or drive continuous benchmarking "
             "(run | compare | report | trend | attribute | list)",
    )
    b.add_argument("experiment",
                   help="experiment id (e.g. fig8, fig14, tab3) or a "
                        "perfbench command: run, compare, report, "
                        "trend, attribute, list")
    b.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments of the chosen command "
                        "(see `repro bench run --help`)")
    b.set_defaults(func=_cmd_bench)

    sv = sub.add_parser(
        "serve-batch",
        help="serve a generated query batch on N engines and print "
             "latency/throughput/cache metrics",
    )
    sv.add_argument("graph", help="edge-list file or a dataset key")
    sv.add_argument("-k", "--max-hops", type=int, required=True)
    sv.add_argument("-n", "--num-queries", type=int, default=100,
                    help="batch size (default 100; the paper ships 1,000)")
    sv.add_argument("--engines", type=int, default=2,
                    help="simulated engine instances (default 2)")
    sv.add_argument("--scheduler", default="round-robin",
                    choices=("round-robin", "longest-first",
                             "work-stealing"))
    sv.add_argument("--backend", default="thread",
                    choices=("thread", "process"),
                    help="engine dispatch: 'thread' (in-process, engines "
                         "in order on the calling thread; default) or "
                         "'process' (one worker process per engine; real "
                         "host-side parallelism, identical answers)")
    sv.add_argument("--algorithm", default="pefp", choices=list(VARIANTS),
                    help="PEFP variant each engine runs")
    sv.add_argument("--seed", type=int, default=7,
                    help="query-generation seed")
    sv.add_argument("--sharing", action="store_true",
                    help="cross-query work sharing: dedupe identical "
                         "(s,t,k) queries via the result cache and run "
                         "same-source queries as one group per engine "
                         "(identical answers, smaller modelled makespan)")
    sv.add_argument("--max-results", type=int, default=None,
                    help="per-query result budget: stop a kernel after "
                         "this many paths (answers are exact subsets)")
    sv.add_argument("--cycle-budget", type=int, default=None,
                    help="per-query device cycle budget (checked at batch "
                         "boundaries; overshoot is at most one batch)")
    sv.add_argument("--deadline-ms", type=float, default=None,
                    help="per-query modelled deadline, mapped to a device "
                         "cycle budget at the kernel frequency")
    sv.add_argument("--batch-deadline-ms", type=float, default=None,
                    help="batch-level modelled deadline: engines past it "
                         "serve remaining queries degraded (tightly "
                         "budgeted) instead of dropping them")
    sv.add_argument("--inject-failures", type=int, default=0,
                    help="fault injection: this many engines die mid-batch; "
                         "their work requeues onto survivors")
    sv.add_argument("--failure-seed", type=int, default=None,
                    help="seed the fault-injection plan (which engines die, "
                         "after how many runs); default: first N engines "
                         "after one run each")
    sv.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="record a span trace and write trace.jsonl, "
                         "trace_chrome.json (chrome://tracing) and "
                         "metrics.prom into DIR")
    sv.add_argument("--profile", action="store_true",
                    help="collect per-batch device cycle breakdowns; "
                         "prints a profile summary and, with --trace-dir, "
                         "writes profile.json")
    sv.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="write the metrics registry to FILE in Prometheus "
                         "text exposition format")
    sv.add_argument("--timeline-dir", default=None, metavar="DIR",
                    help="record windowed telemetry on the modelled clock "
                         "and write timeline.jsonl + timeline.om "
                         "(OpenMetrics with timestamps) into DIR "
                         "(render with `repro monitor DIR`)")
    sv.add_argument("--timeline-window", type=float, default=1e-3,
                    metavar="SECONDS",
                    help="tumbling-window width in modelled seconds "
                         "(default 1e-3)")
    sv.add_argument("--slo", default=None, metavar="FILE|default",
                    help="evaluate SLO burn rates over the windowed "
                         "telemetry: 'default' for the stock latency/"
                         "availability objectives, or a JSON spec file; "
                         "alerts land in the trace and metrics exports")
    _add_pe_flags(sv)
    sv.set_defaults(func=_cmd_serve_batch)

    mon = sub.add_parser(
        "monitor",
        help="render recorded windowed telemetry: per-window tables, "
             "sparklines and (with --slo) burn-rate alerts",
    )
    mon.add_argument("timeline",
                     help="timeline directory (see serve-batch "
                          "--timeline-dir), or a timeline.jsonl file")
    mon.add_argument("--sliding", type=int, default=1, metavar="N",
                     help="merge each trailing N tumbling windows per row "
                          "(default 1: raw tumbling view)")
    mon.add_argument("--slo", default=None, metavar="FILE|default",
                     help="also evaluate SLO burn rates over the timeline")
    mon.set_defaults(func=_cmd_monitor)

    tre = sub.add_parser(
        "trace-report",
        help="summarise a recorded trace directory (see serve-batch "
             "--trace-dir/--profile)",
    )
    tre.add_argument("trace",
                     help="trace directory, or a trace.jsonl file")
    tre.set_defaults(func=_cmd_trace_report)

    an = sub.add_parser(
        "analyze",
        help="latency attribution of a recorded trace: per-query "
             "waterfalls, critical path, engine timelines, tail "
             "attribution",
    )
    an.add_argument("trace",
                    help="trace directory, or a trace.jsonl file")
    an.add_argument("--json", default=None, metavar="FILE",
                    help="also write the attribution as JSON to FILE")
    an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
