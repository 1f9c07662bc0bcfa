"""The oracle harness: one configuration space, one oracle, declared classes.

PEFP's correctness argument (paper, Section VI-A) is that expansion and
verification never prune a valid path and never emit an invalid one;
shared serving makes the same demand of every answer.  This module holds
everything ``test_oracle.py`` needs to check that contract once, over two
configuration spaces:

* the **engine space**: the thirteen enumerators of the package, and the
  device engines (vectorised ``PEFPEngine``, the straight-line
  ``ReferencePEFPEngine`` and ``run_multi_pe`` forced at N=1) under every
  ``num_pes`` x partition x :class:`PEFPConfig` x budget x output mode x
  barrier source;
* the **service space**: ``BatchQueryService`` under every executor x
  scheduler x engine count x sharing x budget or deadline x fault seed x
  batch shape, served as one batch or as two batches on one service under
  different budgets.

Axes are combined by an all-pairs covering design (:func:`all_pairs`)
plus the specific combinations older suites pinned, so every pair of
axis values meets at least once.

**The oracle** is :class:`~repro.baselines.NaiveDFS` (``dfs_naive``): its
path set is the answer.  It is itself checked against an independent
recursive search on every digraph with four vertices
(``test_exhaustive_small_graphs.py``).  A run without a budget must
return exactly the oracle's set; a budgeted run returns a subset, equal
to it unless the run says ``truncated``.

Invariance classes (each asserted by ``test_oracle.py`` through the
fingerprint function named in brackets):

1. **Engine byte class** [:func:`engine_bytes`].  Vectorised, reference
   and the forced driver at N=1 agree exactly on the paths in order,
   cycles, ``truncated``, :class:`EngineStats`, the BRAM/DRAM counters
   (port traffic and allocations), the :class:`DeviceProfile` and the
   span stream.  On Pre-BFS rows the vectorised and PE-count engines
   also run with Pre-BFS's id table (``vertex_ids``): their paths are
   the same run's paths mapped through ``translate_path``, and every
   other field is equal.
2. **PE class** [:func:`pe_answer`].  Every ``num_pes`` x partition
   gives the N=1 sorted path set, ``stats.results`` and ``truncated``
   with no budget; with a result budget, the same path count,
   ``stats.results`` and ``truncated``.  Any budgeted answer is a subset
   of the full one.  ``accounted_cycles == total_cycles`` holds
   and a repeat run is byte-equal.  Only the multi-PE goldens pin N>1
   cycles.
3. **Service answer class** [:func:`service_answer`].  Across executor x
   scheduler x engine count x sharing x fault seed, with no budget, a
   result or cycle budget, or a per-query deadline: ``path_output_bytes()``
   and per-query ``fpga_cycles``, ``engine_stats`` and ``truncated``.
4. **Executor class** [:func:`executor_view`].  Across the in-process
   (``inline``) and process executors, under one static scheduler,
   sharing setting and fault seed: the assignment, requeued queries,
   engine failures, failed engines, degraded queries, the device-profile
   summary and every metric counter but the cache counters (``*_hits``,
   ``*_misses``, ``deduped_queries``, ``shared_frontiers``).  When the memo topology
   matches too (the run is fault-free, and sharing is on or the batch
   has no duplicate queries), also the cache counters, per-query
   ``preprocess_seconds``, per-engine host and device busy seconds, the
   latency count and maximum, and the engine-track span streams (name,
   modelled seconds, attributes, order within each track).  A second
   in-process run (``repeat``) repeats the first in the whole class,
   under every scheduler, sharing setting and fault seed: the in-process
   executor serves its engines in order on the calling thread, and its
   work stealing follows the modelled clock.

Declared non-invariances (documented here, deliberately not asserted):

* Batch-deadline degradation depends on sharing and on the scheduler:
  it follows each engine's modelled busy time, which sharing shrinks.
  Batch-deadline answers are therefore held to the oracle and to the
  executor class only.
* With duplicate queries and sharing off, per-query T1, the cache
  counters and the span streams depend on which engine builds the
  Pre-BFS memo first.  In-process the serving order fixes that, so a
  rerun repeats them (asserted on ``generate_queries(gnm_random(35, 160,
  seed=21), 4, 24, seed=3)``, where the query (1, 4, 4) sits at indices
  4 and 9).  Process workers keep private memos, so there a duplicate
  served on another worker misses: on the fixed shared batches,
  ``prebfs_hits`` reads 0 to 2 against 6 inline.
* Under faults, a surviving worker process cannot see the memos a
  failed worker built before it failed, so the process executor's cache
  counters and host times differ from the in-process executors' (one
  shared cache).  In the pinned process, round-robin, 3-engine,
  sharing, fault-seed-2 row, ``deduped_queries`` reads 5 against 6
  inline.
* Across process workers, work stealing's assignment depends on
  completion order; there it is held to the answer class and to "the
  assignment partitions the batch".
"""

from __future__ import annotations

import itertools
import random
import zlib
from functools import lru_cache

import numpy as np
from hypothesis import seed, settings, strategies as st

from repro.baselines import (BCDFS, TDFS, TDFS2, HPIndex, Join, NaiveBFS,
                             NaiveDFS, Yens)
from repro.core.config import PEFPConfig, QueryBudget
from repro.core.engine import PEFPEngine
from repro.core.multi_pe import run_multi_pe
from repro.fpga.device import DeviceConfig
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.query import Query
from repro.host.system import PEFPEnumerator
from repro.observability.tracer import Tracer
from repro.preprocess.bfs import distances_with_default, k_hop_bfs
from repro.preprocess.prebfs import pre_bfs
from repro.service import BatchQueryService
from repro.workloads import generate_queries, generate_shared_batch

from engine_reference import ReferencePEFPEngine

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_ORACLE = NaiveDFS()


def oracle_paths(graph: CSRGraph, query: Query) -> frozenset:
    """The ``dfs_naive`` path set of ``query``."""
    return _ORACLE.enumerate_paths(graph, query).path_set()


def assert_answer(got, expected: frozenset, truncated: bool,
                  budgeted: bool, where) -> None:
    """``got`` is the oracle set, or a subset of it when budgeted that is
    proper only if the run reports ``truncated``."""
    got = frozenset(got)
    if budgeted:
        assert got <= expected, where
        assert truncated or got == expected, where
    else:
        assert got == expected, where
        assert not truncated, where


# ---------------------------------------------------------------------------
# The covering design
# ---------------------------------------------------------------------------

def all_pairs(axes: dict, pinned=(), valid=lambda row: True) -> list[dict]:
    """Rows that cover every value pair of every two axes.

    ``pinned`` rows come first and count towards coverage.  ``valid``
    judges a partial row (a dict over some of the axes); a pair it
    rejects on its own is never required.  The greedy fill is
    deterministic: each new row starts from the first uncovered pair and
    gives every other axis the value that covers most new pairs.
    """
    names = list(axes)
    pairs = [(a, b) for a, b in itertools.combinations(names, 2)]
    uncovered = {
        (a, va, b, vb)
        for a, b in pairs
        for va in axes[a] for vb in axes[b]
        if valid({a: va, b: vb})
    }
    rows: list[dict] = []

    def take(row):
        rows.append(row)
        uncovered.difference_update(
            (a, row[a], b, row[b]) for a, b in pairs)

    def gain(row, name, value):
        trial = {**row, name: value}
        if not valid(trial):
            return -1
        return sum((a, trial[a], b, trial[b]) in uncovered
                   for a, b in pairs if a in trial and b in trial)

    for row in pinned:
        take(dict(row))
    order = {(a, va, b, vb): (names.index(a), axes[a].index(va),
                              names.index(b), axes[b].index(vb))
             for a, va, b, vb in uncovered}
    while uncovered:
        a, va, b, vb = min(uncovered, key=order.__getitem__)
        row = {a: va, b: vb}
        for name in names:
            if name not in row:
                row[name] = max(axes[name],
                                key=lambda v: gain(row, name, v))
        take({name: row[name] for name in names})
    return rows


def row_id(row: dict) -> str:
    return "-".join(str(v) for v in row.values())


def seeded(test_id: str, examples: int):
    """Decorators that derandomize a hypothesis check by its test id, so
    a failing draw reproduces from the id alone."""
    def wrap(fn):
        fn = settings(max_examples=examples, deadline=None,
                      database=None)(fn)
        return seed(zlib.crc32(test_id.encode()))(fn)
    return wrap


# ---------------------------------------------------------------------------
# Graphs: hypothesis draws and the fixed seeded graphs
# ---------------------------------------------------------------------------

#: graph shapes every draw picks from.  "multi" graphs carry self-loops
#: and parallel edges (built straight into CSR; ``from_edges`` drops
#: them); a "hub" source reaches the target through up to 24 middle
#: vertices, so its range outgrows a processing batch.
SHAPES = ("random", "multi", "complete", "hub", "isolated_source",
          "sink_source", "unreachable")


def _csr(n: int, edges) -> CSRGraph:
    """CSR with rows sorted, keeping self-loops and parallel edges."""
    edges = sorted(edges)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _ in edges:
        indptr[u + 1] += 1
    return CSRGraph(np.cumsum(indptr),
                    np.array([v for _, v in edges], dtype=np.int64))


@st.composite
def graph_queries(draw, max_vertices: int = 9):
    """A ``(shape, graph, query)`` draw, degenerate shapes included:
    isolated or sink source, unreachable target, self-loops, parallel
    edges, complete graphs, hubs, ``k = 1`` and ``k >= |V|``."""
    shape = draw(st.sampled_from(SHAPES))
    if shape == "hub":
        n = draw(st.integers(3, 26))
        mids = [v for v in range(n) if v not in (0, n - 1)]
        return shape, _csr(n, [(0, v) for v in mids]
                           + [(v, n - 1) for v in mids]), Query(0, n - 1, 3)
    n = draw(st.integers(2, 6 if shape == "complete" else max_vertices))
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 2))
    t += t >= s
    if shape == "complete":
        edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    else:
        pool = [(u, v) for u in range(n) for v in range(n)
                if u != v or shape == "multi"]
        density = draw(st.floats(0.1, 0.6))
        edges = draw(st.lists(st.sampled_from(pool),
                              max_size=int(len(pool) * density) + 1,
                              unique=shape != "multi"))
    if shape == "isolated_source":
        edges = [e for e in edges if s not in e]
    elif shape == "sink_source":
        edges = [e for e in edges if e[0] != s]
    elif shape == "unreachable":
        edges = [e for e in edges if e[1] != t]
    k = draw(st.integers(1, n + 1))
    return shape, _csr(n, edges), Query(s, t, k)


#: the fixed seeded graphs (the multi-PE goldens are recorded on these).
FIXED_GRAPHS = {
    "chung_lu": lambda: G.chung_lu(60, 320, seed=11),
    "grid": lambda: G.grid_graph(7, 7),
    "pref_attach": lambda: G.preferential_attachment(70, 3, seed=5),
}


def gapped_graph() -> CSRGraph:
    """Rows of sinks sit between non-empty rows, singly and in runs: a
    record's row end then equals the start of the next non-empty row and
    the end of every empty row between them."""
    sinks = {1, 2, 5, 8, 9, 10}
    n = 14
    edges = [(u, (u + d) % n) for u in range(n) if u not in sinks
             for d in (1, 2, 3, 5)]
    return CSRGraph.from_edges(n, edges)


#: the gapped-graph case: DFS and FIFO, on the raw graph and on Pre-BFS
#: (with its id table), on one PE and four.
GAPPED_ROWS = [
    {"config": config, "budget": "none", "num_pes": 4, "partition": "hash",
     "output": "collect", "prep": prep}
    for config in ("default", "fifo_scheduler")
    for prep in ("prebfs", "zero")
]


def _graphs():
    return [(name, build()) for name, build in FIXED_GRAPHS.items()]


def _prepared(graph, s, t, k):
    """Pre-BFS the query; None when the subgraph is empty."""
    sub = pre_bfs(graph, Query(s, t, k))
    if sub.is_empty:
        return None
    return sub.subgraph, sub.source, sub.target, sub.barrier


def _queries(graph, k, count, seed):
    """``count`` seeded queries with a non-empty Pre-BFS subgraph, as
    ``(subgraph, source, target, barrier)``."""
    rng = random.Random(seed)
    n = graph.num_vertices
    out = []
    while len(out) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        prep = _prepared(graph, s, t, k)
        if prep is not None:
            out.append(prep)
    return out


@lru_cache(maxsize=None)
def fixed_case(name: str, k: int, seed: int) -> tuple[Query, frozenset]:
    """The seeded query with the largest answer among eight reachable
    ones on a fixed graph (so budgets and deadlines have work to cut),
    and its oracle answer."""
    graph = FIXED_GRAPHS[name]()
    cases = [(q, oracle_paths(graph, q))
             for q in generate_queries(graph, k, 8, seed=seed)]
    return max(cases, key=lambda case: len(case[1]))


# ---------------------------------------------------------------------------
# The engine space
# ---------------------------------------------------------------------------

#: every enumerator in the package, each held to the oracle's path set.
ENUMERATORS = [
    NaiveDFS(), NaiveBFS(), TDFS(), TDFS2(), BCDFS(), Join(), Yens(),
    HPIndex(hot_fraction=0.1),
] + [PEFPEnumerator(variant) for variant in (
    "pefp", "pefp-no-pre-bfs", "pefp-no-batch-dfs", "pefp-no-cache",
    "pefp-no-datasep")]

CONFIGS = {
    "default": PEFPConfig(),
    "tiny_buffer": PEFPConfig(buffer_capacity_paths=4, theta1=3, theta2=8),
    "no_cache": PEFPConfig(use_cache=False),
    "fifo_scheduler": PEFPConfig(use_batch_dfs=False, theta2=16),
    "partial_caches": PEFPConfig(graph_cache_words=80,
                                 barrier_cache_words=20),
    "no_datasep": PEFPConfig(use_data_separation=False),
    #: the smallest areas: one-entry batches, a two-path buffer and
    #: caches of a few words.
    "tiny_areas": PEFPConfig(theta1=1, theta2=1, buffer_capacity_paths=2,
                             graph_cache_words=8, barrier_cache_words=4),
}

BUDGETS = {
    "none": None,
    "result_budget": QueryBudget(max_results=9),
    "cycle_budget": QueryBudget(max_cycles=500),
}

#: the (label, config, budget) runs the multi-PE goldens were recorded
#: under, in recording order.
N1_CONFIGS = [
    (label, CONFIGS[label], None)
    for label in ("default", "tiny_buffer", "no_cache", "fifo_scheduler",
                  "partial_caches")
] + [
    (label, CONFIGS["default"], BUDGETS[label])
    for label in ("result_budget", "cycle_budget")
]

ENGINE_AXES = {
    "config": tuple(CONFIGS),
    "budget": tuple(BUDGETS),
    "num_pes": (1, 2, 4, 8),
    "partition": ("range", "hash"),
    #: ``stream`` hands each path to ``on_result`` with
    #: ``collect_paths=False``.
    "output": ("collect", "stream"),
    #: where the barrier comes from: Pre-BFS (the system's path), the
    #: raw graph with exact k-hop distances, or the raw graph with an
    #: all-zero barrier (no pruning; children may reach the hop bound).
    "prep": ("prebfs", "distance", "zero"),
}

#: combinations older suites pinned: the forced-driver gate over every
#: golden configuration, and the multi-PE budget runs.
ENGINE_PINNED = [
    {"config": c, "budget": b, "num_pes": n, "partition": p,
     "output": "collect", "prep": "prebfs"}
    for c, b, n, p in [
        ("tiny_buffer", "none", 4, "hash"),
        ("fifo_scheduler", "none", 8, "hash"),
        ("default", "result_budget", 8, "range"),
        ("default", "cycle_budget", 4, "hash"),
    ]
]

ENGINE_ROWS = all_pairs(ENGINE_AXES, ENGINE_PINNED)


def engine_input(graph: CSRGraph, query: Query, prep: str):
    """``(graph, s, t, barrier, translate, vertex_ids)`` for an engine
    run, or None when Pre-BFS proves the answer empty (the system's
    short-circuit).  ``vertex_ids`` is Pre-BFS's id table (None on the
    raw graph)."""
    s, t, k = query.source, query.target, query.max_hops
    if prep == "prebfs":
        sub = pre_bfs(graph, query)
        if sub.is_empty:
            return None
        return (sub.subgraph, sub.source, sub.target, sub.barrier,
                sub.translate_path, sub.old_of_new.tolist())
    if prep == "distance":
        sd_t = k_hop_bfs(graph.reverse(), t, k)
        barrier = distances_with_default(sd_t, k + 1)
    else:
        barrier = np.zeros(graph.num_vertices, dtype=np.int64)
    return graph, s, t, barrier, lambda path: path, None


def run_engine(kind: str, inp, k: int, row: dict, vertex_ids=None):
    """One engine run of ``row``; returns ``(result, streamed, tracer)``.

    ``kind`` is ``vectorised``, ``reference``, ``driver`` (``run_multi_pe``
    forced at N=1), ``pes`` (``PEFPEngine`` at the row's ``num_pes``) or
    ``plain`` (``vectorised`` without profile or tracer).  Every other
    kind runs profiled and traced.  ``vertex_ids`` goes to the
    ``vectorised`` and ``pes`` engines.
    """
    graph, s, t, barrier = inp[:4]
    config, budget = CONFIGS[row["config"]], BUDGETS[row["budget"]]
    streamed: list = []
    observe = kind != "plain"
    kwargs = {"budget": budget, "profile": observe,
              "tracer": Tracer() if observe else None}
    if row["output"] == "stream":
        kwargs.update(on_result=streamed.append, collect_paths=False)
    if kind == "reference":
        result = ReferencePEFPEngine(config=config).run(
            graph, s, t, k, barrier, **kwargs)
    elif kind == "driver":
        result = run_multi_pe(PEFPEngine(config=config), graph, s, t, k,
                              barrier, **kwargs)
    else:
        dcfg = None
        if kind == "pes":
            dcfg = DeviceConfig(num_pes=row["num_pes"],
                                pe_partition=row["partition"])
        result = PEFPEngine(config=config, device_config=dcfg).run(
            graph, s, t, k, barrier, vertex_ids=vertex_ids, **kwargs)
    return result, streamed, kwargs["tracer"]


def engine_bytes(result, streamed, tracer) -> dict:
    """Engine byte class: everything the three N=1 engines share (and a
    repeat run at any PE count reproduces)."""
    out = {
        "paths": result.paths,
        "streamed": streamed,
        "cycles": result.cycles,
        "truncated": result.truncated,
        "stats": result.stats,
        "memory": result.device.memory_counters(),
    }
    if result.profile is not None:
        out["profile"] = result.profile.to_dict()
        out["batches"] = result.profile.batches
        out["refills"] = result.profile.refills
    if tracer is not None:
        out["spans"] = [(r.name, r.track, r.parent_id, r.modelled_seconds,
                         r.attrs) for r in tracer.records()]
    return out


def id_table_bytes(kind: str, inp, k: int, row: dict, run) -> tuple:
    """The engine byte class of ``kind`` run with Pre-BFS's id table, and
    what it must equal: ``run`` (the same kind without the table) with
    its paths mapped through ``translate``."""
    translate, ids = inp[4], inp[5]
    want = engine_bytes(*run)
    for key in ("paths", "streamed"):
        want[key] = [translate(p) for p in want[key]]
    return engine_bytes(*run_engine(kind, inp, k, row, ids)), want


def pe_answer(result, streamed, budget: str) -> dict:
    """PE class: what every PE count and partition agrees on.  Under a
    result budget, delivery order across PEs decides which paths fill the
    budget, so only the count is compared there."""
    paths = sorted(result.paths or streamed)
    return {
        "paths": len(paths) if budget == "result_budget" else paths,
        "results": result.stats.results,
        "truncated": result.truncated,
    }


# ---------------------------------------------------------------------------
# The service space
# ---------------------------------------------------------------------------

#: ``BatchQueryService`` keyword arguments of each executor.
EXECUTORS = {
    "inline": {},
    "process": {"backend": "process"},
}

STATIC_SCHEDULERS = ("round-robin", "longest-first")

#: per-batch limits: ``service.run`` keyword arguments.
LIMITS = {
    "none": {},
    "result_budget": {"budget": QueryBudget(max_results=5)},
    "cycle_budget": {"budget": QueryBudget(max_cycles=400)},
    "deadline": {"deadline_ms": 0.002},
    "batch_deadline": {"batch_deadline_ms": 0.01},
}

SERVICE_AXES = {
    #: ``repeat`` serves in-process like ``inline`` and is held to an
    #: ``inline`` run of the same row by the whole executor class.
    "executor": ("inline", "repeat", "process"),
    "scheduler": STATIC_SCHEDULERS + ("work-stealing",),
    "engines": (1, 2, 3, 4),
    "sharing": (False, True),
    "limit": tuple(LIMITS),
    #: ``None`` runs fault-free; a seed injects one failing engine (seed 2
    #: fails it after one query, seed 4 after two, at every engine count).
    "faults": (None, 2, 4),
    #: ``shared`` batches repeat queries and sources; ``distinct`` ones
    #: do not.  Sharing only runs on shared batches.
    "batch": ("distinct", "shared"),
    #: 2 serves the batch after a first batch under another limit, on
    #: the same service (its caches and retired engines carry over).
    "batches": (1, 2),
    #: device profiles ride back from every executor.
    "profile": (False, True),
}


def _service_valid(row: dict) -> bool:
    if row.get("faults") is not None and row.get("engines") == 1:
        return False
    return not (row.get("sharing") and row.get("batch") == "distinct")


#: combinations older suites pinned: process parity under a batch
#: deadline, under faults and in host seconds under sharing, a repeat
#: run under a batch deadline, and a sharing service reused across
#: budgets (the result-cache key must carry the budget).
SERVICE_PINNED = [dict(zip(SERVICE_AXES, values)) for values in [
    ("process", "longest-first", 2, False, "batch_deadline", None,
     "distinct", 1, False),
    ("process", "round-robin", 3, True, "none", 2, "shared", 1, True),
    ("process", "round-robin", 2, True, "none", None, "shared", 1, False),
    ("repeat", "longest-first", 3, False, "batch_deadline", None,
     "distinct", 1, True),
    ("repeat", "round-robin", 1, True, "result_budget", None, "shared", 2,
     False),
    ("inline", "longest-first", 2, True, "none", None, "shared", 2, False),
]]

SERVICE_ROWS = all_pairs(SERVICE_AXES, SERVICE_PINNED, _service_valid)

#: the fixed graphs every service row serves (hypothesis draws add more
#: for the in-process executors).
SERVICE_GRAPHS = ("chung_lu", "pref_attach")


def batch_for(graph: CSRGraph, kind: str, seed: int = 3) -> list[Query]:
    if kind == "shared":
        return generate_shared_batch(graph, 4, 12, seed=seed,
                                     duplicate_fraction=0.5, source_pool=4)
    return generate_queries(graph, 4, 10, seed=seed)


def first_limit(limit: str) -> str:
    """The limit of the first batch of a two-batch row: always another
    result-cache key, so the second batch cannot reuse its answers."""
    return "none" if limit == "result_budget" else "result_budget"


#: the simplest service configuration, whose answers the service answer
#: class compares every row against.
REFERENCE_ROW = {"executor": "inline", "scheduler": "round-robin",
                 "engines": 1, "sharing": False, "faults": None,
                 "batches": 1, "profile": False}


def serve(graph, queries, row: dict, executor: str | None = None):
    """Serve ``queries`` under ``row``; returns ``(report, tracer)``."""
    executor = executor or row["executor"]
    service = BatchQueryService(
        graph, num_engines=row["engines"], scheduler=row["scheduler"],
        sharing=row["sharing"], inject_failures=int(row["faults"] is not None),
        failure_seed=row["faults"],
        **EXECUTORS.get(executor, EXECUTORS["inline"]))
    tracer = Tracer()
    try:
        if row["batches"] == 2:
            service.run(queries, **LIMITS[first_limit(row["limit"])])
        report = service.run(queries, tracer=tracer, profile=row["profile"],
                             **LIMITS[row["limit"]])
    finally:
        service.close()
    assert tracer.open_spans == 0
    return report, tracer


def service_answer(report) -> dict:
    """Service answer class."""
    return {
        "output_bytes": report.path_output_bytes(),
        "cycles": [r.fpga_cycles for r in report.reports],
        "engine_stats": [r.engine_stats for r in report.reports],
        "truncated": [r.truncated for r in report.reports],
    }


def _cache_counter(name: str) -> bool:
    return (name.endswith(("_hits", "_misses"))
            or name in ("deduped_queries", "shared_frontiers"))


def executor_view(report, tracer, memo: bool) -> dict:
    """Executor class.  ``memo`` says every executor's memo topology is
    the same (fault-free, and sharing on or no duplicate queries); only
    then are the cache counters, host times and spans compared."""
    counters = report.metrics.snapshot()["counters"]
    out = {
        "assignment": report.assignment,
        "requeued": report.requeued_queries,
        "engine_failures": report.engine_failures,
        "failed_engines": report.failed_engines,
        "degraded": report.metrics.counter("degraded_queries"),
        "counters": {name: n for name, n in counters.items()
                     if memo or not _cache_counter(name)},
        "profile": report.profile_summary(),
    }
    if memo:
        tracks: dict[str, list] = {}
        for r in tracer.records():
            if r.track.startswith("engine"):
                tracks.setdefault(r.track, []).append(
                    (r.name, r.modelled_seconds, r.attrs))
        latency = report.latency
        out.update(
            preprocess=[r.preprocess_seconds for r in report.reports],
            host=report.engine_host_seconds,
            device=report.engine_device_seconds,
            latency=(latency.count, latency.maximum),
            spans=tracks,
        )
    return out
