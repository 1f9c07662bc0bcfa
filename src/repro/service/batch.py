"""The multi-engine batch query service.

:class:`BatchQueryService` is the serving layer the paper's evaluation
implies but never names: 1,000 queries arrive as one batch against a
resident graph, per-graph preprocessing artifacts (the reverse CSR, memoised
Pre-BFS results) are shared across all of them, and the batch is dispatched
over N engine instances — each a full :class:`PathEnumerationSystem` whose
kernel runs keep their own per-device cycle accounting.

Dispatch is one loop over one kind of work:

- every query is a member of a group (source groups under sharing,
  singletons otherwise — :func:`repro.service.scheduler.query_groups`),
  and the scheduler places whole groups;
- :func:`dispatch` is the coordinator loop: each round runs the surviving
  engines over their work — a static list per engine, or the groups in
  steal order — then regroups whatever failed engines left unserved and
  either deals it over the survivors (static schedulers) or steals it
  again (work stealing);
- :func:`serve_source` is the per-engine loop every executor runs: serve
  each member through :class:`EngineServer`, stamp the answer with what
  the coordinator observes, hand it back, and return the unserved
  remainder on :class:`~repro.errors.EngineFailure`;
- the coordinator observes every delivered answer once, in delivery
  order (:func:`observe_report`): the metrics and timelines of a batch
  are a projection of its answers, whichever executor served them.

Two executors run a round:

- in-process (``backend="thread"``, the default): the engines run in
  order on the calling thread.  They overlap *modelled* device time
  only — each engine advances its own simulated device clock — since the
  host-side enumeration that produces those clocks is pure Python.
  Work stealing follows the modelled clock too: the engine with the
  least modelled busy time (host + device) takes the next group, ties
  going to the lowest index, which is what stealing does at modelled
  speed, and a rerun repeats it exactly;
- worker processes (``backend="process"``, see
  :mod:`repro.service.parallel`): the graph and its reverse CSR ship to
  each worker once, and each worker runs :func:`serve_source` on its own
  engine.  Host-side enumeration then runs genuinely in parallel, which
  is where real wall-clock scaling comes from; answers and modelled
  device numbers are identical to the in-process executor's (the oracle
  harness asserts this).

Robustness layer
----------------
A single heavy query (large ``k``, dense neighbourhood) can otherwise
dominate an engine for the whole batch, so serving supports graceful
degradation end to end:

- a per-query :class:`~repro.core.config.QueryBudget` (result and/or
  device-cycle caps) bounds every kernel run; truncated answers are exact
  subsets of the full answer and are flagged on the report;
- ``deadline_ms`` maps a per-query modelled wall deadline to a device
  cycle budget (``deadline x kernel frequency``);
- ``batch_deadline_ms`` is a batch-level deadline: an engine whose own
  modelled timeline (host + device busy so far) has passed it *degrades*
  its remaining queries to tightly budgeted runs instead of dropping them;
- an engine that raises :class:`~repro.errors.EngineFailure` mid-batch
  (see :class:`FlakyEngine` for fault injection) is retired and its
  unfinished queries are requeued onto the surviving engines in the next
  round.

Latency, throughput, cache, robustness and per-engine utilization metrics
land in the service's cumulative
:class:`repro.service.metrics.MetricsRegistry`; the returned
:class:`ServiceBatchReport` summarises its own batch from its answers.
Engine busy time is split into host (``T1`` preprocessing) and device
(``T2`` kernel) seconds: the engines overlap *modelled* device time,
while all host preprocessing shares one modelled CPU (and, in-process,
one real interpreter thread).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from repro.core.config import QueryBudget
from repro.errors import ConfigError, EngineFailure, ServiceError
from repro.fpga.device import WORD_BYTES
from repro.fpga.profile import DeviceProfile, aggregate_profiles
from repro.graph.csr import CSRGraph
from repro.host.cost_model import CpuCostModel, OpCounter
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem, ServedAnswer
from repro.observability.tracer import NULL_TRACER
from repro.service.cache import CACHE_STAT_KEYS, GraphArtifactCache
from repro.service.metrics import (
    LatencySummary,
    MetricsRegistry,
    MetricsTimeline,
)
from repro.service.scheduler import (
    SCHEDULER_NAMES,
    SCHEDULERS,
    WORK_STEALING,
    Assignment,
    query_groups,
    requeue,
    steal_order,
)

#: sharing/lifecycle counters re-exported under their report-level names
#: (``ServiceBatchReport.deduped_queries`` et al.) so the Prometheus
#: exposition carries the same vocabulary the reports and docs use.
SHARING_COUNTER_ALIASES = {
    "deduped_queries": "result_hits",
    "shared_frontiers": "forward_hits",
}

#: dispatch backends the service supports.
BACKENDS = ("thread", "process")

#: fraction of the batch deadline granted to each degraded query when no
#: explicit ``degraded_cycle_budget`` is given.
DEGRADED_BUDGET_FRACTION = 0.01

class FlakyEngine:
    """Fault-injection wrapper: an engine that dies after ``fail_after`` runs.

    Wraps any PEFP engine and delegates everything to it, except that the
    ``fail_after + 1``-th :meth:`run` raises
    :class:`~repro.errors.EngineFailure` (and every run after that, too).
    The service uses it to exercise mid-batch worker loss; tests and
    operators can wrap ``service.systems[i].engine`` directly for custom
    failure plans.
    """

    def __init__(self, inner, fail_after: int = 1) -> None:
        if fail_after < 0:
            raise ConfigError(
                f"fail_after must be non-negative, got {fail_after}"
            )
        self.inner = inner
        self.fail_after = fail_after
        self.runs = 0
        self.failed = False

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def run(self, *args, **kwargs):
        if self.runs >= self.fail_after:
            self.failed = True
            raise EngineFailure(
                f"injected engine failure after {self.runs} run(s)"
            )
        self.runs += 1
        return self.inner.run(*args, **kwargs)


class EngineServer:
    """The per-engine serving loop state, shared by every backend.

    Wraps one :class:`PathEnumerationSystem` with the batch-level serving
    policy — budget tightening, batch-deadline degradation driven by the
    engine's own modelled busy time — so the in-process executor and the
    process workers run *exactly* the same per-query decision logic.
    This is what makes the backends differentially equivalent by
    construction rather than by coincidence.
    """

    __slots__ = ("system", "budget", "batch_deadline_s",
                 "degraded_cycle_budget", "profile", "share",
                 "host_busy", "device_busy")

    def __init__(self, system, budget: QueryBudget,
                 batch_deadline_s: float | None,
                 degraded_cycle_budget: int | None,
                 profile: bool, share: bool = False) -> None:
        self.system = system
        self.budget = budget
        self.batch_deadline_s = batch_deadline_s
        self.degraded_cycle_budget = degraded_cycle_budget
        self.profile = profile
        self.share = share
        self.host_busy = 0.0
        self.device_busy = 0.0

    def serve(self, query: Query, tracer=None):
        """Answer one query; returns ``(answer, degraded, result hit)``,
        the answer a :class:`~repro.host.system.ServedAnswer` on every
        executor.

        With ``share`` set the answer goes through the artifact cache's
        result memo, so duplicate queries run exactly once.  Propagates
        :class:`~repro.errors.EngineFailure` — requeueing is the
        dispatcher's job, not the engine's.
        """
        q_budget = self.budget
        degraded = False
        if (
            self.batch_deadline_s is not None
            and self.host_busy + self.device_busy >= self.batch_deadline_s
        ):
            degraded = True
            q_budget = q_budget.tightened(
                max_cycles=self.degraded_cycle_budget
            )

        def build():
            return self.system.execute(
                query,
                budget=None if q_budget.unlimited else q_budget,
                tracer=tracer,
                profile=self.profile,
            ).answer()

        if not self.share:
            answer, hit = build(), False
        else:
            # Through the result cache, duplicates run exactly once.  The
            # key includes the budget and profile flag — a truncated
            # answer is only valid under the budget that produced it, so
            # degraded duplicates never alias full-budget ones.
            probe_ops = OpCounter()
            answer, hit = self.system.artifact_cache.result(
                self.system.graph, query, (q_budget, self.profile),
                build, counter=probe_ops, tracer=tracer,
            )
        if not hit:
            self.host_busy += answer.preprocess_seconds
            self.device_busy += answer.query_seconds
            return answer, degraded, False
        # A hit is re-labelled for this query with ``T1`` set to the one
        # ``set_lookup`` memo probe — exactly what a naive rerun's Pre-BFS
        # memo hit would have charged, so the per-answer modelled numbers
        # of an exact duplicate are identical to independent execution.
        # What sharing saves is *engine* time: the device work is not
        # redone, so ``device_busy`` (and the batch makespan with it)
        # drops.
        probe_seconds = self.system.cost_model.seconds(probe_ops)
        self.host_busy += probe_seconds
        return replace(
            answer,
            query=query,
            preprocess_seconds=probe_seconds,
            preprocess_ops=probe_ops,
        ), degraded, True


def observe_report(metrics: MetricsRegistry, report: ServedAnswer,
                   engine_idx: int,
                   timeline: MetricsTimeline | None = None) -> None:
    """Fold one delivered answer into the registry and the timeline.

    The one place a served query is observed: the coordinator calls it
    once per delivered answer, in delivery order, for every executor.
    It reads only the answer — its modelled costs and the stamps
    :func:`serve_source` put on it — so the executors' metrics and
    timelines agree by construction.

    The query's counter increments and samples are built once and
    applied to the registry and, with a ``timeline``, to the tumbling
    window of ``report.completed_at`` (the serving engine's modelled
    completion time).  Each gets one ``update`` call with the same
    lists.  With a timeline, a per-engine ``engine{i}_device_seconds``
    series is written to both so per-window utilization stays
    reconcilable against a terminal total; a result-cache hit is counted
    as ``result_hits`` and a static engine's queue depth set as the
    ``engine{i}/queue_depth`` gauge in the same window.  A device
    profile's per-batch distributions go to the registry only.
    """
    counts = [
        ("queries", 1),
        ("paths_found", report.num_paths),
        (f"engine{engine_idx}_queries", 1),
    ]
    samples = [
        ("latency_seconds", report.total_seconds),
        ("preprocess_seconds", report.preprocess_seconds),
        ("query_seconds", report.query_seconds),
    ]
    if report.empty:
        counts.append(("empty_queries", 1))
    if report.truncated:
        counts.append(("truncated_queries", 1))
    if report.degraded:
        counts.append(("degraded_queries", 1))
        samples.append(("degraded_latency_seconds", report.total_seconds))
    if timeline is not None:
        samples.append((f"engine{engine_idx}_device_seconds",
                        report.query_seconds))
    device_samples = []
    if report.profile is not None:
        device_samples = _profile_events(report.profile, counts)
    metrics.update(counts, samples + device_samples)
    if timeline is not None:
        t_end = report.completed_at
        timeline.update(t_end, counts, samples)
        if report.result_hit:
            timeline.record(t_end, "result_hits")
        if report.queue_depth is not None:
            timeline.set_gauge(t_end, f"engine{engine_idx}/queue_depth",
                               report.queue_depth)


def _profile_events(prof, counts: list) -> list:
    """Append one kernel run's device counters to ``counts``; return its
    per-batch and end-of-run distribution samples."""
    counts += [
        ("profiled_queries", 1),
        ("device_cycles", prof.total_cycles),
        ("device_expand_cycles", prof.expand_cycles),
        ("device_verify_cycles", prof.verify_cycles),
        ("device_stall_cycles", prof.stall_cycles),
    ]
    if prof.inter_pe_cycles:
        counts += [
            ("device_inter_pe_cycles", prof.inter_pe_cycles),
            ("inter_pe_messages", prof.inter_pe_messages),
        ]
    samples = []
    for batch in prof.batches:
        samples += [
            ("batch_cycles", batch.cycles),
            ("batch_entries", batch.entries),
            ("verify_occupancy", batch.occupancy("verify")),
        ]
    samples += [
        ("buffer_peak_paths", prof.buffer_peak_paths),
        ("dram_peak_paths", prof.dram_peak_paths),
    ]
    for label, counters in prof.cache_counters.items():
        counts += [
            (f"{label}_hits", counters["hits"]),
            (f"{label}_misses", counters["misses"]),
        ]
        samples.append((f"{label}_hit_rate", prof.cache_hit_rate(label)))
    return samples


def serve_source(server: EngineServer, engine_idx: int, source, tracer,
                 deliver) -> list[int]:
    """The per-engine serve loop every executor runs.

    ``source`` yields groups of ``(batch index, query)`` tasks: a list
    holding one engine's whole static task list, or an iterator over the
    groups the engine steals.  Each member is served, stamped with what
    the coordinator observes of it — ``degraded``, ``result_hit``, the
    engine's modelled completion time ``completed_at`` and, from a
    static source, its ``queue_depth`` (a stealing engine has no queue
    of its own) — and handed to ``deliver(engine_idx, index, answer)``.
    On :class:`~repro.errors.EngineFailure` the loop stops and returns
    the unserved rest of the group — requeueing it is the coordinator's
    job.
    """
    static = isinstance(source, list)
    with (tracer or NULL_TRACER).track(f"engine{engine_idx}"):
        for group in source:
            for pos, (idx, query) in enumerate(group):
                try:
                    answer, degraded, hit = server.serve(query, tracer)
                except EngineFailure:
                    return [i for i, _ in group[pos:]]
                # Stamped in place: a miss is built by this run and a
                # hit is a copy, so no record is delivered twice.
                answer.degraded = degraded
                answer.result_hit = hit
                answer.completed_at = server.host_busy + server.device_busy
                answer.queue_depth = len(group) - pos - 1 if static else None
                deliver(engine_idx, idx, answer)
    return []


@dataclass
class BatchOutcome:
    """What one batch's dispatch produced, before it becomes a report.

    :func:`dispatch` fills the answers and the failure accounting; the
    executor fills the busy times, and the process executor also the
    traces and cache deltas its workers shipped back, in deterministic
    (round, worker) order.
    """

    reports: list
    host_busy: list[float]
    device_busy: list[float]
    assignment: Assignment = field(default_factory=list)
    #: engines retired: by an EngineFailure this batch, or by process
    #: death (this batch or an earlier one).
    failed_engines: list[int] = field(default_factory=list)
    engine_failures: int = 0
    requeued: int = 0
    #: ``(engine index, batch index)`` of every answer, in delivery order.
    delivered: list[tuple[int, int]] = field(default_factory=list)
    #: span-record lists, one per worker round — every worker round
    #: numbers its spans from 1, so each list must be ingested on its own
    #: for parent links to remap without colliding.
    trace_records: list[list] = field(default_factory=list)
    #: summed per-round cache-stat deltas of worker-local caches.
    worker_cache_stats: Counter = field(default_factory=Counter)

    def deliver(self, engine_idx: int, idx: int, report) -> None:
        self.reports[idx] = report
        self.delivered.append((engine_idx, idx))


def dispatch(queries: list[Query], sharing: bool, scheduler: str,
             num_engines: int, run_round, graph: CSRGraph | None = None,
             retired=()) -> BatchOutcome:
    """The coordinator loop every backend runs; returns the outcome.

    Groups the batch (:func:`~repro.service.scheduler.query_groups`),
    places the groups with ``scheduler``, then runs rounds.
    ``run_round(outcome, engines, work, steal)`` is the executor: it
    serves ``work`` on ``engines`` — ``work[e]`` per engine when static,
    or the groups in steal order when ``steal`` — and returns
    ``(unserved indices, engines that failed)``.  After a round the
    unserved indices are regrouped and dealt over the survivors (static)
    or stolen again in the next round.  ``retired`` names
    engines already lost before this batch; work dealt to them is
    requeued too.  Raises :class:`~repro.errors.ServiceError` when no
    engine survives.
    """
    outcome = BatchOutcome([None] * len(queries), [0.0] * num_engines,
                           [0.0] * num_engines)
    groups = query_groups(queries, sharing)
    steal = scheduler == WORK_STEALING
    if steal:
        order = steal_order(queries, graph=graph, groups=groups)
        work = [groups[g] for g in order]
    else:
        work = outcome.assignment = SCHEDULERS[scheduler](
            queries, num_engines, graph=graph, groups=groups,
        )
    failed = set(retired)
    while True:
        survivors = [e for e in range(num_engines) if e not in failed]
        if steal:
            engines = survivors if work else []
            unserved = []
        else:
            engines = [e for e in survivors if work[e]]
            unserved = [i for e in failed for i in work[e]]
        if engines:
            left, lost = run_round(outcome, engines, work, steal)
            unserved += left
            failed.update(lost)
            outcome.engine_failures += len(lost)
        if not unserved:
            break
        survivors = [e for e in survivors if e not in failed]
        if not survivors:
            raise ServiceError(
                f"all {num_engines} engine(s) failed with {len(unserved)} "
                f"of {len(queries)} queries unanswered"
            )
        unserved = sorted(set(unserved))
        outcome.requeued += len(unserved)
        regrouped = query_groups(queries, sharing, unserved)
        work = regrouped if steal else requeue(regrouped, num_engines,
                                               survivors)
    outcome.failed_engines = sorted(failed)
    if steal:
        # A stealing engine's assignment is what it served, in order.
        outcome.assignment = [[] for _ in range(num_engines)]
        for e, i in outcome.delivered:
            outcome.assignment[e].append(i)
    return outcome


@dataclass
class ServiceBatchReport:
    """Everything one batch produced: answers, timings, observability.

    Every figure here describes this batch alone — its answers, busy
    times and failure accounting — except ``metrics`` and
    ``cache_stats``, which are the service's cumulative views over every
    batch it served.
    """

    reports: list[ServedAnswer]
    assignment: Assignment
    scheduler: str
    batch_transfer_seconds: float
    #: one-time per-graph artifact builds, accounted as batch setup
    #: instead of inflating the first query's T1.
    warmup_ops: OpCounter
    warmup_seconds: float
    #: modelled host-CPU (``T1``) seconds of the queries each engine served.
    engine_host_seconds: list[float]
    #: modelled device (``T2``) seconds of the queries each engine served.
    engine_device_seconds: list[float]
    wall_seconds: float
    #: the service's registry: cumulative over every batch it served.
    metrics: MetricsRegistry
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: engines that raised :class:`~repro.errors.EngineFailure` mid-batch.
    failed_engines: list[int] = field(default_factory=list)
    #: engines lost during this batch.
    engine_failures: int = 0
    #: queries of this batch re-dispatched after their engine failed.
    requeued_queries: int = 0
    #: the seeded fault-injection plan the service ran under, as
    #: ``(engine index, fail_after)`` pairs (empty without injection).
    failure_plan: list[tuple[int, int]] = field(default_factory=list)
    #: dispatch backend that served the batch (``thread`` or ``process``).
    backend: str = "thread"
    #: whether cross-query sharing (result cache + source groups) was on.
    sharing: bool = False
    #: windowed telemetry on the modelled clock, when a timeline was
    #: passed to :meth:`BatchQueryService.run` (``None`` otherwise).
    timeline: MetricsTimeline | None = None
    #: forward-frontier memo hits of this batch — same-source queries
    #: that reused a group's forward BFS instead of recomputing it.
    shared_frontiers: int = 0

    @property
    def num_queries(self) -> int:
        return len(self.reports)

    @property
    def num_engines(self) -> int:
        return len(self.engine_device_seconds)

    @property
    def engine_busy_seconds(self) -> list[float]:
        """Host + device seconds per engine (total modelled work)."""
        return [
            h + d
            for h, d in zip(self.engine_host_seconds,
                            self.engine_device_seconds)
        ]

    @property
    def host_seconds_total(self) -> float:
        """All modelled T1 work of the batch — one shared host CPU."""
        return sum(self.engine_host_seconds)

    @property
    def device_makespan_seconds(self) -> float:
        """The busiest engine's modelled device time."""
        if not self.engine_device_seconds:
            return 0.0
        return max(self.engine_device_seconds)

    @property
    def makespan_seconds(self) -> float:
        """Modelled batch completion time.

        Device runs overlap across engines, but every query's ``T1`` is
        serviced by the single shared host CPU; with preprocessing
        pipelined against enumeration the batch finishes no earlier than
        the larger of the serial host total and the busiest engine's
        device time.  (The old ``max(host + device per engine)`` figure
        pretended each engine owned a private host CPU.)
        """
        return max(self.host_seconds_total, self.device_makespan_seconds)

    @property
    def throughput_qps(self) -> float:
        """Modelled queries/second over the batch makespan."""
        makespan = self.makespan_seconds
        if makespan <= 0.0:
            return 0.0
        return self.num_queries / makespan

    @property
    def engine_utilization(self) -> list[float]:
        """Device-busy fraction of each engine over the device makespan.

        Based on ``query_seconds`` only: host preprocessing time is not
        engine work and charging it here (as ``total_seconds`` once did)
        overstated utilization whenever T1 was non-trivial.
        """
        makespan = self.device_makespan_seconds
        if makespan <= 0.0:
            return [0.0] * self.num_engines
        return [busy / makespan for busy in self.engine_device_seconds]

    @property
    def latency(self) -> LatencySummary | None:
        """Modelled per-query latency summary (p50/p95/p99 et al.) of
        this batch."""
        return _summary([r.total_seconds for r in self.reports])

    @property
    def degraded_latency(self) -> LatencySummary | None:
        """Latency summary of this batch's queries served past the batch
        deadline."""
        return _summary([r.total_seconds for r in self.reports
                         if r.degraded])

    @property
    def truncated_queries(self) -> int:
        """Queries of this batch whose answers a budget or deadline
        truncated."""
        return sum(r.truncated for r in self.reports)

    @property
    def total_paths(self) -> int:
        return sum(r.num_paths for r in self.reports)

    @property
    def deduped_queries(self) -> int:
        """Queries of this batch answered from the result cache."""
        return sum(r.result_hit for r in self.reports)

    @property
    def device_profiles(self) -> list[DeviceProfile]:
        """Per-query device profiles (non-empty only under ``profile=True``;
        empty-answer queries never allocate a device, so have none)."""
        return [r.profile for r in self.reports if r.profile is not None]

    def profile_summary(self) -> dict | None:
        """Aggregated device-profile dict, or ``None`` when not profiled."""
        profiles = self.device_profiles
        return aggregate_profiles(profiles) if profiles else None

    def attribution(self):
        """Latency attribution of this batch: per-query waterfalls,
        critical path, per-engine timelines, tail attribution (see
        :mod:`repro.observability.analysis`).  Exact cycle splits need
        ``profile=True``; without profiles the kernel time is attributed
        as one undifferentiated segment."""
        from repro.observability.analysis import analyze_report

        return analyze_report(self)

    def path_sets(self) -> list[frozenset[tuple[int, ...]]]:
        """Per-query answer sets, in batch order (for equivalence checks)."""
        return [frozenset(r.paths) for r in self.reports]

    def path_output_bytes(self) -> bytes:
        """Canonical bytes of the batch's answers, for determinism checks.

        Per-query dicts (endpoints, hop budget, truncation flag, *sorted*
        paths) serialised as compact JSON with sorted keys — two runs that
        answered every query identically produce byte-identical output no
        matter which backend, scheduler or worker count served them.
        """
        payload = [
            {
                "source": r.query.source,
                "target": r.query.target,
                "max_hops": r.query.max_hops,
                "truncated": r.truncated,
                "paths": sorted(map(list, r.paths)),
            }
            for r in self.reports
        ]
        return json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")

    def render(self) -> str:
        """Plain-text service report (tables live in the reporting layer)."""
        from repro.reporting.service import service_report_table

        return service_report_table(self)


def _summary(samples: list[float]) -> LatencySummary | None:
    return LatencySummary.from_samples(samples) if samples else None


class BatchQueryService:
    """N engine instances + shared artifact cache serving query batches.

    Parameters
    ----------
    graph:
        The resident graph every batch queries.
    variant:
        PEFP variant each engine runs (see ``repro.core.variants``).
    num_engines:
        Simulated engine instances (>= 1); each gets its own
        :class:`PathEnumerationSystem` and, per query, its own device.
    scheduler:
        ``"round-robin"``, ``"longest-first"`` or ``"work-stealing"``
        (see :mod:`repro.service.scheduler`).
    backend:
        ``"thread"`` serves the engines in this process, in order on the
        calling thread;
        ``"process"`` runs each engine in its own worker process via
        :class:`repro.service.parallel.ProcessEnginePool` (real host-side
        parallelism, identical answers).  The process pool is created
        lazily on the first :meth:`run` and reused until :meth:`close`.
    mp_context:
        Process backend only: multiprocessing start method (``"fork"``,
        ``"spawn"``, ...); ``None`` uses the platform default.
    sharing:
        Enables cross-query work sharing: identical ``(s, t, k, budget)``
        queries are answered once through the cache's result memo (duplicates charged one memo probe), queries sharing
        a source are scheduled as indivisible groups on one engine, and
        their ``(k-1)``-hop forward BFS is computed once per group via
        the forward-frontier memo.  Answers, device cycles and traffic
        counters are exactly those of independent execution (the sharing
        differential suite proves it); only redundant work — and with it
        the modelled makespan — shrinks.  Off by default.
    inject_failures:
        Fault-injection hook: wrap N engines in :class:`FlakyEngine`.
        Their unfinished queries are requeued onto the surviving engines;
        with no survivors :meth:`run` raises
        :class:`~repro.errors.ServiceError`.
    failure_seed:
        Seeds the fault-injection plan: *which* engines fail and after
        how many runs (1-3) is drawn from ``random.Random(failure_seed)``,
        so a failure scenario reproduces exactly from its seed.  ``None``
        (the default) keeps the legacy fixed plan — the first
        ``inject_failures`` engines, each failing after one run.  The
        chosen plan is exposed as ``failure_plan`` on the service and its
        reports.
    """

    def __init__(
        self,
        graph: CSRGraph,
        variant: str = "pefp",
        num_engines: int = 2,
        scheduler: str = "round-robin",
        cost_model: CpuCostModel | None = None,
        cache: GraphArtifactCache | None = None,
        backend: str = "thread",
        mp_context: str | None = None,
        sharing: bool = False,
        inject_failures: int = 0,
        failure_seed: int | None = None,
        **engine_kwargs,
    ) -> None:
        if num_engines < 1:
            raise ConfigError(f"need at least one engine, got {num_engines}")
        if scheduler not in SCHEDULER_NAMES:
            raise ConfigError(
                f"unknown scheduler {scheduler!r}; "
                f"expected one of {sorted(SCHEDULER_NAMES)}"
            )
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; "
                f"expected one of {sorted(BACKENDS)}"
            )
        if not 0 <= inject_failures <= num_engines:
            raise ConfigError(
                f"inject_failures must be in [0, {num_engines}], "
                f"got {inject_failures}"
            )
        self.graph = graph
        self.variant = variant
        self.scheduler = scheduler
        self.backend = backend
        self.mp_context = mp_context
        self.engine_kwargs = dict(engine_kwargs)
        self.sharing = sharing
        self.cost_model = cost_model or CpuCostModel()
        self.cache = cache or GraphArtifactCache(share_forward=sharing)
        if sharing:
            # An injected cache must share forward frontiers too, or the
            # grouped schedule buys nothing.
            self.cache.share_forward = True
        self.metrics = MetricsRegistry()
        self._pool = None
        #: cumulative cache stats of the worker-process caches (the
        #: coordinator cache only sees warmup builds under ``process``).
        self._worker_stats_total: Counter = Counter()
        self.systems = [
            PathEnumerationSystem.for_variant(
                graph,
                variant,
                cost_model=self.cost_model,
                artifact_cache=self.cache,
                **engine_kwargs,
            )
            for _ in range(num_engines)
        ]
        if failure_seed is None:
            self.failure_plan = [(i, 1) for i in range(inject_failures)]
        else:
            rng = random.Random(failure_seed)
            victims = sorted(rng.sample(range(num_engines),
                                        inject_failures))
            self.failure_plan = [(i, rng.randint(1, 3)) for i in victims]
        for engine_idx, fail_after in self.failure_plan:
            self.systems[engine_idx].engine = FlakyEngine(
                self.systems[engine_idx].engine, fail_after=fail_after
            )

    @property
    def num_engines(self) -> int:
        return len(self.systems)

    def run(
        self,
        queries: list[Query],
        budget: QueryBudget | None = None,
        deadline_ms: float | None = None,
        batch_deadline_ms: float | None = None,
        degraded_cycle_budget: int | None = None,
        tracer=None,
        profile: bool = False,
        timeline: MetricsTimeline | None = None,
    ) -> ServiceBatchReport:
        """Serve one batch end to end and report answers plus metrics.

        ``budget`` applies to every query; ``deadline_ms`` additionally
        caps each kernel at ``deadline x frequency`` device cycles.
        ``batch_deadline_ms`` is batch-level: once an engine's modelled
        busy time (host + device) passes it, the engine's remaining
        queries run *degraded* — capped at ``degraded_cycle_budget``
        cycles (default ``DEGRADED_BUDGET_FRACTION`` of the deadline) —
        instead of being dropped, so every query is still answered.
        Engines lost to :class:`~repro.errors.EngineFailure` have their
        unfinished queries requeued onto the surviving engines.

        ``tracer`` (a :class:`repro.observability.Tracer`) records the
        full lifecycle as spans — each engine worker's queries on its own
        ``engine{i}`` track, PCIe transfers on a ``pcie`` track.
        ``profile=True`` collects a per-batch device cycle breakdown for
        every kernel run (attached to each :class:`ServedAnswer` and fed
        into the registry's device series).  Both default off and cost
        nothing when off.

        ``timeline`` (a :class:`repro.service.metrics.MetricsTimeline`)
        turns on windowed telemetry: every query's counters and latency
        samples are also bucketed by its modelled completion time, per-
        engine queue depths become window gauges (static schedulers
        only — a stealing engine has no queue of its own), and result-
        cache hits are timestamped per query.  The same timeline may be
        passed to several runs to accumulate; it is attached to the
        returned report and reconciles exactly against ``self.metrics``
        when it covered every run of a fresh service (see
        :meth:`MetricsTimeline.reconcile`).  Defaults off and costs
        nothing when off.
        """
        tr = tracer or NULL_TRACER
        with tr.span("serve_batch", queries=len(queries),
                     engines=self.num_engines,
                     scheduler=self.scheduler) as bspan:
            return self._run_traced(
                queries, budget, deadline_ms, batch_deadline_ms,
                degraded_cycle_budget, tracer, profile, timeline,
                tr, bspan,
            )

    def _resolve_budget(
        self, budget, deadline_ms, batch_deadline_ms, degraded_cycle_budget,
    ) -> tuple[QueryBudget, float | None, int | None]:
        """Fold the deadline knobs into concrete per-query budget terms."""
        frequency = self.systems[0].engine.device_config.frequency_hz
        effective = budget or QueryBudget()
        if deadline_ms is not None:
            if deadline_ms <= 0:
                raise ConfigError(
                    f"deadline_ms must be positive, got {deadline_ms}"
                )
            effective = effective.tightened(
                max_cycles=max(1, int(deadline_ms * 1e-3 * frequency))
            )
        batch_deadline_s: float | None = None
        if batch_deadline_ms is not None:
            if batch_deadline_ms <= 0:
                raise ConfigError(
                    f"batch_deadline_ms must be positive, "
                    f"got {batch_deadline_ms}"
                )
            batch_deadline_s = batch_deadline_ms * 1e-3
            if degraded_cycle_budget is None:
                degraded_cycle_budget = max(
                    1,
                    int(DEGRADED_BUDGET_FRACTION * batch_deadline_s
                        * frequency),
                )
        if degraded_cycle_budget is not None and degraded_cycle_budget < 1:
            raise ConfigError(
                f"degraded_cycle_budget must be >= 1, "
                f"got {degraded_cycle_budget}"
            )
        return effective, batch_deadline_s, degraded_cycle_budget

    def _run_traced(
        self, queries, budget, deadline_ms, batch_deadline_ms,
        degraded_cycle_budget, tracer, profile, timeline, tr, bspan,
    ) -> ServiceBatchReport:
        wall_start = time.perf_counter()
        stats_before = self.cache.stats()
        effective, batch_deadline_s, degraded_cycle_budget = (
            self._resolve_budget(budget, deadline_ms, batch_deadline_ms,
                                 degraded_cycle_budget)
        )

        # One-time per-graph artifacts, charged to the batch, not query 1.
        warmup_ops = OpCounter()
        with tr.span("warmup") as wspan:
            self.cache.warm(self.graph, warmup_ops, tracer=tracer)
            warmup_seconds = self.cost_model.seconds(warmup_ops)
            wspan.set_modelled(warmup_seconds)

        if self.backend == "process":
            outcome = self._dispatch_process(
                queries, effective, batch_deadline_s,
                degraded_cycle_budget, tr, profile,
            )
        else:
            outcome = self._dispatch_inline(
                queries, effective, batch_deadline_s,
                degraded_cycle_budget, tracer, profile,
            )
        for engine_idx, idx in outcome.delivered:
            observe_report(self.metrics, outcome.reports[idx], engine_idx,
                           timeline)
        if outcome.engine_failures:
            self.metrics.increment("engine_failures",
                                   outcome.engine_failures)
        if outcome.requeued:
            self.metrics.increment("requeued_queries", outcome.requeued)

        done = [r for r in outcome.reports if r is not None]
        if len(done) != len(queries):
            raise ServiceError(
                f"engine workers lost {len(queries) - len(done)} of "
                f"{len(queries)} queries"
            )

        # Amortised DMA, as in PathEnumerationSystem.execute_batch.
        total_words = sum(r.payload_words for r in done)
        pcie = self.systems[0].engine.device_config.pcie
        with tr.span("batch_dma", detach=True, track="pcie",
                     words=total_words) as dspan:
            batch_transfer = pcie.transfer_seconds(
                total_words * WORD_BYTES
            )
            dspan.set_modelled(batch_transfer)

        wall_seconds = time.perf_counter() - wall_start
        cache_stats = dict(self.cache.stats())
        worker_stats = outcome.worker_cache_stats
        deltas: dict[str, int] = {}
        for key in CACHE_STAT_KEYS:
            delta = cache_stats[key] - stats_before[key] + worker_stats[key]
            deltas[key] = delta
            self.metrics.increment(key, delta)
        for alias, key in SHARING_COUNTER_ALIASES.items():
            self.metrics.increment(alias, deltas[key])
        # Fold the worker-process caches into the reported view; under the
        # process backend the coordinator cache only sees the warmup build.
        self._worker_stats_total.update(worker_stats)
        for key, value in self._worker_stats_total.items():
            cache_stats[key] = cache_stats.get(key, 0) + value

        report = ServiceBatchReport(
            reports=done,
            assignment=outcome.assignment,
            scheduler=self.scheduler,
            batch_transfer_seconds=batch_transfer,
            warmup_ops=warmup_ops,
            warmup_seconds=warmup_seconds,
            engine_host_seconds=outcome.host_busy,
            engine_device_seconds=outcome.device_busy,
            wall_seconds=wall_seconds,
            metrics=self.metrics,
            cache_stats=cache_stats,
            failed_engines=outcome.failed_engines,
            engine_failures=outcome.engine_failures,
            requeued_queries=outcome.requeued,
            failure_plan=list(self.failure_plan),
            backend=self.backend,
            sharing=self.sharing,
            timeline=timeline,
            shared_frontiers=deltas["forward_hits"],
        )
        bspan.set_modelled(report.makespan_seconds).set(
            paths=report.total_paths,
            truncated=report.truncated_queries,
        )
        if profile and report.device_profiles:
            self._export_attribution_gauges(report)
        return report

    def _export_attribution_gauges(self, report: ServiceBatchReport) -> None:
        """Publish the latest batch's segment shares as gauges.

        One gauge per service segment (``attribution/<segment>_share``,
        the segment's fraction of the batch's total modelled service
        time) plus the critical-path kind — the scrapeable form of the
        `repro analyze` waterfall.  Only runs under ``profile=True``, so
        the disabled path stays zero-cost.
        """
        attribution = report.attribution()
        totals = attribution.segment_seconds()
        total = sum(totals.values())
        for segment, seconds in totals.items():
            self.metrics.set_gauge(
                f"attribution/{segment}_share",
                seconds / total if total else 0.0,
            )
        self.metrics.set_gauge(
            "attribution/host_bound",
            1.0 if attribution.critical_path.kind == "host" else 0.0,
        )
        queue_wait = sum(
            wf.queue_wait_seconds for wf in attribution.waterfalls
        )
        self.metrics.set_gauge(
            "attribution/queue_wait_seconds_total", queue_wait
        )

    # -- executors -----------------------------------------------------
    def _dispatch_inline(
        self, queries, effective, batch_deadline_s, degraded_cycle_budget,
        tracer, profile,
    ) -> BatchOutcome:
        """Run :func:`dispatch` on the calling thread, engine after engine."""
        servers = [
            EngineServer(system, effective, batch_deadline_s,
                         degraded_cycle_budget, profile,
                         share=self.sharing)
            for system in self.systems
        ]

        def run_round(outcome, engines, work, steal):
            def serve(e: int, source) -> list[int]:
                return serve_source(servers[e], e, source, tracer,
                                    outcome.deliver)

            if not steal:
                rests = [serve(e, [[(i, queries[i]) for i in work[e]]])
                         for e in engines]
                return ([i for rest in rests for i in rest],
                        [e for e, rest in zip(engines, rests) if rest])
            # Stealing at modelled speed: the next group goes to the
            # engine free first on the modelled clock (least host +
            # device busy time, ties to the lowest index).
            groups, live, unserved = deque(work), list(engines), []
            while groups and live:
                e = min(live, key=lambda e: (servers[e].host_busy
                                             + servers[e].device_busy))
                group = [(i, queries[i]) for i in groups.popleft()]
                rest = serve(e, iter((group,)))
                if rest:
                    live.remove(e)
                    unserved += rest
            unserved += [i for group in groups for i in group]
            return unserved, [e for e in engines if e not in live]

        outcome = dispatch(queries, self.sharing, self.scheduler,
                           self.num_engines, run_round, graph=self.graph)
        outcome.host_busy = [s.host_busy for s in servers]
        outcome.device_busy = [s.device_busy for s in servers]
        return outcome

    def _dispatch_process(
        self, queries, effective, batch_deadline_s, degraded_cycle_budget,
        tr, profile,
    ) -> BatchOutcome:
        """Run the batch on the worker-process pool and ingest the spans
        its workers traced."""
        from repro.service.parallel import ProcessEnginePool

        if self._pool is None:
            self._pool = ProcessEnginePool(
                graph=self.graph,
                variant=self.variant,
                num_engines=self.num_engines,
                cost_model=self.cost_model,
                engine_kwargs=self.engine_kwargs,
                failure_plan=self.failure_plan,
                mp_context=self.mp_context,
                sharing=self.sharing,
            )
        outcome = self._pool.run_batch(
            queries,
            scheduler=self.scheduler,
            graph=self.graph,
            budget=effective,
            batch_deadline_s=batch_deadline_s,
            degraded_cycle_budget=degraded_cycle_budget,
            profile=profile,
            trace=bool(tr),
        )
        # One ingest per worker round: each round's tracer numbered its
        # spans from 1, so remapping them together would cross-wire
        # parent links between workers.
        for worker_round in outcome.trace_records:
            tr.ingest(worker_round)
        return outcome

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down the process worker pool, if one was started."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "BatchQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
