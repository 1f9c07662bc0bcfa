"""The CPU-FPGA system of Fig. 2: load -> preprocess -> DMA -> enumerate.

:class:`PathEnumerationSystem` binds a graph (resident in host memory) to a
PEFP engine variant and answers queries end to end, reporting the paper's
three metrics per query: preprocessing time ``T1`` (modelled CPU seconds),
query processing time ``T2`` (simulated FPGA seconds) and the PCIe transfer
time the paper measures once and then ignores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import PathEnumerator
from repro.core.config import QueryBudget
from repro.core.engine import EngineStats, PEFPEngine
from repro.core.variants import make_engine, variant_uses_prebfs
from repro.fpga.device import WORD_BYTES
from repro.fpga.profile import DeviceProfile
from repro.graph.csr import CSRGraph
from repro.host.cost_model import CpuCostModel, OpCounter
from repro.observability.tracer import NULL_TRACER
from repro.host.query import Query, QueryResult
from repro.preprocess.bfs import (
    charged_reverse,
    distances_with_default,
    k_hop_bfs,
)
from repro.preprocess.prebfs import pre_bfs


@dataclass
class ServedAnswer:
    """One query's answer and its modelled costs, without the device.

    What the batch service returns on every executor: the result paths
    and the counters PEFP's host reads back over PCIe (Section VII-A).
    The simulated :class:`~repro.fpga.device.Device` the kernel ran on
    stays behind, so a worker process ships only this record.
    """

    query: Query
    paths: list[tuple[int, ...]]
    preprocess_seconds: float
    query_seconds: float
    transfer_seconds: float
    fpga_cycles: int
    engine_stats: EngineStats
    preprocess_ops: OpCounter
    payload_words: int = 0
    #: PCIe time to return the result paths to the host (the paper folds
    #: this into the ignored transfer cost; reported for completeness).
    result_transfer_seconds: float = 0.0
    #: ``True`` when a :class:`~repro.core.config.QueryBudget` stopped the
    #: kernel early — ``paths`` is an exact subset of the full answer.
    truncated: bool = False
    #: per-batch device cycle breakdown (``execute(..., profile=True)``).
    profile: DeviceProfile | None = None
    #: ``True`` when Pre-BFS proved the answer empty and no kernel ran.
    empty: bool = False
    # What the batch service stamps on a delivered answer
    # (:func:`repro.service.batch.serve_source`); its metrics and
    # timelines are computed from these and the fields above.
    #: served past the batch deadline, under the degraded budget.
    degraded: bool = False
    #: answered from the artifact cache's result memo.
    result_hit: bool = False
    #: the serving engine's modelled busy seconds (host + device) once
    #: this answer was done: its completion time on the modelled clock.
    completed_at: float = 0.0
    #: queries left in the engine's static task list after this one
    #: (``None`` under work stealing, where an engine has no queue).
    queue_depth: int | None = None

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def total_seconds(self) -> float:
        """T = T1 + T2 (the paper excludes the amortised PCIe transfer)."""
        return self.preprocess_seconds + self.query_seconds


@dataclass
class SystemReport(ServedAnswer):
    """End-to-end outcome of one query on the CPU-FPGA system."""

    #: the simulated device the kernel ran on (for utilization reports);
    #: ``None`` when the query short-circuited as empty.
    device: object | None = None

    def answer(self) -> ServedAnswer:
        """This report as a :class:`ServedAnswer`: the device dropped."""
        fields = dict(self.__dict__)
        del fields["device"]
        return ServedAnswer(**fields)


@dataclass
class BatchReport:
    """Outcome of a query batch with one amortised DMA transfer.

    Section VII-A ships 1,000 queries' preprocessed data to FPGA DRAM at
    once (100-300 ms total, so ~0.1-0.3 ms per query) and then ignores the
    transfer because preprocessing and kernel time dominate.
    """

    reports: list[SystemReport]
    batch_transfer_seconds: float

    @property
    def num_queries(self) -> int:
        return len(self.reports)

    @property
    def transfer_seconds_per_query(self) -> float:
        if not self.reports:
            return 0.0
        return self.batch_transfer_seconds / len(self.reports)

    @property
    def mean_preprocess_seconds(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.preprocess_seconds for r in self.reports) / len(
            self.reports
        )

    @property
    def mean_query_seconds(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.query_seconds for r in self.reports) / len(self.reports)


class PathEnumerationSystem:
    """One host + one simulated FPGA card answering s-t k-path queries."""

    def __init__(
        self,
        graph: CSRGraph,
        engine: PEFPEngine | None = None,
        cost_model: CpuCostModel | None = None,
        use_prebfs: bool = True,
        artifact_cache=None,
    ) -> None:
        self.graph = graph
        self.engine = engine or PEFPEngine()
        self.cost_model = cost_model or CpuCostModel()
        self.use_prebfs = use_prebfs
        #: optional :class:`repro.service.cache.GraphArtifactCache` shared
        #: across systems; when set, Pre-BFS results and the reverse CSR
        #: come from it (duck-typed to keep host free of service imports).
        self.artifact_cache = artifact_cache

    @classmethod
    def for_variant(cls, graph: CSRGraph, variant: str = "pefp",
                    cost_model: CpuCostModel | None = None,
                    artifact_cache=None,
                    **engine_kwargs) -> "PathEnumerationSystem":
        """Build the system for one of the paper's PEFP variants."""
        return cls(
            graph,
            engine=make_engine(variant, **engine_kwargs),
            cost_model=cost_model,
            use_prebfs=variant_uses_prebfs(variant),
            artifact_cache=artifact_cache,
        )

    def execute(
        self,
        query: Query,
        budget: QueryBudget | None = None,
        tracer=None,
        profile: bool = False,
    ) -> SystemReport:
        """Answer one query end to end.

        A query Pre-BFS proves empty (no vertex can lie on an s-t k-path)
        short-circuits: the zero-path report sets ``empty`` and carries
        the preprocessing cost ``T1``, but no device is allocated and
        nothing is shipped.

        ``budget`` bounds the kernel run (result count and/or device
        cycles); a budgeted report sets ``truncated`` when the answer may
        be incomplete.  Preprocessing is never budgeted — it either runs
        or the query cannot run at all.

        ``tracer`` (see :mod:`repro.observability`) records the query
        lifecycle as nested spans — preprocessing, kernel (with per-batch
        child spans), and the two PCIe transfers on a detached ``pcie``
        track — each carrying its modelled duration.  ``profile=True``
        attaches the kernel's :class:`~repro.fpga.profile.DeviceProfile`
        to the report.  Both default off with no overhead.
        """
        query.validate(self.graph)
        tr = tracer or NULL_TRACER
        pre_ops = OpCounter()
        with tr.span("query", source=query.source, target=query.target,
                     max_hops=query.max_hops) as qspan:
            with tr.span("preprocess") as pspan:
                if self.use_prebfs:
                    if self.artifact_cache is not None:
                        prep = self.artifact_cache.pre_bfs(
                            self.graph, query, pre_ops, tracer=tracer
                        )
                    else:
                        prep = pre_bfs(self.graph, query, pre_ops)
                    empty = prep.is_empty
                else:
                    # PEFP-No-Pre-BFS (Fig. 12): the barrier is integral
                    # to the verification module, so the host still runs
                    # the k-hop reverse BFS for sd_t — what it skips is
                    # the forward BFS and the induced-subgraph
                    # extraction, so the engine sees the full graph
                    # (typically too large for the BRAM caches).
                    if self.artifact_cache is not None:
                        rev = self.artifact_cache.reverse(
                            self.graph, pre_ops, tracer=tracer
                        )
                    else:
                        rev = charged_reverse(self.graph, pre_ops)
                    sd_t = k_hop_bfs(rev, query.target, query.max_hops,
                                     pre_ops)
                    barrier = distances_with_default(
                        sd_t, query.max_hops + 1
                    )
                    empty = False
                t1 = self.cost_model.seconds(pre_ops)
                pspan.set_modelled(t1)

            if empty:
                qspan.set_modelled(t1).set(paths=0, empty=True)
                return SystemReport(
                    query=query,
                    paths=[],
                    preprocess_seconds=t1,
                    query_seconds=0.0,
                    transfer_seconds=0.0,
                    fpga_cycles=0,
                    engine_stats=EngineStats(),
                    preprocess_ops=pre_ops,
                    empty=True,
                )
            if self.use_prebfs:
                run_graph = prep.subgraph
                source, target = prep.source, prep.target
                barrier = prep.barrier
                translate = prep.translate_paths
            else:
                run_graph = self.graph
                source, target = query.source, query.target
                translate = None

            # DMA: s, t, k header + CSR arrays + barrier.
            payload_words = (
                3 + len(run_graph.indptr) + len(run_graph.indices)
                + len(barrier)
            )
            with tr.span("kernel") as kspan:
                run = self.engine.run(run_graph, source, target,
                                      query.max_hops, barrier,
                                      budget=budget, tracer=tracer,
                                      profile=profile)
                kspan.set_modelled(run.seconds).set(
                    cycles=run.cycles,
                    batches=run.stats.batches,
                    truncated=run.truncated,
                    frequency_hz=run.device.config.frequency_hz,
                )
            with tr.span("dma_to_device", detach=True, track="pcie",
                         words=payload_words) as dspan:
                transfer = run.device.dma_to_device_seconds(payload_words)
                dspan.set_modelled(transfer)
            result_words = sum(map(len, run.paths)) + len(run.paths)
            with tr.span("dma_from_device", detach=True, track="pcie",
                         words=result_words) as dspan:
                result_transfer = run.device.dma_from_device_seconds(
                    result_words
                )
                dspan.set_modelled(result_transfer)

            if translate is not None:
                paths = translate(run.paths)
            else:
                paths = list(run.paths)
            qspan.set_modelled(t1 + run.seconds).set(
                paths=len(paths), truncated=run.truncated
            )
            return SystemReport(
                query=query,
                paths=paths,
                preprocess_seconds=t1,
                query_seconds=run.seconds,
                transfer_seconds=transfer,
                fpga_cycles=run.cycles,
                engine_stats=run.stats,
                preprocess_ops=pre_ops,
                payload_words=payload_words,
                result_transfer_seconds=result_transfer,
                device=run.device,
                truncated=run.truncated,
                profile=run.profile,
            )

    def execute_batch(
        self, queries: list[Query], budget: QueryBudget | None = None
    ) -> BatchReport:
        """Answer many queries, shipping all their data in one DMA.

        Matches the paper's measurement setup: per-query transfer cost is
        the batch transfer divided by the batch size (the setup latency
        amortises away).  ``budget`` applies to every query individually.
        """
        reports = [self.execute(q, budget=budget) for q in queries]
        total_words = sum(r.payload_words for r in reports)
        pcie = self.engine.device_config.pcie
        batch_transfer = pcie.transfer_seconds(total_words * WORD_BYTES)
        return BatchReport(
            reports=reports,
            batch_transfer_seconds=batch_transfer,
        )


class PEFPEnumerator(PathEnumerator):
    """Adapter exposing a PEFP variant through the enumerator interface.

    Used by the cross-algorithm equivalence tests: PEFP must return exactly
    the same path set as every CPU baseline.
    """

    def __init__(self, variant: str = "pefp", **engine_kwargs) -> None:
        self.variant = variant
        self.engine_kwargs = engine_kwargs
        self.name = variant
        # One system per (graph, enumerator): rebuilding it on every call
        # made equivalence tests redo per-graph setup for every query.
        # Single-slot keyed by graph identity — query streams are grouped
        # by graph, and the slot never pins more than one graph alive.
        self._system: PathEnumerationSystem | None = None

    def _system_for(self, graph: CSRGraph) -> PathEnumerationSystem:
        if self._system is None or self._system.graph is not graph:
            self._system = PathEnumerationSystem.for_variant(
                graph, self.variant, **self.engine_kwargs
            )
        return self._system

    def enumerate_paths(self, graph: CSRGraph, query: Query) -> QueryResult:
        report = self._system_for(graph).execute(query)
        result = QueryResult(query=query)
        result.paths = report.paths
        result.preprocess_ops = report.preprocess_ops
        result.fpga_cycles = report.fpga_cycles
        return result
