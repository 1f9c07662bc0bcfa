"""Batch query serving: shared preprocessing cache, N engines, metrics."""

from repro.service.batch import (
    BACKENDS,
    BatchOutcome,
    BatchQueryService,
    EngineServer,
    FlakyEngine,
    ServiceBatchReport,
)
from repro.service.cache import GraphArtifactCache
from repro.service.metrics import (
    ExactSum,
    HistogramSketch,
    LatencySummary,
    MetricsRegistry,
    MetricsTimeline,
    percentile,
)
from repro.service.parallel import ProcessEnginePool
from repro.service.scheduler import (
    SCHEDULER_NAMES,
    SCHEDULERS,
    WORK_STEALING,
    estimate_query_work,
    group_by_source,
    longest_first,
    query_groups,
    requeue,
    round_robin,
    steal_order,
)

__all__ = [
    "BACKENDS",
    "BatchQueryService",
    "EngineServer",
    "FlakyEngine",
    "ServiceBatchReport",
    "GraphArtifactCache",
    "ExactSum",
    "HistogramSketch",
    "LatencySummary",
    "MetricsRegistry",
    "MetricsTimeline",
    "percentile",
    "BatchOutcome",
    "ProcessEnginePool",
    "SCHEDULER_NAMES",
    "SCHEDULERS",
    "WORK_STEALING",
    "estimate_query_work",
    "group_by_source",
    "longest_first",
    "query_groups",
    "requeue",
    "round_robin",
    "steal_order",
]
