"""Batch schedulers: assign the query groups of one batch to N engines.

Every query is a member of a group, and every policy places whole groups.
:func:`query_groups` picks the grouping: one group per query source under
cross-query sharing (:func:`group_by_source`), singleton groups
``[[0], [1], ...]`` otherwise.  Over singletons each policy is exactly
the classic per-query policy, so there is one implementation of each:

- ``round-robin`` deals groups to engines in arrival order — the
  baseline policy, oblivious to per-query cost.
- ``longest-first`` is LPT (longest processing time first): sort groups
  by a decreasing work estimate (the sum of their members' estimates) and
  repeatedly give the next one to the least-loaded engine.  LPT's
  makespan is within 4/3 of optimal, and the heaviest queries (largest
  k, densest neighbourhoods) stop serialising behind each other on one
  engine.
- ``work-stealing`` has no static assignment at all: the batch's groups
  are put in one steal order, heaviest first (see :func:`steal_order`),
  and the engine that is free first takes the next group — the greedy
  list-scheduling policy.  In-process "free first" is read off the
  modelled clock (least host + device busy time, ties to the lowest
  index), so a rerun repeats the assignment; across worker processes the
  coordinator grants the next group to the worker that asks first, in
  actual (wall) completion order, so there the *assignment* is only
  known after the batch.  The *answers* stay
  placement-independent either way because every query's execution is
  deterministic in isolation.
- :func:`requeue` is the one rule for work a failed engine left behind:
  the unserved indices are regrouped and the groups dealt round-robin
  over the surviving engines.

Keeping a source group on one engine is what lets its forward-frontier
and result-cache reuse happen there, and what makes the thread backend
(one shared cache) and the process backend (worker-local caches) see the
same hit patterns.

The work estimate never runs the query: it uses the hop budget and the
out-degrees of the endpoints, the same signals Pre-BFS cost tracks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.host.query import Query

#: assignment[i] is the list of batch indices engine ``i`` will serve,
#: each in the order that engine should run them.
Assignment = list[list[int]]


def _scheduling_reverse(graph: CSRGraph) -> CSRGraph | None:
    """The graph's own reverse CSR if it already exists, else ``None``.

    Work estimation is advisory, so it must not trigger an uncharged
    reverse-CSR construction outside the artifact cache's hit/miss
    accounting: it only reads the graph's memo, never builds it.  A
    warmed service cache holds that same object (the reverse memo's
    value is always ``graph.reverse()``), so warming is what makes true
    in-degrees visible here.
    """
    if graph.has_cached_reverse:
        return graph.reverse()
    return None


def estimate_query_work(graph: CSRGraph, query: Query,
                        reverse: CSRGraph | None = None) -> float:
    """Cheap monotone proxy for a query's enumeration cost.

    Grows with the hop budget (search depth) and the endpoint degrees
    (branching at the search frontier on ``G`` and ``G_rev``).
    ``reverse`` is the pre-resolved reverse CSR (resolve it once per
    batch with :func:`_scheduling_reverse`, not once per query); when
    ``None`` the in-degree of ``t`` is approximated by its out-degree.
    """
    out_s = float(graph.out_degree(query.source))
    # in-degree of t == out-degree of t on the reverse graph.
    if reverse is not None:
        in_t = float(reverse.out_degree(query.target))
    else:
        in_t = float(graph.out_degree(query.target))
    return query.max_hops * (1.0 + out_s + in_t)


def group_by_source(queries: Sequence[Query]) -> list[list[int]]:
    """Partition batch indices into groups sharing a query source.

    Groups appear in first-appearance order of their source and keep
    their members in batch order, so grouping is a deterministic function
    of the batch alone.  Duplicated ``(s, t, k)`` queries naturally land
    in the same group, which is what lets the result cache dedupe them
    on one engine.
    """
    by_source: dict[int, list[int]] = {}
    for i, q in enumerate(queries):
        by_source.setdefault(q.source, []).append(i)
    return list(by_source.values())


def query_groups(queries: Sequence[Query], sharing: bool,
                 indices: Sequence[int] | None = None) -> list[list[int]]:
    """The groups the schedulers place: source groups or singletons.

    Groups the batch indices ``indices`` (default: the whole batch) —
    by source under ``sharing``, one index per group otherwise — so a
    requeue regroups exactly what is left with the same rule.
    """
    pool = list(range(len(queries))) if indices is None else list(indices)
    if not sharing:
        return [[i] for i in pool]
    members = group_by_source([queries[i] for i in pool])
    return [[pool[j] for j in group] for group in members]


def _group_weights(queries: Sequence[Query], groups: list[list[int]],
                   graph: CSRGraph | None,
                   weights: Sequence[float] | None) -> list[float] | None:
    """Summed work estimate per group; ``None`` with no graph or weights.

    ``weights`` overrides the built-in per-query estimate (e.g. with
    measured latencies from a previous batch).
    """
    if weights is None:
        if graph is None:
            return None
        reverse = _scheduling_reverse(graph)
        weights = [estimate_query_work(graph, q, reverse) for q in queries]
    elif len(weights) != len(queries):
        raise ConfigError(
            f"got {len(weights)} weights for {len(queries)} queries"
        )
    return [sum(weights[i] for i in members) for members in groups]


def round_robin(queries: Sequence[Query], num_engines: int,
                graph: CSRGraph | None = None,
                groups: list[list[int]] | None = None) -> Assignment:
    """Deal groups (default: one per query) to engines in arrival order."""
    if groups is None:
        groups = query_groups(queries, sharing=False)
    return requeue(groups, num_engines, range(num_engines))


def longest_first(queries: Sequence[Query], num_engines: int,
                  graph: CSRGraph | None = None,
                  weights: Sequence[float] | None = None,
                  groups: list[list[int]] | None = None) -> Assignment:
    """LPT: heaviest group first, always to the least-loaded engine.

    ``groups`` defaults to one group per query.  A group's weight is the
    sum of its members' ``weights`` (default: the built-in estimate, for
    which ``graph`` must be given so endpoint degrees can be read).
    Members stay contiguous and in group order inside their engine's
    list, so a source group's queries run back to back.
    """
    _check(num_engines)
    if groups is None:
        groups = query_groups(queries, sharing=False)
    group_weights = _group_weights(queries, groups, graph, weights)
    if group_weights is None:
        raise ConfigError(
            "longest-first needs the graph (or explicit weights) "
            "to estimate per-query work"
        )
    order = sorted(range(len(groups)),
                   key=lambda g: (-group_weights[g], g))
    assignment: Assignment = [[] for _ in range(num_engines)]
    loads = [0.0] * num_engines
    for g in order:
        engine = min(range(num_engines), key=lambda e: (loads[e], e))
        assignment[engine].extend(groups[g])
        loads[engine] += group_weights[g]
    return assignment


def steal_order(queries: Sequence[Query],
                graph: CSRGraph | None = None,
                weights: Sequence[float] | None = None,
                groups: list[list[int]] | None = None) -> list[int]:
    """Seed order of the shared work-stealing queue: heaviest group first.

    Returns positions into ``groups`` (default: one group per query, so
    the positions are batch indices).  Greedy list scheduling
    approximates LPT when the expensive groups enter the queue first;
    ties break on position so the order is deterministic.  ``weights``
    overrides the built-in estimate exactly as in :func:`longest_first`;
    with neither ``graph`` nor ``weights`` the queue falls back to
    arrival order.
    """
    if groups is None:
        groups = query_groups(queries, sharing=False)
    group_weights = _group_weights(queries, groups, graph, weights)
    if group_weights is None:
        return list(range(len(groups)))
    return sorted(range(len(groups)), key=lambda g: (-group_weights[g], g))


def requeue(groups: Sequence[Sequence[int]], num_engines: int,
            surviving: Sequence[int]) -> Assignment:
    """Deal groups of batch indices round-robin over ``surviving`` engines.

    The requeue rule: the indices failed engines left unserved are
    regrouped (:func:`query_groups`) and dealt here.  Returns a
    full-width assignment (dead engines get empty lists), each group kept
    whole and in order — deterministic, so a requeued batch's answers do
    not depend on which engine finished first.
    """
    _check(num_engines)
    alive = list(dict.fromkeys(surviving))
    for e in alive:
        if not 0 <= e < num_engines:
            raise ConfigError(
                f"surviving engine {e} out of range for {num_engines} engines"
            )
    if not alive:
        raise ConfigError("requeue needs at least one surviving engine")
    assignment: Assignment = [[] for _ in range(num_engines)]
    for g, members in enumerate(groups):
        assignment[alive[g % len(alive)]].extend(members)
    return assignment


def _check(num_engines: int) -> None:
    if num_engines < 1:
        raise ConfigError(f"need at least one engine, got {num_engines}")


#: name -> static scheduler callable, as exposed by the CLI.
SCHEDULERS: dict[str, Callable[..., Assignment]] = {
    "round-robin": round_robin,
    "longest-first": longest_first,
}

#: the dynamic mode: no up-front assignment, engines pull from a shared
#: queue (see :func:`steal_order` and the service backends).
WORK_STEALING = "work-stealing"

#: every scheduler name the service and CLI accept.
SCHEDULER_NAMES: tuple[str, ...] = (*SCHEDULERS, WORK_STEALING)
