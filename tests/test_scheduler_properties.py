"""Property tests: the group-level schedulers against the per-query and
grouped policies they replaced.

Every policy in :mod:`repro.service.scheduler` places whole groups.  The
oracles below are the two families it replaced, copied verbatim: the
per-query policies (``round_robin``, ``longest_first``, ``steal_order``,
``requeue``) and the source-group layer (``grouped_assignment``,
``grouped_steal_order``, ``requeue_groups``).  Over singleton groups the
group-level policy must equal the per-query oracle; over source groups it
must equal the grouped oracle — for any batch, engine count, weights,
pending set and survivor list.
"""

from __future__ import annotations

from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.query import Query
from repro.service import scheduler as sched
from repro.service.scheduler import (
    Assignment,
    _scheduling_reverse,
    estimate_query_work,
)

# -- oracles: the policies before the group-level rewrite, verbatim -------


def _estimate_all(queries: Sequence[Query],
                  graph: CSRGraph) -> list[float]:
    reverse = _scheduling_reverse(graph)
    return [estimate_query_work(graph, q, reverse) for q in queries]


def round_robin(queries: Sequence[Query], num_engines: int,
                graph: CSRGraph | None = None) -> Assignment:
    """Deal queries to engines in arrival order."""
    _check(num_engines)
    assignment: Assignment = [[] for _ in range(num_engines)]
    for i in range(len(queries)):
        assignment[i % num_engines].append(i)
    return assignment


def longest_first(queries: Sequence[Query], num_engines: int,
                  graph: CSRGraph | None = None,
                  weights: Sequence[float] | None = None) -> Assignment:
    """LPT: heaviest query first, always to the least-loaded engine.

    ``weights`` overrides the built-in estimate (e.g. with measured
    latencies from a previous batch); without it, ``graph`` must be given
    so endpoint degrees can be read.
    """
    _check(num_engines)
    if weights is None:
        if graph is None:
            raise ConfigError(
                "longest-first needs the graph (or explicit weights) "
                "to estimate per-query work"
            )
        weights = _estimate_all(queries, graph)
    elif len(weights) != len(queries):
        raise ConfigError(
            f"got {len(weights)} weights for {len(queries)} queries"
        )
    order = sorted(range(len(queries)),
                   key=lambda i: (-weights[i], i))
    assignment: Assignment = [[] for _ in range(num_engines)]
    loads = [0.0] * num_engines
    for i in order:
        engine = min(range(num_engines), key=lambda e: (loads[e], e))
        assignment[engine].append(i)
        loads[engine] += weights[i]
    return assignment


def requeue(pending: Sequence[int], num_engines: int,
            surviving: Sequence[int]) -> Assignment:
    """Redistribute unfinished batch indices onto the surviving engines.

    ``pending`` are query indices an engine failed to serve; ``surviving``
    names the engines still alive.  Returns a full-width assignment (dead
    engines get empty lists) with the pending queries dealt round-robin
    over the survivors in order — deterministic, so a requeued batch's
    answers do not depend on thread interleaving.
    """
    _check(num_engines)
    alive = _surviving(num_engines, surviving)
    assignment: Assignment = [[] for _ in range(num_engines)]
    for i, query_idx in enumerate(pending):
        assignment[alive[i % len(alive)]].append(query_idx)
    return assignment


def steal_order(queries: Sequence[Query],
                graph: CSRGraph | None = None,
                weights: Sequence[float] | None = None) -> list[int]:
    """Seed order of the shared work-stealing queue: heaviest first.

    Greedy list scheduling approximates LPT when the expensive queries
    enter the queue first; ties break on batch index so the order is
    deterministic.  ``weights`` overrides the built-in estimate exactly
    as in :func:`longest_first`; with neither ``graph`` nor ``weights``
    the queue falls back to arrival order.
    """
    if weights is None:
        if graph is None:
            return list(range(len(queries)))
        weights = _estimate_all(queries, graph)
    elif len(weights) != len(queries):
        raise ConfigError(
            f"got {len(weights)} weights for {len(queries)} queries"
        )
    return sorted(range(len(queries)), key=lambda i: (-weights[i], i))


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


def grouped_assignment(scheduler: str, queries: Sequence[Query],
                       num_engines: int,
                       graph: CSRGraph | None = None) -> Assignment:
    """Static assignment that never splits a source group across engines.

    ``round-robin`` deals whole groups in first-appearance order;
    ``longest-first`` runs LPT over groups weighted by the sum of their
    members' estimates.  Members stay contiguous and in batch order
    inside their engine's list, so each group's queries run back to back
    — the forward frontier is resident when the rest of the group needs
    it.
    """
    _check(num_engines)
    groups = group_by_source(queries)
    assignment: Assignment = [[] for _ in range(num_engines)]
    if scheduler == "round-robin":
        for g, members in enumerate(groups):
            assignment[g % num_engines].extend(members)
        return assignment
    if scheduler == "longest-first":
        if graph is None:
            raise ConfigError(
                "longest-first needs the graph to estimate per-query work"
            )
        weights = _estimate_all(queries, graph)
        group_weights = [sum(weights[i] for i in members)
                         for members in groups]
        order = sorted(range(len(groups)),
                       key=lambda g: (-group_weights[g], g))
        loads = [0.0] * num_engines
        for g in order:
            engine = min(range(num_engines), key=lambda e: (loads[e], e))
            assignment[engine].extend(groups[g])
            loads[engine] += group_weights[g]
        return assignment
    raise ConfigError(f"unknown static scheduler {scheduler!r}")


def grouped_steal_order(queries: Sequence[Query],
                        graph: CSRGraph | None = None) -> list[list[int]]:
    """Work-stealing queue of whole source groups, heaviest group first.

    An idle engine steals a *group*, not a query — sharing requires the
    whole group to run on whichever engine takes it.  Without a graph the
    queue falls back to first-appearance order.
    """
    groups = group_by_source(queries)
    if graph is None:
        return groups
    weights = _estimate_all(queries, graph)
    group_weights = [sum(weights[i] for i in members) for members in groups]
    order = sorted(range(len(groups)),
                   key=lambda g: (-group_weights[g], g))
    return [groups[g] for g in order]


def requeue_groups(queries: Sequence[Query], pending: Sequence[int],
                   num_engines: int,
                   surviving: Sequence[int]) -> Assignment:
    """Redistribute unfinished batch indices, keeping source groups whole.

    The group analogue of :func:`requeue`: the ``pending`` indices are
    re-partitioned by source and the groups dealt round-robin over the
    survivors in order, each kept whole — so a re-dispatched group still
    shares its forward frontier and dedupes its duplicates on one engine.
    """
    _check(num_engines)
    alive = _surviving(num_engines, surviving)
    groups = group_by_source([queries[i] for i in pending])
    assignment: Assignment = [[] for _ in range(num_engines)]
    for g, members in enumerate(groups):
        assignment[alive[g % len(alive)]].extend(
            pending[j] for j in members
        )
    return assignment


def _surviving(num_engines: int, surviving: Sequence[int]) -> list[int]:
    alive = list(dict.fromkeys(surviving))
    for e in alive:
        if not 0 <= e < num_engines:
            raise ConfigError(
                f"surviving engine {e} out of range for {num_engines} engines"
            )
    if not alive:
        raise ConfigError("requeue needs at least one surviving engine")
    return alive


def _check(num_engines: int) -> None:
    if num_engines < 1:
        raise ConfigError(f"need at least one engine, got {num_engines}")


# -- strategies ----------------------------------------------------------

GRAPH = G.gnm_random(12, 50, seed=5)

#: few sources, so batches repeat them (and duplicate whole queries).
queries_st = st.lists(
    st.builds(Query, st.integers(0, 4), st.integers(0, 11),
              st.integers(1, 5)),
    max_size=14,
)
engines_st = st.integers(1, 8)


@st.composite
def scenario(draw):
    """A batch, an engine count, optional weights, a pending set and a
    survivor list (possibly empty or out of range)."""
    queries = draw(queries_st)
    n = len(queries)
    num_engines = draw(engines_st)
    weights = draw(st.none() | st.lists(
        st.integers(0, 6).map(float) | st.floats(0.0, 50.0),
        min_size=n, max_size=n,
    ))
    pending = draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True,
                            max_size=n))
    surviving = draw(st.lists(st.integers(-1, num_engines), max_size=5))
    return queries, num_engines, weights, pending, surviving


def outcome(fn, *args, **kwargs):
    """A call's result, or the exception type it raised."""
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        return ConfigError


# -- properties ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_singleton_groups_equal_per_query_policies(case):
    queries, n, weights, pending, surviving = case
    singles = sched.query_groups(queries, sharing=False)
    assert singles == [[i] for i in range(len(queries))]
    assert (sched.round_robin(queries, n, groups=singles)
            == sched.round_robin(queries, n) == round_robin(queries, n))
    for graph in (GRAPH, None):
        assert outcome(sched.longest_first, queries, n, graph=graph,
                       weights=weights, groups=singles) == outcome(
            longest_first, queries, n, graph=graph, weights=weights)
        assert outcome(sched.steal_order, queries, graph=graph,
                       weights=weights, groups=singles) == outcome(
            steal_order, queries, graph=graph, weights=weights)
    regrouped = sched.query_groups(queries, False, pending)
    assert outcome(sched.requeue, regrouped, n, surviving) == outcome(
        requeue, pending, n, surviving)


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_source_groups_equal_grouped_policies(case):
    queries, n, _weights, pending, surviving = case
    groups = sched.query_groups(queries, sharing=True)
    assert groups == group_by_source(queries)
    assert sched.round_robin(queries, n, groups=groups) == (
        grouped_assignment("round-robin", queries, n))
    for graph in (GRAPH, None):
        assert outcome(sched.longest_first, queries, n, graph=graph,
                       groups=groups) == outcome(
            grouped_assignment, "longest-first", queries, n, graph=graph)
        order = sched.steal_order(queries, graph=graph, groups=groups)
        assert [groups[g] for g in order] == grouped_steal_order(
            queries, graph=graph)
    regrouped = sched.query_groups(queries, True, pending)
    assert outcome(sched.requeue, regrouped, n, surviving) == outcome(
        requeue_groups, queries, pending, n, surviving)
