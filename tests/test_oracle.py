"""Every configuration of the engine and service spaces, checked against
the ``dfs_naive`` oracle and the invariance classes ``oracle.py`` declares.

Graphs come from derandomized hypothesis draws (seeded by the test id,
degenerate shapes included) and from the fixed seeded graphs of the
multi-PE goldens; the process executor serves only the fixed graphs.
Each row also checks that its configuration took its path at least once:
a budget truncated, a batch deadline degraded, a fault seed failed an
engine, sharing deduped, a tiny buffer flushed and refilled.  The
oracle itself is checked against brute force on every 4-vertex digraph
by ``test_exhaustive_small_graphs.py``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest
from hypothesis import given, strategies as st

from oracle import (CONFIGS, ENGINE_ROWS, ENUMERATORS, FIXED_GRAPHS,
                    SERVICE_GRAPHS, SERVICE_ROWS, STATIC_SCHEDULERS,
                    REFERENCE_ROW, assert_answer, batch_for, engine_bytes,
                    engine_input, executor_view, fixed_case, graph_queries,
                    oracle_paths, pe_answer, row_id, run_engine, seeded,
                    serve, service_answer)
from repro.graph.generators import gnm_random
from repro.host.query import Query
from repro.workloads import generate_queries

FIXED = tuple(FIXED_GRAPHS)

# ---------------------------------------------------------------------------
# The engine space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("enumerator", ENUMERATORS,
                         ids=[e.name for e in ENUMERATORS])
def test_enumerator_matches_oracle(enumerator, request):
    for name in FIXED:
        query, expected = fixed_case(name, 4, seed=1)
        got = enumerator.enumerate_paths(FIXED_GRAPHS[name](), query)
        assert got.path_set() == expected, (name, query)

    @seeded(request.node.nodeid, 50)
    @given(graph_queries())
    def check(case):
        shape, graph, query = case
        assert (enumerator.enumerate_paths(graph, query).path_set()
                == oracle_paths(graph, query)), (shape, query)

    check()


def _check_engine_row(row, graph, query, expected, took):
    """Run ``query`` through every engine of ``row``; assert the oracle,
    the engine byte class and the PE class."""
    inp = engine_input(graph, query, row["prep"])
    if inp is None:
        assert not expected, query
        return
    k, translate = query.max_hops, inp[4]
    budgeted = row["budget"] != "none"
    runs = [run_engine(kind, inp, k, row)
            for kind in ("vectorised", "reference", "driver")]
    want = engine_bytes(*runs[0])
    for run in runs[1:]:
        assert engine_bytes(*run) == want, query
    # Observing a run must not change it.
    plain = engine_bytes(*run_engine("plain", inp, k, row))
    assert plain == {key: want[key] for key in plain}, query
    result, streamed, _ = runs[0]
    if row["output"] == "stream":
        assert result.paths == []
    assert_answer(map(translate, result.paths or streamed), expected,
                  result.truncated, budgeted, query)
    domain = "bram" if CONFIGS[row["config"]].use_cache else "dram"
    assert result.stats.buffer_domain == domain
    assert result.profile.buffer_domain == domain
    assert result.profile.accounted_cycles == result.profile.total_cycles
    took.update(truncated=result.truncated,
                flushed=result.stats.flushes > 0,
                refilled=result.stats.refills > 0)
    if row["num_pes"] == 1:
        return
    multi, multi_streamed, multi_tracer = run_engine("pes", inp, k, row)
    assert multi.profile.num_pes == row["num_pes"]
    assert multi.profile.accounted_cycles == multi.profile.total_cycles
    if row["budget"] != "cycle_budget":
        budget = row["budget"]
        assert (pe_answer(multi, multi_streamed, budget)
                == pe_answer(result, streamed, budget))
    assert_answer(map(translate, multi.paths or multi_streamed), expected,
                  multi.truncated, budgeted, query)
    again = run_engine("pes", inp, k, row)
    assert engine_bytes(*again) == engine_bytes(multi, multi_streamed,
                                                multi_tracer)


@pytest.mark.parametrize("row", ENGINE_ROWS, ids=row_id)
def test_engine_space(row, request):
    took: Counter = Counter()
    i = ENGINE_ROWS.index(row)
    # Grid answers are too small for a budget to cut.
    name = FIXED[i % len(FIXED)] if row["budget"] == "none" else "chung_lu"
    query, expected = fixed_case(name, 4, seed=i)
    _check_engine_row(row, FIXED_GRAPHS[name](), query, expected, took)

    @seeded(request.node.nodeid, 16)
    @given(graph_queries())
    def check(case):
        _, graph, query = case
        _check_engine_row(row, graph, query, oracle_paths(graph, query),
                          took)

    check()
    if row["budget"] != "none":
        assert took["truncated"], "the budget never truncated"
    if row["config"] == "tiny_buffer":
        assert took["flushed"] and took["refilled"], took


# ---------------------------------------------------------------------------
# The service space
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def answers():
    """Oracle and reference answers of the fixed batches, by (graph,
    batch)."""
    return defaultdict(dict)


def _check_service_row(row, graph, queries, known, took):
    """Serve ``queries`` under ``row``; assert the oracle, the service
    answer class and the executor class.  ``known`` memoises the oracle
    answers (key ``"oracle"``) and the reference answer under each limit
    of this batch."""
    if "oracle" not in known:
        known["oracle"] = [oracle_paths(graph, q) for q in queries]
    report, tracer = serve(graph, queries, row)
    limit = row["limit"]
    for query, expected, r in zip(queries, known["oracle"], report.reports):
        assert_answer(r.paths, expected, r.truncated, limit != "none", query)
    if limit != "batch_deadline":
        if limit not in known:
            known[limit] = service_answer(serve(
                graph, queries, {**REFERENCE_ROW, "limit": limit})[0])
        assert service_answer(report) == known[limit]
    served = sorted(i for part in report.assignment for i in part)
    assert served == list(range(len(queries)))
    repeat = row["executor"] == "repeat"
    if repeat or (row["executor"] == "process"
                  and row["scheduler"] in STATIC_SCHEDULERS):
        base, base_tracer = serve(graph, queries, row, "inline")
        # A rerun shares the memo topology of the run it repeats.
        memo = repeat or (row["faults"] is None
                          and (row["sharing"] or row["batch"] == "distinct"))
        assert (executor_view(report, tracer, memo)
                == executor_view(base, base_tracer, memo))
    assert report.requeued_queries >= report.engine_failures
    if not report.failed_engines:
        # A fault that did not fire: its victim never reached the kernel
        # run it fails on (hits and empty answers run no kernel).
        for victim, fail_after in report.failure_plan:
            runs = sum(not (report.reports[i].empty
                            or report.reports[i].result_hit)
                       for i in report.assignment[victim])
            assert runs <= fail_after, (victim, runs, fail_after)
            took.update(good_runs_used=runs == fail_after)
    took.update(truncated=any(r.truncated for r in report.reports),
                degraded=report.metrics.counter("degraded_queries"),
                failed=report.engine_failures,
                deduped=report.deduped_queries)


@st.composite
def _batches(draw, shared):
    _, graph, first = draw(graph_queries())
    n = graph.num_vertices
    queries = [first]
    for _ in range(draw(st.integers(1, 5))):
        s = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 2))
        queries.append(Query(s, t + (t >= s), draw(st.integers(1, n))))
    if shared:
        queries += draw(st.lists(st.sampled_from(queries), min_size=1,
                                 max_size=4))
    else:
        queries = list(dict.fromkeys(queries))
    return graph, queries


@pytest.mark.parametrize("row", SERVICE_ROWS, ids=row_id)
def test_service_space(row, request, answers):
    took: Counter = Counter()
    for name in SERVICE_GRAPHS:
        graph = FIXED_GRAPHS[name]()
        queries = batch_for(graph, row["batch"])
        _check_service_row(row, graph, queries,
                           answers[name, row["batch"]], took)
    limit = row["limit"]
    if limit in ("result_budget", "cycle_budget", "deadline"):
        assert took["truncated"], "the limit never truncated"
    if limit == "batch_deadline":
        assert took["degraded"], "the batch deadline never degraded"
    # A static schedule deals the victim its share, and in-process work
    # stealing follows the modelled clock, so the seed alone decides
    # whether the victim fails; process stealing follows the wall clock.
    # A stolen share may end exactly at the victim's last good run.
    if row["faults"] is not None:
        if row["scheduler"] in STATIC_SCHEDULERS:
            assert took["failed"], "the fault seed never failed an engine"
        elif row["executor"] != "process":
            assert took["failed"] or took["good_runs_used"], (
                "the fault seed never failed an engine nor used up its "
                "victim's good runs")
    if row["sharing"]:
        assert took["deduped"], "sharing never deduped"
    if row["executor"] == "process":
        return

    @seeded(request.node.nodeid, 8)
    @given(_batches(row["batch"] == "shared"))
    def check(case):
        graph, queries = case
        _check_service_row(row, graph, queries, {}, Counter())

    check()


@pytest.mark.parametrize("scheduler", ["round-robin", "work-stealing"])
def test_in_process_rerun_is_byte_equal(scheduler):
    """Sharing off, the duplicate (1, 4, 4) at indices 4 and 9 takes the
    Pre-BFS memo miss on whichever engine serves it first.  In-process
    that order is fixed, so two runs agree on per-query T1, the cache
    counters, the engine-track span streams and the assignment."""
    graph = gnm_random(35, 160, seed=21)
    queries = generate_queries(graph, 4, 24, seed=3)
    assert queries[4] == queries[9] == Query(1, 4, 4)
    row = {**REFERENCE_ROW, "scheduler": scheduler, "engines": 3,
           "limit": "none"}
    (first, first_tracer), (again, again_tracer) = (
        serve(graph, queries, row) for _ in range(2))
    # Only one of the two copies misses the memo.
    assert (first.reports[4].preprocess_seconds
            != first.reports[9].preprocess_seconds)
    assert (repr(executor_view(again, again_tracer, memo=True))
            == repr(executor_view(first, first_tracer, memo=True)))
