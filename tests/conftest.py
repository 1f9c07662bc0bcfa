"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph import generators
from repro.host.query import Query


def pytest_addoption(parser):
    parser.addoption(
        "--test-timeout",
        type=float,
        default=float(os.environ.get("REPRO_TEST_TIMEOUT", "180")),
        help="per-test wall-clock limit in seconds, enforced with "
        "SIGALRM (0 disables; pytest-timeout is not a dependency)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail (not hang) any test that exceeds the wall limit.

    A hung engine loop or a stuck worker pipe would otherwise
    stall the whole suite; SIGALRM turns it into an ordinary test
    failure with a traceback pointing at the blocked line.  Skipped on
    platforms without SIGALRM and off the main thread, where the signal
    could not be delivered to this test anyway.
    """
    limit = item.config.getoption("--test-timeout")
    usable = (
        limit > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the --test-timeout wall limit of {limit:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def brute_force_paths(
    graph: CSRGraph, source: int, target: int, max_hops: int
) -> frozenset[tuple[int, ...]]:
    """Reference enumeration by recursive exhaustive search.

    Deliberately independent of every library enumerator (no pruning, no
    shared helpers) so it can serve as the oracle.
    """
    results: set[tuple[int, ...]] = set()

    def walk(path: tuple[int, ...]) -> None:
        if len(path) - 1 > max_hops:
            return
        if path[-1] == target:
            results.add(path)
            return
        if len(path) - 1 == max_hops:
            return
        for v in graph.successors(path[-1]):
            u = int(v)
            if u not in path:
                walk(path + (u,))

    walk((source,))
    return frozenset(results)


def assert_valid_paths(
    paths, source: int, target: int, max_hops: int
) -> None:
    """Every path must be simple, within k, and correctly anchored."""
    for p in paths:
        assert p[0] == source, f"path {p} does not start at {source}"
        assert p[-1] == target, f"path {p} does not end at {target}"
        assert len(p) - 1 <= max_hops, f"path {p} exceeds {max_hops} hops"
        assert len(set(p)) == len(p), f"path {p} revisits a vertex"


@pytest.fixture
def diamond_graph() -> CSRGraph:
    """s=0 -> {1,2} -> 3 plus a long detour 0->4->5->3."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 3)]
    return CSRGraph.from_edges(6, edges)


@pytest.fixture
def line_graph() -> CSRGraph:
    """A directed path 0 -> 1 -> 2 -> 3 -> 4."""
    return CSRGraph.from_edges(5, [(i, i + 1) for i in range(4)])


@pytest.fixture
def cycle6() -> CSRGraph:
    return generators.cycle_graph(6)


@pytest.fixture
def complete5() -> CSRGraph:
    return generators.complete_digraph(5)


@pytest.fixture
def random_graph() -> CSRGraph:
    return generators.gnm_random(40, 160, seed=11)


@pytest.fixture
def power_law_graph() -> CSRGraph:
    return generators.chung_lu(80, 400, seed=5)


def random_query(graph: CSRGraph, max_hops: int, seed: int) -> Query | None:
    """A deterministic random query with at least one result, if any."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    for _ in range(200):
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t:
            continue
        if brute_force_paths(graph, s, t, max_hops):
            return Query(s, t, max_hops)
    return None
