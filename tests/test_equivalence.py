"""Cross-algorithm equivalence: every enumerator in the package must
return exactly the same path set on the same query.

This is the load-bearing test of the reproduction — the paper's
correctness argument (Section VI-A) is that PEFP's expansion-and-
verification never prunes a valid path and never emits an invalid one,
i.e. it agrees with the DFS-based state of the art.  These are fixed
seeded shapes checked against brute force; the oracle harness
(``test_oracle.py``) adds hypothesis draws and the device and service
configuration spaces.
"""

import random

import pytest

from conftest import brute_force_paths, random_query
from oracle import ENUMERATORS
from repro.baselines import BCDFS, Join, NaiveDFS
from repro.core.validation import validate_paths
from repro.graph import generators as G
from repro.host.query import Query
from repro.host.system import PEFPEnumerator


def _check_random_query(enumerator, graph, max_hops, seed):
    query = random_query(graph, max_hops, seed=seed)
    assert query is not None
    expected = brute_force_paths(graph, query.source, query.target, max_hops)
    assert enumerator.enumerate_paths(graph, query).path_set() == expected


@pytest.mark.parametrize("enumerator", ENUMERATORS,
                         ids=[e.name for e in ENUMERATORS])
class TestAgainstOracle:
    def test_gnm(self, enumerator):
        _check_random_query(enumerator, G.gnm_random(35, 160, seed=21), 4, 1)

    def test_power_law(self, enumerator):
        _check_random_query(enumerator, G.chung_lu(45, 260, seed=22), 5, 2)

    def test_community(self, enumerator):
        g = G.community_graph(3, 12, p_in=0.35, inter_edges=10, seed=23)
        _check_random_query(enumerator, g, 5, 3)

    def test_grid(self, enumerator):
        g = G.grid_graph(5, 5, seed=24, extra_edges=5)
        expected = brute_force_paths(g, 0, 24, 9)
        assert enumerator.enumerate_paths(g, Query(0, 24, 9)).path_set() \
            == expected

    def test_hub_spoke(self, enumerator):
        g = G.hub_spoke(3, 5, hub_clique_p=1.0, seed=25)
        _check_random_query(enumerator, g, 4, 4)

    def test_empty_result(self, enumerator):
        g = G.CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        assert enumerator.enumerate_paths(g, Query(0, 3, 5)).num_paths == 0

    def test_k_one(self, enumerator):
        g = G.complete_digraph(4)
        result = enumerator.enumerate_paths(g, Query(0, 2, 1))
        assert result.path_set() == frozenset({(0, 2)})


class TestPairwiseOnManySeeds:
    """Wider randomized sweep comparing the fast algorithms pairwise."""

    @pytest.mark.parametrize("seed", range(10))
    def test_join_vs_bcdfs_vs_pefp(self, seed):
        g = G.chung_lu(60, 340, seed=100 + seed)
        query = random_query(g, 5, seed=seed)
        if query is None:
            pytest.skip("no query with results for this seed")
        reference = BCDFS().enumerate_paths(g, query).path_set()
        assert Join().enumerate_paths(g, query).path_set() == reference
        assert (
            PEFPEnumerator().enumerate_paths(g, query).path_set() == reference
        )


class TestRandomizedFuzz:
    """Random graph shapes x random (s, t, k).

    Each round draws a graph family, a size and a handful of random
    queries from one seeded RNG, then demands that PEFP, BC-DFS and the
    naive DFS oracle return the same path set — and that every returned
    path passes the structural validator (anchored at s and t, simple,
    within k hops, every step a real edge, no duplicates).  Rounds are
    deterministic in their seed, so a failure reproduces from the test id.
    """

    FAMILIES = (
        ("gnm", lambda rng, n: G.gnm_random(
            n, rng.randint(2 * n, 4 * n), seed=rng.randrange(10_000))),
        ("chung_lu", lambda rng, n: G.chung_lu(
            n, rng.randint(2 * n, 4 * n), seed=rng.randrange(10_000))),
        ("community", lambda rng, n: G.community_graph(
            3, max(4, n // 3), p_in=0.3, inter_edges=n // 4,
            seed=rng.randrange(10_000))),
        ("hub_spoke", lambda rng, n: G.hub_spoke(
            3, max(3, n // 6), hub_clique_p=0.8,
            seed=rng.randrange(10_000))),
    )

    @pytest.mark.parametrize("round_idx", range(8))
    def test_fuzz_round(self, round_idx):
        rng = random.Random(7000 + round_idx)
        name, build = self.FAMILIES[round_idx % len(self.FAMILIES)]
        graph = build(rng, rng.randint(24, 48))
        n = graph.num_vertices
        oracle, bcdfs, pefp = NaiveDFS(), BCDFS(), PEFPEnumerator()
        checked = 0
        while checked < 3:
            s, t = rng.randrange(n), rng.randrange(n)
            if s == t:
                continue
            query = Query(s, t, rng.randint(1, 5))
            checked += 1
            expected = oracle.enumerate_paths(graph, query).path_set()
            for enumerator in (bcdfs, pefp):
                got = enumerator.enumerate_paths(graph, query)
                assert got.path_set() == expected, (
                    f"{enumerator.name} diverged on {name} round "
                    f"{round_idx}, query {query}"
                )
                report = validate_paths(graph, query, got.path_set())
                report.raise_if_invalid()
                assert report.checked == len(expected)
