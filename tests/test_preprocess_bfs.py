"""Unit tests for hop-bounded BFS."""

import numpy as np
import pytest

from repro.errors import VertexNotFoundError
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.cost_model import OpCounter
from repro.preprocess.bfs import (
    distances_with_default,
    k_hop_bfs,
    multi_source_k_hop_bfs,
)


class TestKHopBfs:
    def test_line_distances(self, line_graph):
        dist = k_hop_bfs(line_graph, 0, 10)
        assert list(dist) == [0, 1, 2, 3, 4]

    def test_hop_bound_respected(self, line_graph):
        dist = k_hop_bfs(line_graph, 0, 2)
        assert list(dist) == [0, 1, 2, -1, -1]

    def test_zero_hops(self, line_graph):
        ops = OpCounter()
        dist = k_hop_bfs(line_graph, 2, 0, ops)
        assert dist[2] == 0
        assert np.count_nonzero(dist >= 0) == 1
        # The source still enters the queue and dequeues once, exactly as
        # in the multi-source search; nothing is relaxed.
        assert ops.as_dict() == {"vertex_visit": 1}
        multi = OpCounter()
        multi_source_k_hop_bfs(line_graph, np.array([2]), 0, multi)
        assert multi.as_dict() == ops.as_dict()

    def test_unreachable_marked(self):
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        dist = k_hop_bfs(g, 0, 5)
        assert dist[2] == -1
        assert dist[3] == -1

    def test_directed(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        assert k_hop_bfs(g, 1, 3)[0] == -1

    def test_source_out_of_range(self, line_graph):
        with pytest.raises(VertexNotFoundError):
            k_hop_bfs(line_graph, 9, 2)

    def test_matches_exact_shortest_distance(self):
        g = G.gnm_random(60, 300, seed=5)
        dist = k_hop_bfs(g, 0, 60)
        # verify via one-step relaxation fixpoint: triangle inequality
        for u, v in g.edges():
            if dist[u] >= 0:
                assert dist[v] != -1 and dist[v] <= dist[u] + 1

    def test_counter_charged(self, line_graph):
        ops = OpCounter()
        k_hop_bfs(line_graph, 0, 10, ops)
        assert ops.count("vertex_visit") == 5
        assert ops.count("bfs_relax") == 4


class TestMultiSource:
    def test_multiple_sources_zero_distance(self):
        g = G.cycle_graph(6)
        dist = multi_source_k_hop_bfs(g, np.array([0, 3]), 6)
        assert dist[0] == 0 and dist[3] == 0
        assert dist[1] == 1 and dist[4] == 1
        assert dist[2] == 2 and dist[5] == 2

    def test_bound(self):
        g = G.cycle_graph(8)
        dist = multi_source_k_hop_bfs(g, np.array([0]), 2)
        assert dist[3] == -1

    def test_bad_source(self):
        g = G.cycle_graph(3)
        with pytest.raises(VertexNotFoundError):
            multi_source_k_hop_bfs(g, np.array([7]), 2)

    def test_duplicate_sources_ok(self):
        g = G.cycle_graph(4)
        dist = multi_source_k_hop_bfs(g, np.array([1, 1]), 4)
        assert dist[1] == 0


class TestDefaults:
    def test_unreached_replaced(self):
        dist = np.array([0, 2, -1, 3, -1])
        out = distances_with_default(dist, 9)
        assert list(out) == [0, 2, 9, 3, 9]

    def test_original_untouched(self):
        dist = np.array([-1, 1])
        distances_with_default(dist, 5)
        assert dist[0] == -1
