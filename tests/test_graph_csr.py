"""Unit tests for the immutable CSR graph."""

import numpy as np
import pytest

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph import generators


class TestValidation:
    def test_indptr_must_start_with_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_tail_must_match_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_edge_endpoint_range_checked(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(VertexNotFoundError):
            CSRGraph.from_edges(2, [(0, 5)])


class TestBasics:
    def test_empty_graph(self):
        g = CSRGraph.empty(3)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.out_degree(0) == 0

    def test_from_edges_rejects_triples(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [(0, 1, 2), (1, 2, 0)])

    def test_from_edges_dedupes_and_drops_self_loops(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 1), (1, 2)])
        assert g.num_edges == 2

    def test_successors_sorted(self):
        g = CSRGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
        assert list(g.successors(0)) == [1, 2, 3]

    def test_successors_out_of_range(self):
        g = CSRGraph.empty(2)
        with pytest.raises(VertexNotFoundError):
            g.successors(2)

    def test_has_edge(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_out_degrees_array(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert list(g.out_degrees()) == [2, 1, 0]

    def test_edges_iterator_matches_input(self):
        edges = {(0, 1), (2, 0), (1, 2)}
        g = CSRGraph.from_edges(3, edges)
        assert set(g.edges()) == edges

    def test_equality_and_hash(self):
        a = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        b = CSRGraph.from_edges(3, [(1, 2), (0, 1)])
        c = CSRGraph.from_edges(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestAdjacencyLists:
    def test_matches_successors(self):
        g = generators.chung_lu(40, 200, seed=6)
        adj = g.adjacency_lists()
        assert len(adj) == g.num_vertices
        for u in range(g.num_vertices):
            assert list(adj[u]) == [int(v) for v in g.successors(u)]

    def test_cached(self):
        g = generators.cycle_graph(5)
        assert g.adjacency_lists() is g.adjacency_lists()

    def test_native_ints(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        for row in g.adjacency_lists():
            for v in row:
                assert type(v) is int


class TestReverse:
    def test_reverse_flips_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        rev = g.reverse()
        assert set(rev.edges()) == {(1, 0), (2, 1), (2, 0)}

    def test_reverse_is_cached(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        assert g.reverse() is g.reverse()

    def test_double_reverse_identity(self):
        g = generators.gnm_random(30, 90, seed=4)
        assert g.reverse().reverse() == g

    def test_reverse_preserves_degree_sum(self):
        g = generators.chung_lu(50, 200, seed=2)
        assert g.reverse().num_edges == g.num_edges


class TestInducedSubgraph:
    def test_identity_when_all_kept(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        sub, old_of_new, new_of_old = g.induced_subgraph([0, 1, 2])
        assert sub == g
        assert list(old_of_new) == [0, 1, 2]
        assert list(new_of_old) == [0, 1, 2]

    def test_drops_edges_to_removed_vertices(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, old_of_new, new_of_old = g.induced_subgraph([0, 1, 3])
        # kept vertices renumbered 0,1,2; edge (1,2) and (2,3) vanish
        assert sub.num_vertices == 3
        assert set(sub.edges()) == {(0, 1), (0, 2)}
        assert new_of_old[2] == -1

    def test_mapping_round_trip(self):
        g = generators.gnm_random(20, 60, seed=9)
        keep = [1, 3, 5, 7, 11, 13]
        sub, old_of_new, new_of_old = g.induced_subgraph(keep)
        for new_id, old_id in enumerate(old_of_new):
            assert new_of_old[old_id] == new_id

    def test_subgraph_edges_exist_in_parent(self):
        g = generators.chung_lu(40, 200, seed=3)
        keep = list(range(0, 40, 2))
        sub, old_of_new, _ = g.induced_subgraph(keep)
        for u, v in sub.edges():
            assert g.has_edge(int(old_of_new[u]), int(old_of_new[v]))

    def test_out_of_range_rejected(self):
        g = CSRGraph.empty(3)
        with pytest.raises(VertexNotFoundError):
            g.induced_subgraph([0, 5])

    def test_kept_ids_equal_np_unique(self):
        g = generators.gnm_random(30, 90, seed=4)
        rng = np.random.default_rng(5)
        for nodes in ([], [7], [7, 7, 7], rng.integers(0, 30, 200),
                      rng.permutation(30)):
            nodes = np.asarray(nodes, dtype=np.int64)
            for given in (nodes, nodes.tolist()):
                _, old_of_new, _ = g.induced_subgraph(given)
                assert old_of_new.dtype == np.int64
                assert np.array_equal(old_of_new, np.unique(nodes))
        for nodes in ([-1], [-1, -1, 3], [3, 30, 30]):
            with pytest.raises(VertexNotFoundError):
                g.induced_subgraph(nodes)

    def test_empty_selection(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        sub, old_of_new, new_of_old = g.induced_subgraph([])
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_unsorted_and_duplicate_nodes(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 3), (3, 0), (2, 4)])
        for nodes in ([3, 0, 1, 3, 0], np.array([3, 0, 1, 3, 0])):
            sub, old_of_new, new_of_old = g.induced_subgraph(nodes)
            assert list(old_of_new) == [0, 1, 3]
            assert list(new_of_old) == [0, 1, -1, 2, -1]
            assert set(sub.edges()) == {(0, 1), (1, 2), (2, 0)}

    def test_rows_that_keep_no_neighbours(self):
        # Vertices 1 and 3 are kept but every successor of theirs is not.
        g = CSRGraph.from_edges(
            6, [(0, 2), (1, 5), (2, 0), (2, 4), (3, 5), (4, 0)]
        )
        sub, old_of_new, _ = g.induced_subgraph(np.array([0, 1, 2, 3, 4]))
        assert list(old_of_new) == [0, 1, 2, 3, 4]
        assert list(sub.indptr) == [0, 1, 1, 3, 3, 4]
        assert list(sub.indices) == [2, 0, 4, 0]
