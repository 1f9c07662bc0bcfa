"""Unit tests for edge-list IO."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_dataset
from repro.errors import GraphError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.io import parse_edge_lines, read_edge_list, write_edge_list


class TestParse:
    def test_basic(self):
        g = parse_edge_lines(["0 1", "1 2"])
        assert g.num_vertices == 3
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_lines(["# header", "", "% konect style", "0 1"])
        assert g.num_edges == 1

    def test_sparse_ids_densified(self):
        g = parse_edge_lines(["100 200", "200 300"])
        assert g.num_vertices == 3
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_extra_columns_tolerated(self):
        g = parse_edge_lines(["0 1 42 1.5"])
        assert g.num_edges == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_lines(["justonetoken"])

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError, match="non-integer"):
            parse_edge_lines(["a b"])

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError, match="negative"):
            parse_edge_lines(["-1 0"])

    def test_self_loop_dropped(self):
        g = parse_edge_lines(["5 5", "5 6"])
        assert g.num_edges == 1


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        g = generators.gnm_random(25, 80, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path, header="test graph\nsecond line")
        g2 = read_edge_list(path)
        assert set(g2.edges()) == set(g.edges())
        assert g2.num_vertices == g.num_vertices

    def test_header_written_as_comments(self, tmp_path):
        g = generators.cycle_graph(3)
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="hello")
        text = path.read_text()
        assert text.startswith("# hello\n")


class TestDeclaredVertices:
    """A ``# vertices: N`` line keeps ids as they are."""

    def test_ids_kept_with_isolated_vertices(self):
        g = parse_edge_lines(["# vertices: 5", "0 3"])
        assert g.num_vertices == 5
        assert set(g.edges()) == {(0, 3)}

    def test_id_beyond_declared_count_rejected(self):
        with pytest.raises(GraphError, match="line 3: vertex id 3"):
            parse_edge_lines(["# vertices: 3", "0 1", "1 3"])

    def test_header_cannot_override_the_count(self, tmp_path):
        g = CSRGraph.from_edges(6, [(0, 2), (2, 5)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="vertices: 3")
        assert read_edge_list(path).num_vertices == 6


def assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


class TestIsolatedVerticesRoundTrip:
    def test_small_graph(self, tmp_path):
        g = CSRGraph.from_edges(7, [(0, 2), (2, 5), (5, 0), (6, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert_same_csr(read_edge_list(path), g)

    def test_dp_dataset(self, tmp_path):
        g = load_dataset("dp")
        path = tmp_path / "dp.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_vertices == 20_000
        assert_same_csr(back, g)

    def test_query_on_written_dp_matches_dataset_key(self, tmp_path, capsys):
        """Vertex 101 is dp's first isolated vertex: a densifying reader
        renumbers every id above it, so 150 -> 9649 would name another
        pair (5 paths instead of 13)."""
        path = tmp_path / "dp.txt"
        write_edge_list(load_dataset("dp"), path)
        argv = ["-s", "150", "-t", "9649", "-k", "3", "--all"]
        assert main(["query", "dp", *argv]) == 0
        from_key = capsys.readouterr().out
        assert main(["query", str(path), *argv]) == 0
        from_file = capsys.readouterr().out
        assert from_key.startswith("13 path(s) from 150 to 9649")
        assert from_file == from_key
