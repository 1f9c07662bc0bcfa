"""Tests for the level-synchronous contrast engine."""

import numpy as np
import pytest

from conftest import brute_force_paths
from repro.core.config import PEFPConfig
from repro.core.engine import PEFPEngine
from repro.core.naive_engine import LevelBFSEngine
from repro.errors import QueryError
from repro.graph import generators as G
from repro.preprocess.bfs import distances_with_default, k_hop_bfs


def run(engine, graph, s, t, k):
    sd_t = k_hop_bfs(graph.reverse(), t, k)
    barrier = distances_with_default(sd_t, k + 1)
    return engine.run(graph, s, t, k, barrier)


class TestFunctional:
    def test_diamond(self, diamond_graph):
        result = run(LevelBFSEngine(), diamond_graph, 0, 3, 3)
        assert set(result.paths) == {(0, 1, 3), (0, 2, 3), (0, 4, 5, 3)}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, seed):
        g = G.chung_lu(35, 200, seed=seed)
        expected = brute_force_paths(g, 0, 7, 4)
        result = run(LevelBFSEngine(), g, 0, 7, 4)
        assert frozenset(result.paths) == expected

    def test_matches_pefp(self, power_law_graph):
        a = run(LevelBFSEngine(), power_law_graph, 0, 9, 4)
        b = run(PEFPEngine(), power_law_graph, 0, 9, 4)
        assert frozenset(a.paths) == frozenset(b.paths)

    def test_validation(self):
        """Both engines reject the same bad queries, barrier length too."""
        graph = G.grid_graph(4, 4)
        # source equals target; barrier shorter, then longer than |V|.
        for target, bar_len in ((0, 16), (15, 3), (15, 40)):
            barrier = np.zeros(bar_len, dtype=np.int64)
            for engine in (LevelBFSEngine(), PEFPEngine()):
                with pytest.raises(QueryError):
                    engine.run(graph, 0, target, 3, barrier)


class TestMemoryBehaviour:
    def test_level_overflow_spills(self):
        """A level wider than the on-chip area must pay DRAM round trips —
        the paradigm cost PEFP's buffer-and-batch avoids."""
        g = G.complete_digraph(8)
        cfg = PEFPConfig(buffer_capacity_paths=4, theta1=2, theta2=2,
                         graph_cache_words=128, barrier_cache_words=32)
        result = run(LevelBFSEngine(cfg), g, 0, 1, 5)
        assert result.stats.flushes > 0
        assert result.stats.flushed_paths > 0

    def test_peak_is_level_width(self, complete5):
        naive = run(LevelBFSEngine(), complete5, 0, 1, 4)
        pefp = run(PEFPEngine(), complete5, 0, 1, 4)
        # level-synchronous keeps whole levels; PEFP keeps a DFS frontier
        assert naive.stats.peak_buffer_paths >= pefp.stats.peak_buffer_paths

    def test_pefp_wins_when_levels_overflow(self):
        """The paper's core architectural claim at engine granularity."""
        g = G.chung_lu(400, 4000, seed=13)
        cfg = PEFPConfig(buffer_capacity_paths=64, theta1=32, theta2=32,
                         graph_cache_words=8192, barrier_cache_words=1024)
        naive = run(LevelBFSEngine(cfg), g, 0, 9, 4)
        pefp = run(PEFPEngine(cfg), g, 0, 9, 4)
        assert frozenset(naive.paths) == frozenset(pefp.paths)
        if naive.stats.flushed_paths > pefp.stats.flushed_paths:
            assert naive.cycles >= pefp.cycles
