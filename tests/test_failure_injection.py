"""Failure injection and adversarial inputs: overflow paths, super nodes,
degenerate queries, misconfigured devices."""

import numpy as np
import pytest

from conftest import brute_force_paths
from repro.core.config import PEFPConfig
from repro.core.engine import PEFPEngine
from repro.errors import CapacityError, ConfigError, QueryError
from repro.fpga.device import Device, DeviceConfig
from repro.graph import generators as G
from repro.graph.csr import CSRGraph
from repro.host.query import Query
from repro.host.system import PathEnumerationSystem
from repro.observability import Tracer, analyze_trace
from repro.preprocess.bfs import distances_with_default, k_hop_bfs
from repro.service import BatchQueryService
from repro.workloads.queries import generate_queries


def run(graph, s, t, k, engine):
    sd_t = k_hop_bfs(graph.reverse(), t, k)
    barrier = distances_with_default(sd_t, k + 1)
    return engine.run(graph, s, t, k, barrier)


class TestBramPressure:
    def test_minimal_buffer_still_correct(self, complete5):
        """Buffer of 1 path: constant flushing, identical answers."""
        cfg = PEFPConfig(theta1=1, theta2=1, buffer_capacity_paths=1,
                         graph_cache_words=8, barrier_cache_words=4)
        result = run(complete5, 0, 1, 4, PEFPEngine(cfg))
        assert len(result.paths) == 16
        assert result.stats.flushes > 0

    def test_device_too_small_raises(self, complete5):
        """Structures that cannot fit BRAM must fail loudly, not wrap."""
        tiny = DeviceConfig(bram_words=64)
        cfg = PEFPConfig(theta2=256, buffer_capacity_paths=4096)
        with pytest.raises(CapacityError):
            run(complete5, 0, 1, 4, PEFPEngine(cfg, tiny))

    def test_zero_cache_budgets_work(self, complete5):
        cfg = PEFPConfig(graph_cache_words=0, barrier_cache_words=0)
        result = run(complete5, 0, 1, 3, PEFPEngine(cfg))
        assert len(result.paths) == 1 + 3 + 6


class TestSuperNodes:
    def test_star_hub_bigger_than_everything(self):
        """Hub degree >> Θ1, Θ2 and the buffer capacity combined."""
        fan = 50
        edges = [(0, 1)]
        edges += [(1, v) for v in range(2, 2 + fan)]
        edges += [(v, 2 + fan) for v in range(2, 2 + fan)]
        g = CSRGraph.from_edges(3 + fan, edges)
        cfg = PEFPConfig(theta1=4, theta2=4, buffer_capacity_paths=4,
                         graph_cache_words=32, barrier_cache_words=8)
        result = run(g, 0, 2 + fan, 3, PEFPEngine(cfg))
        assert len(result.paths) == fan

    def test_hub_as_source(self):
        fan = 30
        edges = [(0, v) for v in range(1, 1 + fan)]
        edges += [(v, 1 + fan) for v in range(1, 1 + fan)]
        g = CSRGraph.from_edges(2 + fan, edges)
        cfg = PEFPConfig(theta1=2, theta2=2, buffer_capacity_paths=2,
                         graph_cache_words=16, barrier_cache_words=8)
        result = run(g, 0, 1 + fan, 2, PEFPEngine(cfg))
        assert len(result.paths) == fan


class TestDegenerateInputs:
    def test_empty_graph_query(self):
        g = CSRGraph.empty(2)
        system = PathEnumerationSystem(g)
        report = system.execute(Query(0, 1, 3))
        assert report.num_paths == 0

    def test_isolated_target(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert PathEnumerationSystem(g).execute(Query(0, 2, 4)).num_paths == 0

    def test_k_larger_than_any_simple_path(self, cycle6):
        system = PathEnumerationSystem(cycle6)
        report = system.execute(Query(0, 3, 100))
        assert set(report.paths) == {(0, 1, 2, 3)}

    def test_two_vertex_graph(self):
        g = CSRGraph.from_edges(2, [(0, 1), (1, 0)])
        report = PathEnumerationSystem(g).execute(Query(0, 1, 5))
        assert report.paths == [(0, 1)]

    def test_dense_tiny_graph_all_variants_agree(self):
        g = G.complete_digraph(6)
        expected = brute_force_paths(g, 0, 5, 5)
        from repro.core.variants import VARIANTS

        for variant in VARIANTS:
            system = PathEnumerationSystem.for_variant(g, variant)
            assert frozenset(
                system.execute(Query(0, 5, 5)).paths
            ) == expected, variant


class TestBadConfigs:
    def test_negative_overhead(self):
        with pytest.raises(ConfigError):
            PEFPConfig(batch_overhead_cycles=-5)

    def test_engine_rejects_garbage_barrier_shape(self, line_graph):
        with pytest.raises(QueryError):
            PEFPEngine().run(line_graph, 0, 4, 3, np.zeros(2, np.int64))

    def test_device_invalid_dram_latency(self):
        with pytest.raises(ConfigError):
            Device(DeviceConfig(dram_read_latency=0))


class TestPathologicalBarriers:
    def test_all_zero_barrier_still_correct(self, random_graph):
        """Zero barriers (no-Pre-BFS) disable pruning but not correctness."""
        expected = brute_force_paths(random_graph, 0, 7, 4)
        barrier = np.zeros(random_graph.num_vertices, dtype=np.int64)
        result = PEFPEngine().run(random_graph, 0, 7, 4, barrier)
        assert frozenset(result.paths) == expected

    def test_overly_large_barrier_prunes_everything(self, random_graph):
        """A barrier above k on every vertex suppresses all results —
        documents that barriers must be lower bounds to be safe."""
        barrier = np.full(random_graph.num_vertices, 99, dtype=np.int64)
        result = PEFPEngine().run(random_graph, 0, 7, 4, barrier)
        assert result.paths == []


class TestMultiPEFailures:
    """Failure injection and adversarial shapes under the multi-PE device."""

    def setup_method(self):
        self.graph = G.gnm_random(35, 160, seed=21)
        self.queries = generate_queries(self.graph, 4, 10, seed=3)
        self.dcfg = DeviceConfig(num_pes=4, pe_partition="hash")

    def test_flaky_requeue_preserves_answers_and_spans(self):
        """A failed engine's queries requeue onto surviving multi-PE
        engines: identical answers, no leaked spans, and the trace still
        reconciles (the ``inter_pe`` segment tiles like any other)."""
        baseline = BatchQueryService(self.graph, num_engines=3,
                                     device_config=self.dcfg).run(
            self.queries)
        service = BatchQueryService(self.graph, num_engines=3,
                                    inject_failures=1,
                                    device_config=self.dcfg)
        tracer = Tracer()
        batch = service.run(self.queries, tracer=tracer, profile=True)
        assert batch.path_sets() == baseline.path_sets()
        assert batch.engine_failures == 1
        assert batch.requeued_queries >= 1
        assert tracer.open_spans == 0
        attribution = analyze_trace(tracer.records())
        assert attribution.num_queries == batch.num_queries
        assert all(wf.reconciled for wf in attribution.waterfalls)

    def test_multi_pe_answers_match_single_pe_service(self):
        single = BatchQueryService(self.graph, num_engines=3).run(
            self.queries)
        multi = BatchQueryService(self.graph, num_engines=3,
                                  device_config=self.dcfg).run(self.queries)
        assert multi.path_sets() == single.path_sets()

    def test_minimal_buffer_multi_pe_still_correct(self, complete5):
        """Buffer of 1 path on every PE: constant flushing plus inter-PE
        routing, identical answers."""
        cfg = PEFPConfig(theta1=1, theta2=1, buffer_capacity_paths=1,
                         graph_cache_words=8, barrier_cache_words=4)
        single = run(complete5, 0, 1, 4, PEFPEngine(cfg))
        multi = run(complete5, 0, 1, 4, PEFPEngine(cfg, self.dcfg))
        assert sorted(multi.paths) == sorted(single.paths)
        assert multi.stats.flushes > 0

    def test_bad_pe_configs_raise(self):
        with pytest.raises(ConfigError):
            DeviceConfig(num_pes=0)
        with pytest.raises(ConfigError):
            DeviceConfig(num_pes=2, pe_partition="modulo")
        with pytest.raises(ConfigError):
            DeviceConfig(num_pes=2, inter_pe_fifo_records=0)
        with pytest.raises(ConfigError):
            DeviceConfig(num_pes=2, inter_pe_hop_cycles=-1)
