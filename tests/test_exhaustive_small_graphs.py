"""Exhaustive verification on all small digraphs.

Enumerates *every* directed graph on 4 vertices (2^12 = 4096 edge
subsets) and checks the ``dfs_naive`` oracle of the harness
(``oracle.py``), BC-DFS and JOIN against brute force on a fixed query;
PEFP at every PE count and partition, HP-Index and Yen's are checked on
every 64th mask plus the dense and patterned ones.  Exhaustive coverage
at this size catches corner cases (self-contained cycles, disconnected
pieces, sinks, diamonds) that random testing may miss.
"""

import pytest

from conftest import brute_force_paths
from oracle import oracle_paths
from repro.baselines import BCDFS, HPIndex, Join, NaiveDFS, Yens
from repro.fpga.device import DeviceConfig
from repro.graph.csr import CSRGraph
from repro.host.query import Query
from repro.host.system import PEFPEnumerator

N = 4
ALL_PAIRS = [(u, v) for u in range(N) for v in range(N) if u != v]
QUERY = Query(0, 3, 3)
INTERESTING_MASKS = sorted(set(range(0, 1 << len(ALL_PAIRS), 64)) | {
    (1 << len(ALL_PAIRS)) - 1, 0b111111111111 ^ 0b1, 0xAAA, 0x555, 0xF0F})


def graph_from_mask(mask: int) -> CSRGraph:
    edges = [pair for i, pair in enumerate(ALL_PAIRS) if mask >> i & 1]
    return CSRGraph.from_edges(N, edges)


def _check_interesting_masks(engines) -> None:
    for mask in INTERESTING_MASKS:
        g = graph_from_mask(mask)
        expected = oracle_paths(g, QUERY)
        for engine in engines:
            got = engine.enumerate_paths(g, QUERY).path_set()
            assert got == expected, (engine.name, hex(mask))


def test_bcdfs_and_join_on_every_4_vertex_digraph():
    """The oracle equals an independent recursive search, and BC-DFS and
    JOIN equal the oracle."""
    enumerators = (NaiveDFS(), BCDFS(), Join())
    nonempty = 0
    for mask in range(1 << len(ALL_PAIRS)):
        g = graph_from_mask(mask)
        expected = brute_force_paths(g, QUERY.source, QUERY.target,
                                     QUERY.max_hops)
        for enumerator in enumerators:
            got = enumerator.enumerate_paths(g, QUERY).path_set()
            assert got == expected, (enumerator.name, hex(mask))
        nonempty += bool(expected)
    # sanity: the sweep actually exercised non-trivial graphs
    assert nonempty > 1000


def test_other_enumerators_on_interesting_masks():
    """The slower stack: the PEFP simulation, HP-Index and Yen's."""
    _check_interesting_masks(
        [PEFPEnumerator(), HPIndex(hot_fraction=0.5), Yens()])


@pytest.mark.parametrize("num_pes", (2, 4, 8))
@pytest.mark.parametrize("strategy", ("range", "hash"))
def test_multi_pe_on_interesting_masks(num_pes, strategy):
    """With N up to 8 on a 4-vertex CSR most PEs own one vertex or none
    (the sharpest partition-degeneracy shapes)."""
    _check_interesting_masks([PEFPEnumerator(device_config=DeviceConfig(
        num_pes=num_pes, pe_partition=strategy))])
