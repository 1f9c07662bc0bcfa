"""repro — PEFP: k-hop constrained s-t simple path enumeration on a
simulated FPGA.

Reproduction of Lai et al., "PEFP: Efficient k-hop Constrained s-t Simple
Path Enumeration on FPGA" (ICDE 2021).  The package contains the full
system the paper describes: the directed-graph substrate, the Pre-BFS host
preprocessing, the cycle-approximate FPGA device model, the PEFP engine
with Batch-DFS / caching / data-separation, and all CPU baselines (JOIN,
BC-DFS, T-DFS, T-DFS2, HP-Index).

Quickstart
----------
>>> from repro import Query, PathEnumerationSystem, generators
>>> graph = generators.chung_lu(500, 3000, seed=1)
>>> system = PathEnumerationSystem(graph)
>>> report = system.execute(Query(source=0, target=7, max_hops=4))
>>> report.num_paths  # doctest: +SKIP
12
"""

from repro.errors import (
    CapacityError,
    ConfigError,
    DatasetError,
    EngineFailure,
    GraphError,
    QueryError,
    ReproError,
    ServiceError,
    VertexNotFoundError,
)
from repro.graph import CSRGraph, DiGraph, generators, read_edge_list
from repro.host import (
    CpuCostModel,
    OpCounter,
    PathEnumerationSystem,
    Query,
    QueryResult,
)
from repro.host.system import PEFPEnumerator, ServedAnswer, SystemReport
from repro.core import (
    PEFPConfig,
    PEFPEngine,
    QueryBudget,
    make_engine,
    VARIANTS,
)
from repro.fpga import Device, DeviceConfig
from repro.preprocess import pre_bfs, join_preprocess
from repro.baselines import (
    BCDFS,
    HPIndex,
    Join,
    NaiveBFS,
    NaiveDFS,
    TDFS,
    TDFS2,
    Yens,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "QueryError",
    "ConfigError",
    "CapacityError",
    "DatasetError",
    "ServiceError",
    "EngineFailure",
    # graph
    "CSRGraph",
    "DiGraph",
    "generators",
    "read_edge_list",
    # host
    "Query",
    "QueryResult",
    "OpCounter",
    "CpuCostModel",
    "PathEnumerationSystem",
    "SystemReport",
    "ServedAnswer",
    "PEFPEnumerator",
    # core / fpga
    "PEFPConfig",
    "QueryBudget",
    "PEFPEngine",
    "make_engine",
    "VARIANTS",
    "Device",
    "DeviceConfig",
    # preprocessing
    "pre_bfs",
    "join_preprocess",
    # baselines
    "NaiveDFS",
    "NaiveBFS",
    "TDFS",
    "TDFS2",
    "BCDFS",
    "Join",
    "Yens",
    "HPIndex",
]
