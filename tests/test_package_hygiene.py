"""Package-level hygiene: every module documented, public API importable."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_package_has_modules():
    assert len(MODULES) > 25


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{name} is missing a module docstring"
    )


def test_top_level_all_resolves():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol), symbol


def test_public_classes_documented():
    from repro import (
        BCDFS,
        CSRGraph,
        DiGraph,
        Device,
        HPIndex,
        Join,
        PEFPConfig,
        PEFPEngine,
        PathEnumerationSystem,
        Query,
        TDFS,
        TDFS2,
        Yens,
    )

    for cls in (CSRGraph, DiGraph, Device, PEFPConfig, PEFPEngine,
                PathEnumerationSystem, Query, BCDFS, Join, Yens, HPIndex,
                TDFS, TDFS2):
        assert cls.__doc__ and cls.__doc__.strip(), cls

    public_methods = [
        CSRGraph.successors, CSRGraph.reverse, CSRGraph.induced_subgraph,
        PEFPEngine.run, PathEnumerationSystem.execute,
        PathEnumerationSystem.execute_batch,
    ]
    for method in public_methods:
        assert method.__doc__ and method.__doc__.strip(), method


def test_version_is_set():
    assert repro.__version__ == "1.0.0"


def test_threading_only_where_a_second_thread_runs():
    """Only the scrape thread's server, the registry it reads and the
    per-thread BFS scratch of ``graph/csr.py`` import ``threading``; the
    artifact cache, tracer and timeline are one-thread objects."""
    root = pathlib.Path(repro.__file__).parent
    importers = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(r"^\s*(import threading|from threading import)",
                     path.read_text(encoding="utf-8"), re.MULTILINE)
    )
    assert importers == ["graph/csr.py", "observability/prometheus.py",
                         "service/metrics.py"]


def test_process_workers_keep_no_metrics():
    """A worker process ships its answers and the coordinator observes
    them, so ``service/parallel.py`` never imports the metrics module."""
    path = pathlib.Path(repro.__file__).parent / "service" / "parallel.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert "repro.service.batch" in imported
    assert "repro.service.metrics" not in imported
