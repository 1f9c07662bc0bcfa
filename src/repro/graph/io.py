"""Edge-list graph IO in the SNAP/Konect plain-text style.

Format: one ``src dst`` pair per line, whitespace separated; lines starting
with ``#`` or ``%`` are comments.  A ``# vertices: N`` comment (which
:func:`write_edge_list` always writes) declares the vertex count: ids are
then kept as they are, isolated vertices included, and must be below
``N``.  Without it (SNAP/Konect files) ids may be arbitrary non-negative
integers and are densified on read.
"""

from __future__ import annotations

import os
import re
from typing import Iterable

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

#: the vertex-count declaration; the last one in a file wins.
_VERTICES = re.compile(r"#\s*vertices:\s*(\d+)\s*$")


def parse_edge_lines(lines: Iterable[str]) -> CSRGraph:
    """Parse an iterable of edge-list lines into a :class:`CSRGraph`.

    With a ``# vertices: N`` line the ids are kept as they are, so a file
    from :func:`write_edge_list` reads back as the same graph; an id of
    ``N`` or more raises :class:`GraphError` naming the line of the
    largest id.  Without one, raw ids are densified to ``0..n-1``
    preserving numeric order.
    """
    raw_edges: list[tuple[int, int]] = []
    declared: int | None = None
    top, top_line = -1, 0  # the largest id and the line it is on
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text[0] in "#%":
            match = _VERTICES.match(text)
            if match:
                declared = int(match.group(1))
            continue
        parts = text.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected 'src dst', got {text!r}")
        try:
            raw_u, raw_v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex id") from exc
        if raw_u < 0 or raw_v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        raw_edges.append((raw_u, raw_v))
        if max(raw_u, raw_v) > top:
            top, top_line = max(raw_u, raw_v), lineno
    if declared is not None:
        if top >= declared:
            raise GraphError(f"line {top_line}: vertex id {top} is not "
                             f"below the declared {declared} vertices")
        return CSRGraph.from_edges(declared, raw_edges)
    ids = sorted({v for edge in raw_edges for v in edge})
    remap = {raw: dense for dense, raw in enumerate(ids)}
    return CSRGraph.from_edges(
        len(ids), ((remap[u], remap[v]) for u, v in raw_edges)
    )


def read_edge_list(path: str | os.PathLike[str]) -> CSRGraph:
    """Read an edge-list file from disk."""
    with open(path, encoding="utf-8") as handle:
        return parse_edge_lines(handle)


def write_edge_list(
    graph: CSRGraph, path: str | os.PathLike[str], header: str | None = None
) -> None:
    """Write ``graph`` as an edge-list file.

    The ``# vertices: N`` line after the header makes
    :func:`read_edge_list` return the same graph, isolated vertices and
    ids included.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# vertices: {graph.num_vertices}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def save_npz(graph: CSRGraph, path: str | os.PathLike[str]) -> None:
    """Save the CSR arrays in numpy's compressed binary format.

    Orders of magnitude faster to load than edge-list text for large
    graphs; round-trips exactly (including isolated vertices).
    """
    np.savez_compressed(path, indptr=graph.indptr, indices=graph.indices)


def load_npz(path: str | os.PathLike[str]) -> CSRGraph:
    """Load a graph saved by :func:`save_npz`."""
    with np.load(path) as data:
        if "indptr" not in data or "indices" not in data:
            raise GraphError(f"{path}: not a saved CSR graph")
        return CSRGraph(data["indptr"], data["indices"])
