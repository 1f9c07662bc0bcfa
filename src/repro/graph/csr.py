"""Immutable Compressed Sparse Row graph.

This is the storage format the paper ships to FPGA DRAM (Section V): a
``vertex_arr`` of row offsets (``indptr``) and an ``edge_arr`` of neighbor
ids (``indices``).  All enumeration algorithms in this package operate on
:class:`CSRGraph`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError, VertexNotFoundError


#: per-thread work arrays of :func:`_scratch`.
_local = threading.local()


def _scratch(n: int) -> np.ndarray:
    """This thread's ``int64`` work array of at least ``n`` entries, all -1.

    Callers must set every entry they write back to -1 before returning,
    and call :func:`_discard_scratch` if they cannot.  Each thread has its
    own array (callers may run Pre-BFS on several threads at once), so a
    call touches only the entries it needs, never all ``|V|``.
    """
    buf = getattr(_local, "scratch", None)
    if buf is None or buf.size < n:
        buf = _local.scratch = np.full(n, -1, dtype=np.int64)
    return buf


def _discard_scratch() -> None:
    """Drop this thread's work array (its all -1 state may be broken)."""
    _local.scratch = None


def _scatter_lookup(
    n: int, keys: np.ndarray, values: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """For each of ``queries``, the value of the equal key, else -1.

    ``keys`` are unique ids below ``n``, ``values`` non-negative.  One
    scatter into the thread's scratch and one gather back, so the cost is
    ``O(|keys| + |queries|)``.
    """
    slot = _scratch(n)
    try:
        slot[keys] = values
        found = slot[queries]
        slot[keys] = -1
    except BaseException:
        _discard_scratch()
        raise
    return found


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The successor lists of ``rows``, concatenated, and each one's length.

    One ``np.repeat`` gather: row ``u`` contributes the slice
    ``indices[indptr[u]:indptr[u + 1]]``, in the order of ``rows``.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    flat = (np.repeat(starts - (ends - counts), counts)
            + np.arange(total, dtype=np.int64))
    return indices[flat], counts


class CSRGraph:
    """A directed graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the successors of vertex ``u``
        live in ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending.
    indices:
        ``int64`` array of length ``m`` holding neighbor ids.
    """

    __slots__ = ("indptr", "indices", "_rev", "_adj", "rev_builds")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1]={indptr[-1]} does not match |indices|={indices.size}"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("edge endpoint outside vertex range")
        self.indptr = indptr
        self.indices = indices
        self._rev: CSRGraph | None = None
        self._adj: tuple[tuple[int, ...], ...] | None = None
        #: number of times the reverse CSR was actually constructed for
        #: this instance (0 or 1; regression-tested by the batch service).
        self.rev_builds = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int]]
    ) -> "CSRGraph":
        """Build from an edge iterable or an ``(m, 2)`` array,
        deduplicating and dropping self loops."""
        if not isinstance(edges, np.ndarray):
            edges = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        pairs = np.asarray(edges, dtype=np.int64)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if pairs.size:
            lo, hi = int(pairs.min()), int(pairs.max())
            if lo < 0 or hi >= num_vertices:
                raise VertexNotFoundError(lo if lo < 0 else hi, num_vertices)
        # Sorted codes u * n + v order the rows; each first copy differs
        # from the code before it (np.unique would hash before sorting).
        codes = np.sort(pairs[:, 0] * num_vertices + pairs[:, 1])
        codes = codes[np.diff(codes, prepend=-1) != 0]
        srcs, dsts = np.divmod(codes, num_vertices)
        counts = np.bincount(srcs, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dsts)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "CSRGraph":
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    def successors(self, u: int) -> np.ndarray:
        """Sorted out-neighbors of ``u`` (a read-only view)."""
        self._check(u)
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def out_degree(self, u: int) -> int:
        self._check(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check(v)
        row = self.successors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and row[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.num_vertices):
            for v in self.successors(u):
                yield (u, int(v))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an array."""
        return np.diff(self.indptr)

    def adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        """Successors as native int tuples (cached).

        The DFS-heavy CPU baselines iterate adjacency millions of times;
        native tuples avoid per-element numpy scalar boxing.
        """
        if self._adj is None:
            indices = self.indices.tolist()
            indptr = self.indptr.tolist()
            self._adj = tuple(
                tuple(indices[indptr[u]:indptr[u + 1]])
                for u in range(self.num_vertices)
            )
        return self._adj

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexNotFoundError(int(v), self.num_vertices)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    @property
    def has_cached_reverse(self) -> bool:
        """Whether :meth:`reverse` would be a cache hit (no rebuild)."""
        return self._rev is not None

    def reverse(self) -> "CSRGraph":
        """The reverse graph ``G_rev`` (cached after first call)."""
        if self._rev is None:
            self.rev_builds += 1
            n = self.num_vertices
            srcs = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
            order = np.lexsort((srcs, self.indices))
            rev_srcs = self.indices[order]
            rev_dsts = srcs[order]
            counts = np.bincount(rev_srcs, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._rev = CSRGraph(indptr, rev_dsts)
        return self._rev

    def induced(self, keep: np.ndarray) -> "CSRGraph":
        """Subgraph induced by ``keep``, an ascending array of unique ids.

        Subgraph vertex ``i`` is ``keep[i]``.  The cost follows the kept
        rows: no array of length ``|V|`` is built.
        """
        nbrs, counts = _gather_rows(self.indptr, self.indices, keep)
        new_ids = np.arange(keep.size, dtype=np.int64)
        mapped = _scatter_lookup(self.num_vertices, keep, new_ids, nbrs)
        hit = mapped >= 0
        rows = np.repeat(new_ids, counts)[hit]
        indptr = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=keep.size), out=indptr[1:])
        return CSRGraph(indptr, mapped[hit])

    def induced_subgraph(
        self, nodes: Iterable[int]
    ) -> tuple["CSRGraph", np.ndarray, np.ndarray]:
        """Subgraph induced by ``nodes`` (any order, duplicates allowed).

        Returns ``(subgraph, old_of_new, new_of_old)`` where
        ``old_of_new[i]`` is the original id of subgraph vertex ``i`` and
        ``new_of_old[v]`` is the subgraph id of original vertex ``v``
        (or ``-1`` if ``v`` was dropped).
        """
        if isinstance(nodes, np.ndarray):
            keep = np.sort(np.asarray(nodes, dtype=np.int64))
        else:
            keep = np.sort(np.fromiter(nodes, dtype=np.int64))
        # Keep each value that differs from the one before it (np.unique
        # would hash before sorting).
        first = np.ones(keep.size, dtype=bool)
        first[1:] = keep[1:] != keep[:-1]
        keep = keep[first]
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_vertices):
            bad = int(keep[0]) if keep[0] < 0 else int(keep[-1])
            raise VertexNotFoundError(bad, self.num_vertices)
        new_of_old = np.full(self.num_vertices, -1, dtype=np.int64)
        new_of_old[keep] = np.arange(keep.size, dtype=np.int64)
        return self.induced(keep), keep, new_of_old

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
