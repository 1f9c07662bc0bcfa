"""Path records and the three path areas (processing / buffer / DRAM).

A *path record* is the unit PEFP moves between memories: the vertex
sequence plus the two neighbor pointers that make super-node expansion
resumable (Algorithm 4).  ``next_ptr``/``last_ptr`` index into the CSR
``edge_arr`` of the (sub)graph: ``[next_ptr, last_ptr)`` are the successors
not yet scheduled into any processing batch.

Word footprints (one 32-bit word per field):

- record in the buffer or DRAM area: ``len + 1`` vertex slots are modelled
  at the fixed width ``max_hops + 2`` (length field + k+1 vertices), the
  hardware layout;
- a processing-area entry additionally carries its scheduled range.

The buffer area stores records as a structure of arrays (parallel lists of
vertex tuples and the two pointers) so the engine's hot loop can schedule
batches and push survivors without materialising a Python object per
record; :class:`PathRecord` remains the exchange format at the API
boundary (``push``/``record_at``/``drain``/``pop_front``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import CapacityError


@dataclass
class PathRecord:
    """One intermediate path with its neighbor-scheduling pointers."""

    vertices: tuple[int, ...]
    next_ptr: int
    last_ptr: int

    @property
    def exhausted(self) -> bool:
        """True when every successor has been scheduled."""
        return self.next_ptr >= self.last_ptr

    @property
    def length(self) -> int:
        """Hop count (edges) of the path."""
        return len(self.vertices) - 1


class ProcessingEntry(NamedTuple):
    """A path plus the slice of its successors to expand in this batch."""

    vertices: tuple[int, ...]
    nbr_lo: int
    nbr_hi: int

    @property
    def num_expansions(self) -> int:
        return self.nbr_hi - self.nbr_lo


def record_words(max_hops: int) -> int:
    """Fixed word footprint of one path record."""
    return max_hops + 2


class BufferArea:
    """The BRAM buffer area ``P``: a bounded stack of path records.

    Indices (``record_at``/``top_index``/``pop_suffix``) are logical: 0 is
    always the current front.  Storage is three parallel lists (vertex
    tuples, next pointers, last pointers) plus a head offset so the FIFO
    ablation's :meth:`pop_front` is O(1) amortised instead of the O(n)
    front-shift ``list.pop(0)`` would pay per removal; Batch-DFS stack
    semantics (push/top/pop_suffix) are unchanged.  The batch schedulers
    and the engine hot loop operate on the parallel lists directly.
    """

    #: compact the backing lists once this many consumed slots accumulate
    #: at their front (and they are at least half the list).
    _COMPACT_THRESHOLD = 64

    __slots__ = ("capacity_paths", "_verts", "_next", "_last", "_head",
                 "peak_occupancy")

    def __init__(self, capacity_paths: int) -> None:
        if capacity_paths < 1:
            raise CapacityError("buffer area needs capacity for >= 1 path")
        self.capacity_paths = capacity_paths
        self._verts: list[tuple[int, ...]] = []
        self._next: list[int] = []
        self._last: list[int] = []
        self._head = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._verts) - self._head

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity_paths

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def push(self, record: PathRecord) -> None:
        self.push_path(record.vertices, record.next_ptr, record.last_ptr)

    def push_path(self, vertices: tuple[int, ...], next_ptr: int,
                  last_ptr: int) -> None:
        """Push one record given as its fields (no object required)."""
        if self.is_full:
            raise CapacityError(
                f"buffer area overflow (capacity {self.capacity_paths}); "
                "the engine must flush before pushing"
            )
        self._verts.append(vertices)
        self._next.append(next_ptr)
        self._last.append(last_ptr)
        occupancy = len(self._verts) - self._head
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def extend(self, records) -> None:
        """Push ``(vertices, next_ptr, last_ptr)`` triples in order.

        All of them must fit: the caller flushes first when they might
        not.
        """
        occupancy = len(self._verts) - self._head + len(records)
        if occupancy > self.capacity_paths:
            raise CapacityError(
                f"buffer area overflow (capacity {self.capacity_paths}); "
                "the engine must flush before pushing"
            )
        if records:
            verts, next_ptrs, last_ptrs = zip(*records)
            self._verts.extend(verts)
            self._next.extend(next_ptrs)
            self._last.extend(last_ptrs)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def record_at(self, index: int) -> PathRecord:
        """Materialise the record at logical ``index`` (a read-only view:
        mutating the returned object does not write back)."""
        i = self._head + index
        if index < 0 or i >= len(self._verts):
            raise IndexError(f"record index {index} out of range")
        return PathRecord(self._verts[i], self._next[i], self._last[i])

    def top_index(self) -> int:
        return len(self) - 1

    def pop_suffix(self, from_index: int) -> None:
        """Drop all records at positions ``>= from_index`` (consumed)."""
        i = self._head + from_index
        del self._verts[i:]
        del self._next[i:]
        del self._last[i:]

    def drain(self) -> list[PathRecord]:
        """Remove and return all records (bottom to top order)."""
        h = self._head
        drained = [
            PathRecord(v, n, l)
            for v, n, l in zip(self._verts[h:], self._next[h:],
                               self._last[h:])
        ]
        self._verts = []
        self._next = []
        self._last = []
        self._head = 0
        return drained

    def pop_front(self) -> PathRecord:
        """FIFO removal (the no-Batch-DFS ablation), O(1) amortised."""
        if self.is_empty:
            raise IndexError("pop_front from an empty buffer area")
        h = self._head
        record = PathRecord(self._verts[h], self._next[h], self._last[h])
        self._verts[h] = None  # type: ignore[call-overload]
        self._head = h + 1
        if (self._head >= self._COMPACT_THRESHOLD
                and self._head * 2 >= len(self._verts)):
            del self._verts[:self._head]
            del self._next[:self._head]
            del self._last[:self._head]
            self._head = 0
        return record


class DramArea:
    """The DRAM path area ``P_D``: an unbounded stack of path records.

    Reads and writes both happen at the tail ("we simply fetch from its
    tail ... to avoid memory fragmentation"), so it behaves as a stack of
    flush blocks.  :meth:`fetch_tail` returns the tail block in storage
    (bottom-to-top) order; re-pushing that block onto the buffer area in
    the returned order reproduces the exact stack layout the block had
    before it was flushed, so the buffer top is again the newest (longest)
    record — Batch-DFS's longest-first preference survives a flush/refill
    round trip (regression-tested in ``tests/test_refill_ordering.py``).
    """

    def __init__(self) -> None:
        self._stack: list[PathRecord] = []
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def is_empty(self) -> bool:
        return not self._stack

    def append_block(self, records: list[PathRecord]) -> None:
        self._stack.extend(records)
        self.peak_occupancy = max(self.peak_occupancy, len(self._stack))

    def fetch_tail(self, max_paths: int) -> list[PathRecord]:
        """Remove and return up to ``max_paths`` records from the tail."""
        if max_paths < 1:
            return []
        take = min(max_paths, len(self._stack))
        if take == 0:
            return []
        block = self._stack[-take:]
        del self._stack[-take:]
        return block
