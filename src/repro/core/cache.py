"""BRAM prefix caches for the graph CSR arrays and the barrier array.

Section VI-B(2): PEFP pre-allocates three fixed-size BRAM arrays
(``vertex_arr``, ``edge_arr``, ``bar_arr``) and fills them with as much of
the DRAM-resident data as fits; accesses check BRAM first.  Thanks to
Pre-BFS the whole subgraph usually fits, turning 7-8-cycle DRAM reads into
1-cycle BRAM reads.

We model a *prefix* cache: elements ``[0, cached_len)`` live in BRAM, the
rest in DRAM.  With CSR renumbering after Pre-BFS this is equivalent to
"as much data as possible".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.fpga.memory import Bram, Dram


class CachedArray:
    """Read-only array resident in DRAM with a BRAM-cached prefix."""

    def __init__(
        self,
        data: np.ndarray,
        bram: Bram,
        dram: Dram,
        cache_budget_words: int,
        label: str,
        enabled: bool = True,
    ) -> None:
        if cache_budget_words < 0:
            raise ConfigError(f"negative cache budget for {label}")
        self._data = data = np.asarray(data)
        self._bram = bram
        self._dram = dram
        self.label = label
        self.enabled = enabled
        size = len(data)
        self.cached_len = cached = self.prefix_len(size, cache_budget_words,
                                                   enabled)
        dram.allocate(size, f"{label}(dram)")
        if cached:
            bram.allocate(cached, f"{label}(bram)")
        self.hits = 0
        self.misses = 0

    @staticmethod
    def prefix_len(size: int, cache_budget_words: int,
                   enabled: bool = True) -> int:
        """Elements ``[0, n)`` held in BRAM for an array of ``size``."""
        return min(size, cache_budget_words) if enabled else 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def fully_cached(self) -> bool:
        return self.cached_len >= len(self._data)

    def counters(self) -> dict[str, int]:
        """Hit/miss and residency counters for device profiling."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "cached_words": self.cached_len,
            "total_words": len(self._data),
        }

    def read(self, index: int) -> int:
        """Random single-element read; 1 cycle on hit, DRAM latency on miss.

        Indices must be non-negative: a negative index would wrap around
        in numpy *and* satisfy ``index < cached_len``, silently reading
        the wrong element at BRAM-hit cost.
        """
        if index < 0:
            raise IndexError(
                f"negative index {index} on cached array {self.label!r}"
            )
        if index < self.cached_len:
            self.hits += 1
            self._bram.read(1)
        else:
            self.misses += 1
            self._dram.random_read(1)
        return int(self._data[index])

    def read_vector(self, indices: np.ndarray) -> np.ndarray:
        """Gather of independent (random) indices; one cycle per BRAM hit,
        full DRAM latency per miss.  Equivalent to a loop of :meth:`read`
        but vectorised."""
        indices = np.asarray(indices)
        if indices.size == 0:
            return self._data[indices]
        if int(indices.min()) < 0:
            raise IndexError(
                f"negative index in gather on cached array {self.label!r}"
            )
        n_hit = int(np.count_nonzero(indices < self.cached_len))
        n_miss = indices.size - n_hit
        if n_hit:
            self.hits += n_hit
            self._bram.random_read(n_hit)
        if n_miss:
            self.misses += n_miss
            self._dram.random_read(n_miss)
        return self._data[indices]

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous read ``[lo, hi)``; the DRAM portion is one burst."""
        if hi <= lo:
            return self._data[lo:lo]
        cached_hi = min(hi, self.cached_len)
        if cached_hi > lo:
            n_hit = cached_hi - lo
            self.hits += n_hit
            self._bram.read(n_hit)
        if hi > max(lo, self.cached_len):
            n_miss = hi - max(lo, self.cached_len)
            self.misses += n_miss
            self._dram.burst_read(n_miss)
        return self._data[lo:hi]
