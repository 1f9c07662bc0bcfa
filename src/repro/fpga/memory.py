"""On-chip (BRAM) and off-chip (DRAM) memory models.

The paper's latency premise (Section VI-B): "the read latency of DRAM takes
7-8 clock cycles while the read latency of BRAM is only 1 clock cycle".
Both models charge their access cost to a shared :class:`Clock` and keep
traffic statistics, so the caching ablation (Fig. 14) falls out of where the
accesses land.  Capacity is tracked in *words*; structures reserve their
footprint up front and overflow raises :class:`CapacityError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import CapacityError, ConfigError
from repro.fpga.clock import Clock


@dataclass
class MemoryPort:
    """Traffic statistics of one memory.

    Counting convention (shared by every access mode so DeviceProfile
    traffic tables are comparable across modes):

    - ``reads``/``writes`` count *access operations* — one per
      ``read``/``write``/``burst_*`` call and one per ``random_*``
      gather/scatter call, regardless of how many words it moves;
    - ``read_words``/``write_words`` carry the data volume;
    - ``stall_cycles`` is the cycle cost beyond one word per cycle
      (latency overhead), so ``words + stalls`` reconstructs cycles.

    Zero-word accesses are free and are not counted as operations.
    """

    reads: int = 0
    read_words: int = 0
    writes: int = 0
    write_words: int = 0
    stall_cycles: int = 0

    def merge(self, other: "MemoryPort") -> None:
        self.reads += other.reads
        self.read_words += other.read_words
        self.writes += other.writes
        self.write_words += other.write_words
        self.stall_cycles += other.stall_cycles

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for profiling exports."""
        return {
            "reads": self.reads,
            "read_words": self.read_words,
            "writes": self.writes,
            "write_words": self.write_words,
            "stall_cycles": self.stall_cycles,
        }


class _Memory:
    """Shared behaviour: capacity reservation and traffic accounting.

    ``clock`` is the charge sink.  The engine temporarily re-points it at a
    per-stage meter (see :meth:`with_clock`) to account overlapped dataflow
    stages separately before folding them into the device clock.
    """

    def __init__(self, clock: Clock, capacity_words: int, name: str) -> None:
        if capacity_words < 0:
            raise ConfigError(f"negative capacity for {name}")
        self.clock = clock
        self.capacity_words = capacity_words
        self.name = name
        self.port = MemoryPort()
        #: ``(label, words)`` in allocation order, and their running total.
        self._allocations: list[tuple[str, int]] = []
        self.allocated_words = 0

    # -- capacity ------------------------------------------------------
    @property
    def free_words(self) -> int:
        return self.capacity_words - self.allocated_words

    def allocate(self, words: int, label: str) -> None:
        """Reserve ``words`` for a named structure (raises on overflow)."""
        if words < 0:
            raise ConfigError(f"negative allocation {label!r} on {self.name}")
        free = self.free_words
        if words > free:
            raise CapacityError(
                f"{self.name}: allocating {words} words for {label!r} exceeds "
                f"free capacity {free}/{self.capacity_words}"
            )
        self._allocations.append((label, words))
        self.allocated_words += words

    def allocations(self) -> dict[str, int]:
        return dict(self._allocations)

    def reset_traffic(self) -> None:
        self.port = MemoryPort()

    @contextmanager
    def with_clock(self, clock: Clock):
        """Temporarily charge this memory's accesses to another clock."""
        saved = self.clock
        self.clock = clock
        try:
            yield clock
        finally:
            self.clock = saved


class Bram(_Memory):
    """On-chip block RAM: single-cycle access, fully pipelined and banked.

    ``port_words`` models BRAM banking: the engine stripes wide structures
    (path records) across banks, so up to ``port_words`` words move per
    cycle.  A burst of ``words`` back-to-back accesses completes in
    ``ceil(words / port_words)`` cycles (initiation interval 1, latency 1).
    """

    def __init__(self, clock: Clock, capacity_words: int,
                 name: str = "bram", port_words: int = 8) -> None:
        super().__init__(clock, capacity_words, name)
        if port_words < 1:
            raise ConfigError("port_words must be >= 1")
        self.port_words = port_words

    def read(self, words: int = 1) -> None:
        """Wide sequential read: ``ceil(words / port_words)`` cycles."""
        if words <= 0:
            return
        self.port.reads += 1
        self.port.read_words += words
        self.clock.advance(-(-words // self.port_words))

    def write(self, words: int = 1) -> None:
        """Wide sequential write: ``ceil(words / port_words)`` cycles."""
        if words <= 0:
            return
        self.port.writes += 1
        self.port.write_words += words
        self.clock.advance(-(-words // self.port_words))

    def random_read(self, words: int = 1) -> None:
        """``words`` independent scalar reads: one cycle each (II = 1);
        random accesses cannot use the wide port.  Counted as one gather
        operation (see :class:`MemoryPort`)."""
        if words <= 0:
            return
        self.port.reads += 1
        self.port.read_words += words
        self.clock.advance(words)

    def random_write(self, words: int = 1) -> None:
        if words <= 0:
            return
        self.port.writes += 1
        self.port.write_words += words
        self.clock.advance(words)


class Dram(_Memory):
    """Off-chip DRAM: high access latency, efficient sequential bursts."""

    def __init__(
        self,
        clock: Clock,
        capacity_words: int,
        name: str = "dram",
        read_latency: int = 8,
        write_latency: int = 8,
        burst_words: int = 16,
    ) -> None:
        super().__init__(clock, capacity_words, name)
        if read_latency < 1 or write_latency < 1:
            raise ConfigError("DRAM latencies must be >= 1 cycle")
        if burst_words < 1:
            raise ConfigError("burst_words must be >= 1")
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.burst_words = burst_words

    def random_read(self, words: int = 1) -> None:
        """``words`` independent (non-contiguous) reads: full latency each.
        Counted as one gather operation (see :class:`MemoryPort`)."""
        if words <= 0:
            return
        cost = words * self.read_latency
        self.port.reads += 1
        self.port.read_words += words
        self.port.stall_cycles += cost - words
        self.clock.advance(cost)

    def random_write(self, words: int = 1) -> None:
        if words <= 0:
            return
        cost = words * self.write_latency
        self.port.writes += 1
        self.port.write_words += words
        self.port.stall_cycles += cost - words
        self.clock.advance(cost)

    def burst_read(self, words: int) -> None:
        """One contiguous burst: pay latency once, then stream one word per
        cycle (the memory controller pipelines consecutive beats)."""
        if words <= 0:
            return
        cost = self.read_latency + words - 1
        self.port.reads += 1
        self.port.read_words += words
        self.port.stall_cycles += self.read_latency - 1
        self.clock.advance(cost)

    def burst_write(self, words: int) -> None:
        if words <= 0:
            return
        cost = self.write_latency + words - 1
        self.port.writes += 1
        self.port.write_words += words
        self.port.stall_cycles += self.write_latency - 1
        self.clock.advance(cost)
