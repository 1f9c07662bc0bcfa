"""The simulated accelerator card: clock + BRAM + DRAM + PCIe.

Defaults approximate an Alveo U200 (300 MHz kernel clock, banked on-chip
memory, off-chip DDR4) *scaled to the stand-in datasets*: the paper's
graphs are ~100-1000x larger than ours, so capacities shrink by the same
factor to preserve the on-chip/off-chip fit ratios the design exploits.
A *word* is one 32-bit element — vertex id, CSR offset or barrier entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fpga.clock import Clock
from repro.fpga.memory import Bram, Dram
from repro.fpga.pcie import PcieModel

#: Bytes per simulated machine word (32-bit ids everywhere).
WORD_BYTES = 4


@dataclass(frozen=True)
class DeviceConfig:
    """Static resources of the simulated card."""

    frequency_hz: float = 300.0e6
    bram_words: int = 262_144           # on-chip memory (scaled U200)
    bram_port_words: int = 8            # banked on-chip ports (256-bit)
    dram_words: int = 64_000_000        # off-chip DDR4 (scaled U200)
    dram_read_latency: int = 8
    dram_write_latency: int = 8
    dram_burst_words: int = 16
    #: independent off-chip channels; concurrent dataflow stages spread
    #: their traffic across them (the U200 has four DDR4 banks).  Serial
    #: events (flush/refill bursts) are single streams and use one.
    dram_channels: int = 1
    pcie: PcieModel = PcieModel()
    #: replicated enumeration pipelines per device.  Each PE owns a
    #: partition of the vertex set plus its own BRAM banks and DRAM
    #: channel (capacities above are per PE); frontier records whose tail
    #: vertex lives on another PE cross the on-chip interconnect.
    num_pes: int = 1
    #: vertex-ownership strategy: "range" (balanced contiguous blocks)
    #: or "hash" (multiplicative hash, process-stable).
    pe_partition: str = "range"
    #: crossbar traversal latency for the first record of a superstep's
    #: transfer into one destination FIFO (cycles).
    inter_pe_hop_cycles: int = 4
    #: round-robin arbiter grant-rotation penalty per extra contending
    #: source at one destination FIFO (cycles).
    inter_pe_arbiter_cycles: int = 1
    #: destination FIFO depth in records; records beyond it backpressure
    #: the sender one cycle each.
    inter_pe_fifo_records: int = 64
    #: per-stage cost of the barrier-sync tree at a superstep boundary;
    #: a full barrier costs ``pe_barrier_cycles * ceil(log2(num_pes))``.
    pe_barrier_cycles: int = 2

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if self.bram_words < 0 or self.dram_words < 0:
            raise ConfigError("memory capacities must be non-negative")
        if self.dram_channels < 1:
            raise ConfigError("dram_channels must be >= 1")
        if self.num_pes < 1:
            raise ConfigError("num_pes must be >= 1")
        if self.pe_partition not in ("range", "hash"):
            raise ConfigError(
                f"unknown pe_partition {self.pe_partition!r}; "
                "expected 'range' or 'hash'"
            )
        if self.inter_pe_hop_cycles < 0 or self.inter_pe_arbiter_cycles < 0 \
                or self.pe_barrier_cycles < 0:
            raise ConfigError("inter-PE cycle charges must be non-negative")
        if self.inter_pe_fifo_records < 1:
            raise ConfigError("inter_pe_fifo_records must be >= 1")


class Device:
    """One simulated accelerator instance.

    All components share a single :class:`Clock`; the elapsed kernel time is
    ``device.elapsed_seconds()``.
    """

    def __init__(self, config: DeviceConfig | None = None) -> None:
        self.config = cfg = config or DeviceConfig()
        self.clock = clock = Clock()
        self.bram = Bram(clock, cfg.bram_words, "bram", cfg.bram_port_words)
        self.dram = Dram(clock, cfg.dram_words, "dram", cfg.dram_read_latency,
                         cfg.dram_write_latency, cfg.dram_burst_words)
        self.pcie = cfg.pcie

    @property
    def cycles(self) -> int:
        return self.clock.cycles

    def elapsed_seconds(self) -> float:
        """Modelled kernel execution time so far."""
        return self.clock.seconds(self.config.frequency_hz)

    def dma_to_device_seconds(self, num_words: int) -> float:
        """Host -> FPGA DRAM transfer time for ``num_words`` words."""
        return self.pcie.transfer_seconds(num_words * WORD_BYTES)

    def dma_from_device_seconds(self, num_words: int) -> float:
        """FPGA DRAM -> host transfer time for ``num_words`` words."""
        return self.pcie.transfer_seconds_from_device(num_words * WORD_BYTES)

    def memory_counters(self) -> dict[str, dict[str, int]]:
        """Port traffic + capacity of both memories, for profiling.

        Keys ``"bram"``/``"dram"``; each value holds the
        :class:`~repro.fpga.memory.MemoryPort` counters plus
        ``allocated_words`` and ``capacity_words``.
        """
        out = {}
        for mem in (self.bram, self.dram):
            counters = mem.port.as_dict()
            counters["allocated_words"] = mem.allocated_words
            counters["capacity_words"] = mem.capacity_words
            out[mem.name] = counters
        return out

    def __repr__(self) -> str:
        return (
            f"Device(freq={self.config.frequency_hz / 1e6:.0f}MHz, "
            f"cycles={self.cycles})"
        )


class MultiPEDevice:
    """N replicated :class:`Device` pipelines behind one global clock.

    The global clock advances in lockstep supersteps: the slowest active
    PE's step, plus interconnect routing and barrier-sync charges.  The
    per-PE devices keep their own local clocks and traffic counters (the
    sum of local clocks exceeds the global clock whenever PEs overlap —
    that is the parallelism).  The facade mirrors the :class:`Device`
    surface the host layer touches: ``config``/``cycles``/
    ``elapsed_seconds``/DMA estimates/``memory_counters``.
    """

    def __init__(self, config: DeviceConfig | None = None,
                 pes: list[Device] | None = None) -> None:
        self.config = config or DeviceConfig()
        if pes is None:
            pes = [Device(self.config) for _ in range(self.config.num_pes)]
        self.pes = pes
        self.clock = Clock()
        self.pcie = self.config.pcie

    @property
    def num_pes(self) -> int:
        return len(self.pes)

    @property
    def cycles(self) -> int:
        return self.clock.cycles

    def elapsed_seconds(self) -> float:
        """Modelled kernel execution time on the global clock."""
        return self.clock.seconds(self.config.frequency_hz)

    def dma_to_device_seconds(self, num_words: int) -> float:
        """Host -> FPGA DRAM transfer time for ``num_words`` words."""
        return self.pcie.transfer_seconds(num_words * WORD_BYTES)

    def dma_from_device_seconds(self, num_words: int) -> float:
        """FPGA DRAM -> host transfer time for ``num_words`` words."""
        return self.pcie.transfer_seconds_from_device(num_words * WORD_BYTES)

    def memory_counters(self) -> dict[str, dict[str, int]]:
        """Per-memory traffic summed across PEs (capacities sum too)."""
        out: dict[str, dict[str, int]] = {}
        for pe in self.pes:
            for name, counters in pe.memory_counters().items():
                agg = out.setdefault(name, dict.fromkeys(counters, 0))
                for key, value in counters.items():
                    agg[key] += value
        return out

    def __repr__(self) -> str:
        return (
            f"MultiPEDevice(pes={self.num_pes}, "
            f"freq={self.config.frequency_hz / 1e6:.0f}MHz, "
            f"cycles={self.cycles})"
        )
