"""Unit tests for the BRAM and DRAM memory models."""

import pytest

from repro.errors import CapacityError, ConfigError
from repro.fpga.clock import Clock
from repro.fpga.memory import Bram, Dram


@pytest.fixture
def clock():
    return Clock()


class TestBram:
    def test_single_word_is_one_cycle(self, clock):
        bram = Bram(clock, 1024, port_words=1)
        bram.read(1)
        assert clock.cycles == 1
        bram.write(1)
        assert clock.cycles == 2

    def test_port_width_amortises(self, clock):
        bram = Bram(clock, 1024, port_words=8)
        bram.read(16)
        assert clock.cycles == 2
        bram.write(3)
        assert clock.cycles == 3  # ceil(3/8) = 1

    def test_traffic_recorded(self, clock):
        bram = Bram(clock, 1024)
        bram.read(10)
        bram.write(4)
        assert bram.port.read_words == 10
        assert bram.port.write_words == 4
        assert bram.port.reads == 1
        assert bram.port.writes == 1

    def test_invalid_port_width(self, clock):
        with pytest.raises(ConfigError):
            Bram(clock, 16, port_words=0)

    def test_random_access_cannot_use_wide_port(self, clock):
        """Gathers pay one cycle per word regardless of banking."""
        bram = Bram(clock, 1024, port_words=8)
        bram.random_read(16)
        assert clock.cycles == 16
        bram.random_write(4)
        assert clock.cycles == 20
        # one operation per gather/scatter call; volume in the word counts
        assert bram.port.reads == 1
        assert bram.port.read_words == 16
        assert bram.port.writes == 1
        assert bram.port.write_words == 4

    def test_zero_word_access_is_free(self, clock):
        """Empty accesses cost nothing and count no operation."""
        bram = Bram(clock, 1024)
        bram.read(0)
        bram.write(0)
        bram.random_read(0)
        bram.random_write(0)
        assert clock.cycles == 0
        assert bram.port.as_dict() == {
            "reads": 0, "read_words": 0, "writes": 0, "write_words": 0,
            "stall_cycles": 0,
        }


class TestDram:
    def test_random_read_pays_latency_each(self, clock):
        dram = Dram(clock, 1 << 20, read_latency=8)
        dram.random_read(3)
        assert clock.cycles == 24
        assert dram.port.stall_cycles == 21

    def test_random_access_counts_one_operation(self, clock):
        """Same operation-counting convention as BRAM gathers: traffic
        tables stay comparable across access modes."""
        dram = Dram(clock, 1 << 20)
        dram.random_read(5)
        dram.random_write(3)
        assert dram.port.reads == 1
        assert dram.port.read_words == 5
        assert dram.port.writes == 1
        assert dram.port.write_words == 3
        dram.random_read(0)
        dram.random_write(0)
        assert dram.port.reads == 1
        assert dram.port.writes == 1

    def test_burst_read_pays_latency_once(self, clock):
        dram = Dram(clock, 1 << 20, read_latency=8)
        dram.burst_read(100)
        assert clock.cycles == 8 + 99

    def test_burst_write(self, clock):
        dram = Dram(clock, 1 << 20, write_latency=8)
        dram.burst_write(10)
        assert clock.cycles == 17

    def test_empty_burst_free(self, clock):
        dram = Dram(clock, 1 << 20)
        dram.burst_read(0)
        dram.burst_write(0)
        assert clock.cycles == 0

    def test_burst_beats_random_for_ranges(self, clock):
        """The locality premise: bursts must always win for n > 1."""
        c1, c2 = Clock(), Clock()
        d1 = Dram(c1, 1024)
        d2 = Dram(c2, 1024)
        d1.burst_read(50)
        d2.random_read(50)
        assert c1.cycles < c2.cycles

    def test_invalid_latency(self, clock):
        with pytest.raises(ConfigError):
            Dram(clock, 64, read_latency=0)

    def test_invalid_burst(self, clock):
        with pytest.raises(ConfigError):
            Dram(clock, 64, burst_words=0)


class TestAllocation:
    def test_allocate_within_capacity(self, clock):
        bram = Bram(clock, 100)
        bram.allocate(60, "a")
        bram.allocate(40, "b")
        assert bram.free_words == 0
        assert bram.allocations() == {"a": 60, "b": 40}

    def test_overflow_raises(self, clock):
        bram = Bram(clock, 100)
        bram.allocate(60, "a")
        with pytest.raises(CapacityError, match="b"):
            bram.allocate(41, "b")

    def test_totals_track_a_sequence_of_allocations(self, clock):
        dram = Dram(clock, 100)
        steps = [("a", 30), ("b", 0), ("c", 45), ("a", 5)]
        total = 0
        for label, words in steps:
            dram.allocate(words, label)
            total += words
            assert dram.allocated_words == total
            assert dram.free_words == 100 - total
        # a repeated label keeps its last size; the total counts both
        assert dram.allocations() == {"a": 5, "b": 0, "c": 45}
        with pytest.raises(CapacityError, match=r"exceeds free capacity 20/100"):
            dram.allocate(21, "d")
        # a refused allocation reserves nothing
        assert dram.allocated_words == 80
        assert dram.allocations() == {"a": 5, "b": 0, "c": 45}
        dram.allocate(20, "d")
        assert dram.free_words == 0

    def test_negative_allocation(self, clock):
        bram = Bram(clock, 100)
        with pytest.raises(ConfigError):
            bram.allocate(-1, "x")

    def test_negative_capacity(self, clock):
        with pytest.raises(ConfigError):
            Bram(clock, -5)


class TestMetering:
    def test_with_clock_redirects_charges(self, clock):
        bram = Bram(clock, 64, port_words=1)
        meter = Clock()
        with bram.with_clock(meter):
            bram.read(5)
        assert meter.cycles == 5
        assert clock.cycles == 0
        bram.read(2)
        assert clock.cycles == 2  # restored

    def test_with_clock_restores_on_exception(self, clock):
        bram = Bram(clock, 64)
        meter = Clock()
        with pytest.raises(RuntimeError):
            with bram.with_clock(meter):
                raise RuntimeError("boom")
        assert bram.clock is clock

    def test_reset_traffic(self, clock):
        bram = Bram(clock, 64)
        bram.read(3)
        bram.reset_traffic()
        assert bram.port.read_words == 0
