"""Inter-PE interconnect model: per-destination FIFOs behind a
round-robin arbiter.

Frontier records whose tail vertex is owned by another PE cross a
crossbar into the destination PE's input FIFO at superstep boundaries
(the lockstep model in :mod:`repro.core.multi_pe`).  Each destination
has one FIFO fed by up to ``num_pes - 1`` source links; a round-robin
arbiter interleaves contending sources one record per grant, rotating
its grant pointer across supersteps so no source is starved.
:meth:`RoundRobinArbiter.merge` computes that order one round per
iteration, not one record per iteration, and hands a lone source's
queue over as the delivery list without a copy.

Cycle charges per destination ``d`` receiving ``m`` records from ``c``
distinct sources in one superstep:

======================  =================================================
``hop``                 ``inter_pe_hop_cycles`` once — crossbar traversal
                        latency of the first record.
``stream``              ``m - 1`` — one record head per cycle after the
                        first (the link is fully pipelined).
``arbiter``             ``(c - 1) * inter_pe_arbiter_cycles`` — grant
                        rotation penalty for each extra contender.
``stall``               ``max(0, m - inter_pe_fifo_records)`` — records
                        beyond the FIFO depth backpressure the sender
                        one cycle each.
======================  =================================================

Destinations drain in parallel (dedicated FIFOs), so a superstep's
routing cost is the **max** over destinations, not the sum.  All
quantities are integers; the totals tile the ``inter_pe`` segment of
:class:`~repro.fpga.profile.DeviceProfile` exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.fpga.device import DeviceConfig


class RouteCharge(NamedTuple):
    """Cycle breakdown for one destination FIFO in one superstep."""

    destination: int
    messages: int
    contenders: int
    hop_cycles: int
    stream_cycles: int
    arbiter_cycles: int
    stall_cycles: int

    @property
    def total(self) -> int:
        return (self.hop_cycles + self.stream_cycles
                + self.arbiter_cycles + self.stall_cycles)


class RoundRobinArbiter:
    """Deterministic round-robin merge of per-source output queues.

    One grant pointer per destination persists across supersteps, so the
    interleaving (and therefore the destination buffer's stack order —
    and the enumeration order of paths) is a pure function of the
    message sequence.
    """

    def __init__(self, config: DeviceConfig) -> None:
        self.hop_cycles = config.inter_pe_hop_cycles
        self.arbiter_cycles = config.inter_pe_arbiter_cycles
        self.fifo_records = config.inter_pe_fifo_records
        self.num_pes = config.num_pes
        self._grant = [0] * config.num_pes

    def merge(self, destination: int,
              queues: dict[int, list]) -> tuple[list, RouteCharge]:
        """Grant records round-robin across source queues.

        ``queues`` maps source PE index -> records bound for
        ``destination`` this superstep.  Returns the delivery list in
        grant order plus the cycle charge.

        The arbiter visits sources cyclically from the grant pointer,
        one record per grant, skipping empty queues.  That is a
        round-by-round interleave: round ``r`` delivers the ``r``-th
        record of every queue longer than ``r``, in cyclic order from the
        pointer.  The pointer then rests one past the last granted
        source.  One iteration builds one round: while the same queues
        contend, ``zip`` over their common length yields those rounds
        whole, and the queues that ran out drop before the next run.  A
        lone source (the common case) is its own delivery order: its
        queue is returned as it stands, handed over to the caller, who
        must not reuse it.
        """
        active = [(src, q) for src, q in queues.items() if q]
        contenders = len(active)
        if contenders == 1:
            last, delivered = active[0]
        else:
            n = self.num_pes
            start = self._grant[destination]
            active.sort(key=lambda a: (a[0] - start) % n)
            delivered = []
            done = 0
            while len(active) > 1:
                run = min([len(q) for _, q in active])
                for rnd in zip(*[q[done:run] for _, q in active]):
                    delivered += rnd
                done = run
                last = active[-1][0]
                active = [a for a in active if len(a[1]) > run]
            if active:
                last, q = active[0]
                delivered += q[done:]
        messages = len(delivered)
        if messages:
            self._grant[destination] = (last + 1) % self.num_pes
        charge = RouteCharge(
            destination, messages, contenders,
            self.hop_cycles if messages else 0,
            max(0, messages - 1),
            max(0, contenders - 1) * self.arbiter_cycles,
            max(0, messages - self.fifo_records),
        )
        return delivered, charge


def barrier_sync_cycles(config: DeviceConfig) -> int:
    """Cost of one barrier sync: a reduction tree over the PEs.

    ``pe_barrier_cycles`` per tree stage, ``ceil(log2(num_pes))``
    stages; zero when there is a single PE (nothing to synchronise).
    """
    n = config.num_pes
    if n <= 1:
        return 0
    stages = (n - 1).bit_length()
    return config.pe_barrier_cycles * stages
