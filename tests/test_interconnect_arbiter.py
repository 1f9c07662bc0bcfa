"""Property test: the round-robin arbiter's interleave pass.

:meth:`~repro.fpga.interconnect.RoundRobinArbiter.merge` builds the
delivery order in one pass over the records.  ``_oracle_merge`` below is
the grant-by-grant loop it replaced, kept verbatim: scan the source
indices cyclically from the grant pointer and pop one record per grant.
Over random queue shapes, starting pointers and PE counts, both must
deliver the same records in the same order, charge the same cycles and
leave the same persisted grant pointers, merge after merge.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fpga.device import DeviceConfig
from repro.fpga.interconnect import RoundRobinArbiter, RouteCharge


def _oracle_merge(arb, destination, queues):
    messages = sum(len(q) for q in queues.values())
    contenders = sum(1 for q in queues.values() if q)
    delivered: list = []
    if messages:
        pending = {src: list(q) for src, q in queues.items() if q}
        cursor = arb._grant[destination]
        while pending:
            # visit sources cyclically from the grant pointer, one
            # record per grant
            for _ in range(arb.num_pes):
                src = cursor % arb.num_pes
                cursor += 1
                q = pending.get(src)
                if q:
                    delivered.append(q.pop(0))
                    if not q:
                        del pending[src]
                    break
        arb._grant[destination] = cursor % arb.num_pes
    charge = RouteCharge(
        destination=destination,
        messages=messages,
        contenders=contenders,
        hop_cycles=arb.hop_cycles if messages else 0,
        stream_cycles=max(0, messages - 1),
        arbiter_cycles=max(0, contenders - 1) * arb.arbiter_cycles,
        stall_cycles=max(0, messages - arb.fifo_records),
    )
    return delivered, charge


@st.composite
def _scenario(draw):
    n = draw(st.integers(2, 8))
    grants = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    fifo = draw(st.integers(1, 6))
    merges = []
    for _ in range(draw(st.integers(1, 6))):
        dest = draw(st.integers(0, n - 1))
        lengths = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        queues = {
            src: [(src, i) for i in range(length)]
            for src, length in enumerate(lengths)
            if src != dest and (length or draw(st.booleans()))
        }
        merges.append((dest, queues))
    return n, grants, fifo, merges


def _queues(lengths):
    """``{src: n}`` -> the records of a merge, as ``_scenario`` draws them."""
    return {src: [(src, i) for i in range(n)] for src, n in lengths.items()}


@settings(max_examples=300, deadline=None)
@given(_scenario())
# merge shapes of multi-PE runs that the drawn queues (at most 7 records)
# never reach, each from a non-zero grant pointer: a short queue beside a
# long one, two singletons beside a longer queue, three long queues
@example((4, [2, 0, 0, 0], 64, [(0, _queues({1: 3, 3: 54}))]))
@example((4, [0, 3, 0, 0], 64, [(1, _queues({0: 1, 2: 1, 3: 4}))]))
@example((4, [0, 0, 1, 0], 64, [(2, _queues({0: 14, 1: 15, 3: 18}))]))
# one non-empty queue
@example((3, [0, 0, 0], 2, [(1, {0: [(0, 0), (0, 1), (0, 2)]})]))
# one empty queue
@example((2, [0, 0], 1, [(0, {1: []})]))
# a lone queue from the source at the grant pointer, then a contended
# merge that starts from the pointer it left
@example((4, [0, 2, 0, 0], 1, [
    (1, {2: [(2, 0), (2, 1)]}),
    (1, {0: [(0, 0)], 2: [(2, 0)], 3: [(3, 0), (3, 1)]}),
]))
def test_interleave_matches_grant_loop(scenario):
    n, grants, fifo, merges = scenario
    cfg = DeviceConfig(num_pes=n, inter_pe_fifo_records=fifo)
    fast, slow = RoundRobinArbiter(cfg), RoundRobinArbiter(cfg)
    fast._grant = list(grants)
    slow._grant = list(grants)
    for dest, queues in merges:
        want = _oracle_merge(slow, dest, queues)
        got = fast.merge(dest, queues)
        assert got == want
        assert fast._grant == slow._grant


def test_merge_leaves_the_source_queues_intact():
    arb = RoundRobinArbiter(DeviceConfig(num_pes=3))
    queues = {0: ["a", "b"], 2: ["c"]}
    delivered, charge = arb.merge(1, queues)
    assert delivered == ["a", "c", "b"]
    assert queues == {0: ["a", "b"], 2: ["c"]}
    assert charge.contenders == 2 and charge.messages == 3
    # the pointer rests one past the last granted source (0)
    assert arb._grant == [0, 1, 0]
