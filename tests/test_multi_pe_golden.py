"""Golden digests: the multi-PE driver's modelled behaviour at N > 1.

The oracle harness (``tests/oracle.py``) proves that every PE count
enumerates the same path *set* and that N = 1 is byte-identical to the
single-pipeline engines.  It does not pin N > 1 cycle counts or
enumeration order.  This suite does.  ``tests/data/multi_pe_golden.json`` holds one digest per
run over N in {2, 4, 8}, both partition strategies, every configuration
of ``N1_CONFIGS`` (budgets included) and three queries on each graph of
``_graphs()``.  The digests were recorded from the per-entry superstep
driver that the vectorised per-PE kernel replaced, so this test is the
byte-equality proof for that change.

Each digest is the SHA-256 of a canonical JSON document holding:

- the path list, in enumeration order, cycles and the truncation flag;
- every :class:`~repro.core.engine.EngineStats` field;
- each PE's BRAM/DRAM counters (port traffic and allocations);
- the profile: ``to_dict()``, every batch, refill and inter-PE event;
- the modelled span stream (names, tracks, modelled seconds, attributes);
- paths, cycles and stats of the same run without profiling or tracing.

Dicts are compared as values: keys are sorted before hashing, matching
the ``==`` semantics the differential suites use.

Re-record the file (``record(path)``) only for a change that means to
alter modelled multi-PE behaviour, and say so in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from oracle import N1_CONFIGS, _graphs, _prepared, _queries, engine_bytes

from repro.core.engine import PEFPEngine
from repro.graph import generators as G
from repro.fpga.device import DeviceConfig
from repro.observability.tracer import Tracer

GOLDEN = Path(__file__).parent / "data" / "multi_pe_golden.json"
PE_COUNTS = (2, 4, 8)
STRATEGIES = ("range", "hash")


def _cases():
    """Yield ``(case_id, prep, k, config, budget, num_pes, strategy)``."""
    for name, graph in _graphs():
        preps = []
        for k in (3, 4, 5):
            seed = sum(map(ord, name)) + k
            preps.extend((k, prep) for prep in _queries(graph, k, 1, seed))
        for qi, (k, prep) in enumerate(preps):
            for label, config, budget in N1_CONFIGS:
                for n in PE_COUNTS:
                    for strategy in STRATEGIES:
                        case = f"{name}/q{qi}/{label}/n{n}/{strategy}"
                        yield case, prep, k, config, budget, n, strategy


def _run(prep, k, config, budget, num_pes, strategy, observe):
    graph, s, t, barrier = prep
    engine = PEFPEngine(config=config, device_config=DeviceConfig(
        num_pes=num_pes, pe_partition=strategy))
    tracer = Tracer() if observe else None
    result = engine.run(graph, s, t, k, barrier, budget=budget,
                        tracer=tracer, profile=observe)
    return result, tracer


def _core(result) -> dict:
    return {
        "paths": result.paths,
        "cycles": result.cycles,
        "truncated": result.truncated,
        "stats": dataclasses.asdict(result.stats),
    }


def digest(prep, k, config, budget, num_pes, strategy) -> dict:
    """Run one case observed and plain; return its digest record."""
    result, tracer = _run(prep, k, config, budget, num_pes, strategy,
                          observe=True)
    plain, _ = _run(prep, k, config, budget, num_pes, strategy,
                    observe=False)
    prof = result.profile
    doc = _core(result)
    doc["memory"] = [pe.memory_counters() for pe in result.device.pes]
    doc["profile"] = prof.to_dict()
    doc["batches"] = [dataclasses.asdict(b) for b in prof.batches]
    doc["refills"] = [dataclasses.asdict(r) for r in prof.refills]
    doc["inter_pe"] = [dataclasses.asdict(i) for i in prof.inter_pe]
    doc["spans"] = [
        [r.name, r.track, r.parent_id, r.modelled_seconds, r.attrs]
        for r in tracer.records()
    ]
    doc["plain"] = _core(plain)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return {
        "cycles": result.cycles,
        "paths": len(result.paths),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def record(path: Path = GOLDEN) -> None:
    """Write the digest of every case to ``path``."""
    out = {case: digest(*args) for case, *args in _cases()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
_CASES = list(_cases())


def test_golden_file_covers_every_case():
    assert sorted(_GOLDEN) == sorted(case for case, *_ in _CASES)


@pytest.mark.parametrize("name", [g for g, _ in _graphs()])
def test_multi_pe_runs_match_golden_digests(name):
    mismatched = []
    for case, *args in _CASES:
        if not case.startswith(name + "/"):
            continue
        got = digest(*args)
        if got != _GOLDEN.get(case):
            mismatched.append((case, got, _GOLDEN.get(case)))
    assert not mismatched, mismatched[:5]


def test_run_dispatch_at_n1_uses_vectorized_path():
    """``num_pes=1`` must not even enter the driver: the result object's
    profile reports ``num_pes == 1`` and no inter-PE events, and matches
    an engine built with the default device config exactly."""
    prep = _prepared(G.grid_graph(6, 6), 0, 35, 12)
    assert prep is not None
    sub, s, t, barrier = prep
    one = PEFPEngine(device_config=DeviceConfig(num_pes=1)).run(
        sub, s, t, 12, barrier, profile=True)
    plain = PEFPEngine().run(sub, s, t, 12, barrier, profile=True)
    assert engine_bytes(one, [], None) == engine_bytes(plain, [], None)
    assert one.profile.num_pes == 1
    assert one.profile.inter_pe == ()
    assert one.profile.inter_pe_cycles == 0


def test_inter_pe_segment_tiles_exactly():
    """The inter-PE charges reported in stats equal the profile's
    ``inter_pe`` events, and the profile reconciles in integer cycles."""
    prep = _prepared(G.chung_lu(60, 320, seed=11), 0, 5, 4)
    assert prep is not None
    got, _ = _run(prep, 4, None, None, 4, "hash", observe=True)
    prof = got.profile
    assert prof.accounted_cycles == prof.total_cycles
    total_events = sum(e.cycles for e in prof.inter_pe)
    assert prof.inter_pe_cycles == total_events
    stats_total = (got.stats.inter_pe_route_cycles
                   + got.stats.inter_pe_arbiter_cycles
                   + got.stats.inter_pe_stall_cycles
                   + got.stats.inter_pe_barrier_cycles)
    assert stats_total == total_events
    assert got.stats.stage_cycles.get("inter_pe", 0) == total_events
    if got.stats.inter_pe_messages:
        assert prof.inter_pe_messages == got.stats.inter_pe_messages
