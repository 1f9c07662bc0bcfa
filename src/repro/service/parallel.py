"""Process-parallel serving backend: one engine per worker process.

The in-process executor in :mod:`repro.service.batch` runs its N engines
in order on the calling thread — they overlap *modelled* device time
only, and the pure-Python host enumeration runs one engine at a time, so
wall-clock throughput does not move with N.  :class:`ProcessEnginePool`
runs each engine in its own worker process instead.  It is the second
executor of the one coordinator loop, :func:`repro.service.batch.dispatch`;
each worker runs the same per-engine loop,
:func:`repro.service.batch.serve_source`:

- **artifacts ship once** — the coordinator warms its
  :class:`~repro.service.cache.GraphArtifactCache` first, so the pickled
  :class:`~repro.graph.csr.CSRGraph` each worker receives carries the
  reverse-CSR memo; the worker-local cache *adopts* it (no rebuild, no
  spurious miss) and Pre-BFS memoisation then happens per worker;
- **one pipe per worker** — each worker talks to the coordinator over
  its own duplex pipe and nothing else.  A static round ships the worker
  its task list; in a stealing round the worker asks for a group, and
  the coordinator grants the next one in steal order, or ``None`` when
  none is left;
- **one message per worker round** — a worker's answers
  (:class:`~repro.host.system.ServedAnswer` records: paths, modelled
  counters and the serving stamps, no simulated device) ride on its
  single ``round_done`` message, together with the round's trace span
  records, busy times and cache stats; the coordinator delivers them in
  (round, worker) order and observes each answer itself, exactly as it
  does the in-process executor's — a worker keeps no metrics registry
  or timeline.  Result-cache duplicates share one ``paths`` list, which
  the pickle memo sends once per message.

A worker whose engine raises :class:`~repro.errors.EngineFailure` is
retired for the batch (the process stays up for the next batch — a
:class:`~repro.service.batch.FlakyEngine` keeps its run count across
batches, exactly like the in-process executor's engines).  A worker
*process* that dies outright is seen at once, as end-of-file on its
pipe, and permanently removed from the pool; under work stealing the
survivors keep stealing.  The coordinator knows which indices each
worker holds (its static list, or the groups it was granted), and an
index counts as served only once a ``round_done`` carrying it arrives.
So one rule covers every case: a round's unserved work is every held
index no ``round_done`` reported served, plus every group nobody stole,
and the coordinator loop requeues it onto the survivors.
"""

from __future__ import annotations

import functools
import multiprocessing
import traceback
from collections import deque
from multiprocessing.connection import wait

from repro.errors import ServiceError
from repro.service.batch import BatchOutcome, dispatch
from repro.service.cache import GraphArtifactCache


def _worker_main(worker_idx, spec, fail_after, conn):
    """Engine worker loop: build once, then serve rounds until shutdown."""
    # Imported here (not at module top) only for clarity of what the
    # worker side actually needs.
    from repro.host.system import PathEnumerationSystem
    from repro.observability.tracer import Tracer
    from repro.service.batch import EngineServer, FlakyEngine, serve_source

    try:
        graph = spec["graph"]
        sharing = spec["sharing"]
        cache = GraphArtifactCache(share_forward=sharing)
        # The coordinator warmed the graph before pickling it, so its
        # reverse-CSR memo rode along: pin it instead of rebuilding.
        cache.adopt(graph)
        system = PathEnumerationSystem.for_variant(
            graph,
            spec["variant"],
            cost_model=spec["cost_model"],
            artifact_cache=cache,
            **spec["engine_kwargs"],
        )
        if fail_after is not None:
            system.engine = FlakyEngine(system.engine, fail_after=fail_after)

        server = None
        trace = False
        while True:
            cmd = conn.recv()
            kind = cmd[0]
            if kind == "shutdown":
                return
            if kind == "batch":
                opts = cmd[1]
                server = EngineServer(
                    system, opts["budget"], opts["batch_deadline_s"],
                    opts["degraded_cycle_budget"], opts["profile"],
                    share=sharing,
                )
                trace = opts["trace"]
                continue

            # kind is "serve" (a task list) or "steal" (ask for groups
            # until the coordinator grants None).
            tracer = Tracer() if trace else None
            if kind == "serve":
                source = [cmd[1]]
            else:
                source = iter(functools.partial(_steal, conn), None)
            stats_before = cache.stats()
            answers = []
            unserved = serve_source(
                server, worker_idx, source, tracer,
                lambda _w, idx, answer: answers.append((idx, answer)),
            )
            conn.send(("round_done", {
                "answers": answers,
                "failed": bool(unserved),
                "host_busy": server.host_busy,
                "device_busy": server.device_busy,
                "trace": tracer.records() if tracer else [],
                "cache_delta": {
                    key: value - stats_before[key]
                    for key, value in cache.stats().items()
                },
            }))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        # Anything unexpected kills the worker; tell the coordinator why
        # before exiting so the failure is diagnosable, not just a dead
        # process.
        try:
            conn.send(("fatal", traceback.format_exc()))
        except Exception:
            pass
        raise


def _steal(conn):
    """Ask the coordinator for the next task group; ``None`` ends the round."""
    conn.send(("steal", None))
    return conn.recv()


class ProcessEnginePool:
    """Persistent pool of engine worker processes serving query batches.

    Workers start lazily on the first :meth:`run_batch` and persist
    across batches (so fault-injection state and worker caches carry
    over, matching the in-process executor's persistent engines).  Call
    :meth:`close` (or use the owning service as a context manager) to
    shut the processes down.
    """

    def __init__(self, graph, variant, num_engines, cost_model,
                 engine_kwargs, failure_plan, mp_context=None,
                 sharing: bool = False) -> None:
        self.graph = graph
        self.variant = variant
        self.num_engines = num_engines
        self.cost_model = cost_model
        self.engine_kwargs = dict(engine_kwargs or {})
        self.failure_plan = list(failure_plan or [])
        self.mp_context = mp_context
        self.sharing = sharing
        self._procs = None
        #: the coordinator's end of each worker's pipe.
        self._conns = None
        #: workers whose *process* died; never used again.
        self._crashed: set[int] = set()
        self._fatal_tracebacks: dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------
    def _ensure_started(self) -> None:
        if self._procs is not None:
            return
        ctx = multiprocessing.get_context(self.mp_context)
        fail_after = dict(self.failure_plan)
        spec = {
            "graph": self.graph,
            "variant": self.variant,
            "cost_model": self.cost_model,
            "engine_kwargs": self.engine_kwargs,
            "sharing": self.sharing,
        }
        self._procs, self._conns = [], []
        for w in range(self.num_engines):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(w, spec, fail_after.get(w), child_conn),
                name=f"pefp-engine-{w}",
                daemon=True,
            )
            proc.start()
            # Only the worker may hold its end, so the pipe reads EOF the
            # moment the worker dies (and no later worker inherits it).
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(conn)

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        if self._procs is None:
            return
        for w in range(self.num_engines):
            self._send(w, ("shutdown",))
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._procs = None
        self._conns = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _send(self, w: int, message) -> None:
        """Send ``message`` to worker ``w``.  A dead worker's pipe refuses
        it; the death itself is read as EOF by the round's wait."""
        try:
            self._conns[w].send(message)
        except OSError:
            pass

    # -- batch serving -------------------------------------------------
    def run_batch(self, queries, scheduler, graph, budget,
                  batch_deadline_s, degraded_cycle_budget, profile,
                  trace) -> BatchOutcome:
        """Serve one batch over the worker pool; see the module docstring."""
        self._ensure_started()
        live = [w for w in range(self.num_engines)
                if w not in self._crashed]
        if not live:
            raise ServiceError(
                f"all {self.num_engines} engine worker process(es) have "
                f"died; cannot serve the batch"
            )
        for w in live:
            self._send(w, ("batch", {
                "budget": budget,
                "batch_deadline_s": batch_deadline_s,
                "degraded_cycle_budget": degraded_cycle_budget,
                "profile": profile,
                "trace": trace,
            }))

        try:
            return dispatch(
                queries, self.sharing, scheduler, self.num_engines,
                functools.partial(self._round, queries), graph=graph,
                retired=self._crashed,
            )
        except ServiceError as exc:
            if not self._fatal_tracebacks:
                raise
            first = next(iter(self._fatal_tracebacks.values()))
            raise ServiceError(
                f"{exc}; first worker traceback:\n{first}"
            ) from None

    def _round(self, queries, outcome, engines, work, steal):
        """Run one serving round; see :func:`repro.service.batch.dispatch`.

        Returns ``(unserved indices, engines lost)``: a worker is lost to
        an ``EngineFailure`` (its ``round_done`` says so) or to process
        death (EOF on its pipe, or a ``fatal`` report).  Unserved is
        every index a worker held that no ``round_done`` reported
        served, plus every group nobody stole.
        """
        groups = deque(work if steal else ())
        held = {w: [] if steal else list(work[w]) for w in engines}
        for w in engines:
            self._send(w, ("steal",) if steal
                       else ("serve", [(i, queries[i]) for i in work[w]]))
        pending = {self._conns[w]: w for w in engines}
        done: dict[int, dict] = {}
        crashed: set[int] = set()
        while pending:
            for conn in wait(list(pending)):
                w = pending[conn]
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):  # the worker process died
                    tag, payload = "died", None
                if tag == "steal":
                    group = groups.popleft() if groups else []
                    held[w] += group
                    self._send(w, [(i, queries[i]) for i in group] or None)
                    continue
                del pending[conn]
                if tag == "round_done":
                    done[w] = payload
                else:
                    crashed.add(w)
                    if tag == "fatal":  # the payload is its traceback
                        self._fatal_tracebacks[w] = payload

        # Fold worker payloads in worker order, so delivery and trace
        # order are deterministic regardless of message interleaving.
        served: set[int] = set()
        lost = set(crashed)
        for w, payload in sorted(done.items()):
            for idx, answer in payload["answers"]:
                outcome.deliver(w, idx, answer)
                served.add(idx)
            outcome.host_busy[w] = payload["host_busy"]
            outcome.device_busy[w] = payload["device_busy"]
            if payload["trace"]:
                outcome.trace_records.append(payload["trace"])
            outcome.worker_cache_stats.update(payload["cache_delta"])
            if payload["failed"]:
                lost.add(w)
        self._crashed |= crashed
        unserved = [i for w in engines for i in held[w] if i not in served]
        unserved += [i for group in groups for i in group]
        return unserved, sorted(lost)
