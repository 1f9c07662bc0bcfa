"""Process-parallel serving backend: one engine per worker process.

The thread backend in :mod:`repro.service.batch` is GIL-bound — its N
engine workers overlap *modelled* device time but share one interpreter
for the pure-Python host enumeration, so wall-clock throughput barely
moves with N.  :class:`ProcessEnginePool` runs each engine in its own
worker process instead.  It is the third executor of the one
coordinator loop, :func:`repro.service.batch.dispatch`; each worker runs
the same per-engine loop, :func:`repro.service.batch.serve_source`:

- **artifacts ship once** — the coordinator warms its
  :class:`~repro.service.cache.GraphArtifactCache` first, so the pickled
  :class:`~repro.graph.csr.CSRGraph` each worker receives carries the
  reverse-CSR memo; the worker-local cache *adopts* it (no rebuild, no
  spurious miss) and Pre-BFS memoisation then happens per worker;
- **work streams per round** — a static round ships each worker its task
  list; a stealing round feeds one shared task queue that idle workers
  pull groups from, closed by one sentinel per participant;
- **one message per worker round** — a worker's answers
  (:class:`~repro.host.system.ServedAnswer` records: paths and modelled
  counters, no simulated device) ride on its single ``round_done``
  message, together with the round's metrics registry, trace span
  records, busy times and cache stats; the coordinator folds them in
  (round, worker) order.  Result-cache duplicates share one ``paths``
  list, which the pickle memo sends once per message.

A worker whose engine raises :class:`~repro.errors.EngineFailure`
reports its unserved queries and is retired for the batch (the process
stays up for the next batch — a :class:`~repro.service.batch.FlakyEngine`
keeps its run count across batches, exactly like the thread backend's
engines).  A worker *process* that dies outright is detected by liveness
polling and permanently removed from the pool.  An index counts as
served only once a ``round_done`` carrying it arrives, so a worker that
dies mid-round loses its whole round.  Either way the coordinator loop
requeues what was left unserved onto the survivors by the one requeue
rule.
"""

from __future__ import annotations

import functools
import multiprocessing
import queue as queue_mod
import traceback

from repro.errors import ServiceError
from repro.service.batch import BatchOutcome, dispatch
from repro.service.cache import GraphArtifactCache
from repro.service.metrics import MetricsRegistry, MetricsTimeline

#: seconds the coordinator blocks on the result queue before polling
#: worker liveness; also the workers' task-queue poll while stealing.
POLL_INTERVAL = 0.2


def _worker_main(worker_idx, spec, fail_after, cmd_queue, result_queue,
                 task_queue):
    """Engine worker loop: build once, then serve rounds until shutdown."""
    # Imported here (not at module top) only for clarity of what the
    # worker side actually needs.
    from repro.host.system import PathEnumerationSystem
    from repro.observability.tracer import Tracer
    from repro.service.batch import EngineServer, FlakyEngine, serve_source

    try:
        graph = spec["graph"]
        sharing = spec.get("sharing", False)
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
        window_seconds = None
        while True:
            cmd = cmd_queue.get()
            kind = cmd[0]
            if kind == "shutdown":
                return
            if kind == "abort":
                # A stale round abort (the round already ended normally
                # before the worker saw it): nothing to do.
                continue
            if kind == "batch":
                opts = cmd[1]
                server = EngineServer(
                    system, opts["budget"], opts["batch_deadline_s"],
                    opts["degraded_cycle_budget"], opts["profile"],
                    share=sharing,
                )
                trace = opts["trace"]
                window_seconds = opts.get("window_seconds")
                continue

            # kind is "serve" (a task list) or "steal" (pull from the
            # shared queue until a sentinel or an abort).
            metrics = MetricsRegistry()
            tracer = Tracer() if trace else None
            timeline = None
            if window_seconds is not None:
                timeline = MetricsTimeline(window_seconds)
            if kind == "serve":
                source = [cmd[1]]
            else:
                source = iter(
                    functools.partial(_steal, task_queue, cmd_queue), None
                )
            stats_before = cache.stats()
            answers = []
            unserved = serve_source(
                server, worker_idx, source, tracer, metrics, timeline,
                lambda _w, idx, answer: answers.append((idx, answer)),
            )
            result_queue.put(("round_done", worker_idx, {
                "answers": answers,
                "failed": bool(unserved),
                "unserved": unserved,
                "host_busy": server.host_busy,
                "device_busy": server.device_busy,
                "metrics": metrics,
                "trace": tracer.records() if tracer else [],
                "timeline": timeline,
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
            result_queue.put(
                ("fatal", worker_idx, traceback.format_exc())
            )
        except Exception:
            pass
        raise


def _steal(task_queue, cmd_queue):
    """The next task group off the shared queue; ``None`` ends the round.

    A round ends at a sentinel, or on a round abort: during a steal round
    the coordinator sends a worker nothing except (possibly) an abort, so
    consuming the command queue here cannot eat a future command.
    """
    while True:
        try:
            task = task_queue.get(timeout=POLL_INTERVAL)
        except queue_mod.Empty:
            try:
                if cmd_queue.get_nowait()[0] == "abort":
                    return None
            except queue_mod.Empty:
                pass
            continue
        if task is None:
            return None
        # A singleton group travels as a bare (index, query) task.
        return task if isinstance(task, list) else [task]


class ProcessEnginePool:
    """Persistent pool of engine worker processes serving query batches.

    Workers start lazily on the first :meth:`run_batch` and persist
    across batches (so fault-injection state and worker caches carry
    over, matching the thread backend's persistent engines).  Call
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
        self._cmd = None
        self._results = None
        self._tasks = None
        #: workers whose *process* died; never used again.
        self._crashed: set[int] = set()
        self._fatal_tracebacks: dict[int, str] = {}

    # -- lifecycle -----------------------------------------------------
    def _ensure_started(self) -> None:
        if self._procs is not None:
            return
        ctx = multiprocessing.get_context(self.mp_context)
        self._results = ctx.Queue()
        self._tasks = ctx.Queue()
        self._cmd = [ctx.Queue() for _ in range(self.num_engines)]
        fail_after = dict(self.failure_plan)
        spec = {
            "graph": self.graph,
            "variant": self.variant,
            "cost_model": self.cost_model,
            "engine_kwargs": self.engine_kwargs,
            "sharing": self.sharing,
        }
        self._procs = []
        for w in range(self.num_engines):
            proc = ctx.Process(
                target=_worker_main,
                args=(w, spec, fail_after.get(w), self._cmd[w],
                      self._results, self._tasks),
                name=f"pefp-engine-{w}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        if self._procs is None:
            return
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._cmd[w].put(("shutdown",))
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._results, self._tasks, *self._cmd):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self._procs = None
        self._cmd = None
        self._results = None
        self._tasks = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- batch serving -------------------------------------------------
    def run_batch(self, queries, scheduler, graph, budget,
                  batch_deadline_s, degraded_cycle_budget, profile,
                  trace, window_seconds=None) -> BatchOutcome:
        """Serve one batch over the worker pool; see the module docstring.

        ``window_seconds`` turns on windowed telemetry: each worker
        accumulates a per-round
        :class:`~repro.service.metrics.MetricsTimeline` shipped back on
        ``round_done`` and surfaced as ``BatchOutcome.timelines`` in
        deterministic (round, worker) order.
        """
        self._ensure_started()
        live = [w for w in range(self.num_engines)
                if w not in self._crashed]
        if not live:
            raise ServiceError(
                f"all {self.num_engines} engine worker process(es) have "
                f"died; cannot serve the batch"
            )
        for w in live:
            self._cmd[w].put(("batch", {
                "budget": budget,
                "batch_deadline_s": batch_deadline_s,
                "degraded_cycle_budget": degraded_cycle_budget,
                "profile": profile,
                "trace": trace,
                "window_seconds": window_seconds,
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
        an ``EngineFailure`` (it reports its unserved remainder) or to
        process death (its whole round is unserved: its answers ride on
        the ``round_done`` that never came).
        """
        if steal:
            for group in work:
                tasks = [(i, queries[i]) for i in group]
                self._tasks.put(tasks if len(tasks) > 1 else tasks[0])
            for _ in engines:
                self._tasks.put(None)
        for w in engines:
            self._cmd[w].put(
                ("steal",) if steal
                else ("serve", [(i, queries[i]) for i in work[w]])
            )
        pending = set(engines)
        crashed: set[int] = set()
        done_payloads: list[tuple[int, dict]] = []
        aborted = False
        while pending:
            try:
                tag, w, payload = self._results.get(timeout=POLL_INTERVAL)
            except queue_mod.Empty:
                dead = {w for w in pending if not self._procs[w].is_alive()}
                pending -= dead
                crashed |= dead
            else:
                pending.discard(w)
                if tag == "round_done":
                    done_payloads.append((w, payload))
                else:  # "fatal": the payload is the worker's traceback
                    self._fatal_tracebacks[w] = payload
                    crashed.add(w)
            if crashed and steal and not aborted:
                # The dead worker's stolen group is lost mid-queue: stop
                # the round and requeue everything not served.
                aborted = True
                for w in pending:
                    self._cmd[w].put(("abort",))

        # Fold worker payloads in worker order, so metric-merge and trace
        # order are deterministic regardless of message interleaving.
        unserved: list[int] = []
        served: set[int] = set()
        lost = set(crashed)
        for w, payload in sorted(done_payloads, key=lambda t: t[0]):
            for idx, answer in payload["answers"]:
                outcome.deliver(w, idx, answer)
                served.add(idx)
            outcome.host_busy[w] = payload["host_busy"]
            outcome.device_busy[w] = payload["device_busy"]
            outcome.metric_registries.append(payload["metrics"])
            if payload["trace"]:
                outcome.trace_records.append(payload["trace"])
            if payload.get("timeline") is not None:
                outcome.timelines.append(payload["timeline"])
            outcome.worker_cache_stats.update(payload["cache_delta"])
            if payload["failed"]:
                lost.add(w)
                unserved.extend(payload["unserved"])
        self._crashed |= crashed
        if steal:
            if lost:
                self._drain_tasks()
                unserved = [i for group in work for i in group
                            if i not in served]
        else:
            unserved.extend(i for w in crashed for i in work[w])
        return unserved, sorted(lost)

    def _drain_tasks(self) -> None:
        """Empty the shared task queue (leftover tasks and sentinels)."""
        while True:
            try:
                self._tasks.get(timeout=0.05)
            except queue_mod.Empty:
                return
