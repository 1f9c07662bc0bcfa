"""Low-overhead span tracer for the PEFP query lifecycle.

A *span* is one timed region of work — a Pre-BFS run, a PCIe transfer,
one Batch-DFS processing batch.  Spans nest: each thread keeps its own
stack of open spans, so ``with tracer.span("kernel"): ...`` parents
everything opened inside it without any explicit plumbing, even when
several threads trace into one tracer.

Every span records two clocks:

- **wall time** (``time.perf_counter_ns``): when the *simulation* ran —
  useful for finding slow host code;
- **modelled time** (``set_modelled``): the deterministic seconds the
  timing model charged for the work — the clock the paper's claims live
  on, and the one the Chrome export lays its timeline out in.

The tracer appends finished spans to an in-memory list under a lock and
serialises them to JSONL (:meth:`Tracer.write_jsonl`); the Chrome
``trace_event`` export lives in :mod:`repro.observability.chrome`.

Zero cost when disabled
-----------------------
Instrumented call sites take ``tracer=None`` by default and guard with a
plain truth test; :data:`NULL_TRACER` (and any :class:`NullTracer`) is
falsy, so both ``None`` and an explicitly disabled tracer skip all
work — the engine's hot loop pays one ``if tracer:`` per batch.  Code
that prefers uniform ``with`` blocks can call ``NULL_TRACER.span(...)``,
which returns a shared no-op span.  The ``overhead.tracing`` perfbench
scenario (see :mod:`repro.perfbench.overhead`) holds the disabled path
to <2% overhead in CI.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: track assigned to top-level spans opened outside any ``track`` scope.
DEFAULT_TRACK = "main"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as written to the JSONL trace."""

    span_id: int
    parent_id: int | None
    name: str
    track: str
    start_ns: int
    end_ns: int
    #: deterministic seconds the timing model charged; ``None`` for
    #: marker spans that carry only attributes (cache hit/miss probes).
    modelled_seconds: float | None
    attrs: dict = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "modelled_seconds": self.modelled_seconds,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpanRecord":
        return cls(
            span_id=d["span_id"],
            parent_id=d["parent_id"],
            name=d["name"],
            track=d.get("track", DEFAULT_TRACK),
            start_ns=d["start_ns"],
            end_ns=d["end_ns"],
            modelled_seconds=d.get("modelled_seconds"),
            attrs=d.get("attrs", {}),
        )


class Span:
    """An open span; use as a context manager (returned by `Tracer.span`)."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "track",
                 "start_ns", "modelled_seconds", "attrs", "_closed")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: int | None, name: str, track: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.attrs = attrs
        self.modelled_seconds: float | None = None
        self.start_ns = 0
        self._closed = False

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (merged into any given at open)."""
        self.attrs.update(attrs)
        return self

    def set_modelled(self, seconds: float) -> "Span":
        """Record the modelled duration the timing model charged."""
        self.modelled_seconds = float(seconds)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._closed = True
        self._tracer._pop(self, end_ns)
        return False


class Tracer:
    """Thread-safe span collector with per-thread nesting stacks."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open = 0

    def __bool__(self) -> bool:
        return True

    # -- span lifecycle ------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve_track(self, parent: "Span | None") -> str:
        """Track of a new span: enclosing scope, else parent, else main.

        The explicit :meth:`track` scope outranks parent inheritance so
        an engine worker's spans land on its ``engine{i}`` row even when
        the serving loop runs serially on the coordinator thread (where
        the ``serve_batch`` span — a ``main``-track span — is still open
        and becomes the parent).  In-process and process-backend traces
        therefore assign identical tracks, which is what lets the
        attribution layer group queries by engine regardless of backend.
        """
        scoped = getattr(self._local, "track", None)
        if scoped is not None:
            return scoped
        return parent.track if parent else DEFAULT_TRACK

    def span(self, name: str, *, track: str | None = None,
             detach: bool = False, **attrs) -> Span:
        """Open a span named ``name``; use as ``with tracer.span(...)``.

        The parent is the innermost open span *on this thread*; the
        track comes from the enclosing :meth:`track` scope, falling back
        to the parent's track.  ``detach=True`` forces a parentless span
        (used for PCIe transfers, which live on their own track rather
        than inside the query that issued them).
        """
        stack = self._stack()
        parent = stack[-1] if stack and not detach else None
        if track is None:
            track = self._resolve_track(parent)
        return Span(self, next(self._ids),
                    parent.span_id if parent else None, name, track,
                    dict(attrs))

    def complete(self, name: str, start_ns: int, *,
                 modelled_seconds: float | None = None,
                 track: str | None = None, **attrs) -> None:
        """Record an already-finished span in one call.

        The engine's hot loop uses this instead of a ``with`` block: it
        notes ``start_ns`` before the batch, does the work, then records
        the closed span — no context-manager overhead, no exception
        handling on the fast path.  Parent and track resolve exactly as
        in :meth:`span`.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if track is None:
            track = self._resolve_track(parent)
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            track=track,
            start_ns=start_ns,
            end_ns=time.perf_counter_ns(),
            modelled_seconds=(None if modelled_seconds is None
                              else float(modelled_seconds)),
            attrs=attrs,
        )
        with self._lock:
            self._records.append(record)

    @contextmanager
    def track(self, name: str):
        """Scope setting the default track of top-level spans (per thread).

        The batch service wraps each engine worker's serving loop in
        ``tracer.track(f"engine{i}")`` so every query span lands on that
        engine's row of the timeline.
        """
        previous = getattr(self._local, "track", None)
        self._local.track = name
        try:
            yield self
        finally:
            if previous is None:
                del self._local.track
            else:
                self._local.track = previous

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        with self._lock:
            self._open += 1

    def _pop(self, span: Span, end_ns: int) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            # Mis-nested exit (span closed on a different thread or out
            # of order): record it anyway, but do not corrupt the stack.
            try:
                stack.remove(span)
            except ValueError:
                pass
        else:
            stack.pop()
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            track=span.track,
            start_ns=span.start_ns,
            end_ns=end_ns,
            modelled_seconds=span.modelled_seconds,
            attrs=span.attrs,
        )
        with self._lock:
            self._open -= 1
            self._records.append(record)

    def ingest(self, records) -> None:
        """Merge spans recorded by another tracer into this one.

        The process-parallel serving backend runs a private tracer in
        every engine worker and ships the finished
        :class:`SpanRecord` lists back to the coordinator; ``ingest``
        folds them in, remapping span ids onto this tracer's id space so
        records from different workers can never collide.  Parent links
        are preserved within each ingested batch (spans open their ids
        before their children, so parents sort first); a parent outside
        the batch becomes ``None``, i.e. a top-level span on its track.
        """
        from dataclasses import replace

        ordered = sorted(records, key=lambda r: r.span_id)
        with self._lock:
            mapping: dict[int, int] = {}
            for record in ordered:
                new_id = next(self._ids)
                mapping[record.span_id] = new_id
                self._records.append(replace(
                    record,
                    span_id=new_id,
                    parent_id=(None if record.parent_id is None
                               else mapping.get(record.parent_id)),
                ))

    # -- introspection / export ----------------------------------------
    @property
    def open_spans(self) -> int:
        """Spans entered but not yet exited (0 after a clean run)."""
        with self._lock:
            return self._open

    def records(self) -> list[SpanRecord]:
        """Finished spans, ordered by wall start time."""
        with self._lock:
            records = list(self._records)
        return sorted(records, key=lambda r: (r.start_ns, r.span_id))

    def write_jsonl(self, path) -> None:
        """One JSON object per line, one line per finished span."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record.to_dict()) + "\n")


def read_jsonl(path) -> list[SpanRecord]:
    """Load a trace written by :meth:`Tracer.write_jsonl`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_dict(json.loads(line)))
    return records


class _NullSpan:
    """Shared do-nothing span; everything about it is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def set_modelled(self, seconds: float) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: falsy, and every operation is a cheap no-op."""

    enabled = False

    def __bool__(self) -> bool:
        return False

    def span(self, name: str, **kwargs) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name: str, start_ns: int, **kwargs) -> None:
        pass

    def ingest(self, records) -> None:
        pass

    @contextmanager
    def track(self, name: str):
        yield self

    @property
    def open_spans(self) -> int:
        return 0

    def records(self) -> list[SpanRecord]:
        return []

    def write_jsonl(self, path) -> None:
        raise ConfigError("cannot export a trace from a disabled tracer")


#: module-level singleton for call sites that want a uniform API.
NULL_TRACER = NullTracer()
