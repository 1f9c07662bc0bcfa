"""Observability for the batch query service.

A :class:`MetricsRegistry` is a small, thread-safe store of three metric
kinds:

- **counters** — monotonically increasing integers;
- **gauges** — point-in-time levels (last write wins);
- **sample series** — every distribution the service tracks (latencies,
  per-batch device cycles, stage occupancy, cache hit rates), summarised
  into :class:`LatencySummary` (count, exact sum, mean, min, max,
  nearest-rank p50/p95/p99).  A series is one :class:`HistogramSketch`
  — a log-bucketed histogram at the fixed growth factor
  :data:`SKETCH_GAMMA` — plus the list of raw observations, kept only
  while it holds every observation and at most :data:`EXACT_SAMPLES` of
  them.  Count, sum, mean, min and max come from the sketch, whose sum
  is an :class:`ExactSum` (Shewchuk partials), so the mean is the
  correctly-rounded sum of every observation whatever their order.
  Percentiles are exact while the raw list exists and sketch estimates
  once it is dropped.

The registry is the one object here that another thread reads — the
Prometheus scrape thread calls :meth:`MetricsRegistry.snapshot` — so it
alone takes a lock; a timeline is used by one thread at a time.  Both are
filled in one place, on the coordinator: the service observes each
delivered answer once (:func:`repro.service.batch.observe_report`),
whichever executor served it, so no registry or timeline is ever built
elsewhere and merged in.

Windowed telemetry
------------------
:class:`MetricsTimeline` buckets the same counters and sample series
into tumbling windows of *modelled* time, timestamped with the serving
layer's deterministic engine clocks (an engine's accumulated host +
device busy seconds).  The registry's terminal total and every window
are one private accumulation type with one ``update``; windows keep
only their sketch, so a window's memory follows its bucket count, not
its sample count.  Windows fold exactly (integer bucket counts add,
:class:`ExactSum` totals combine), so the fold of every window holds the
same counters, sketch buckets, counts and exact totals as the registry
that saw the same events.  :meth:`MetricsTimeline.reconcile` checks
counters, counts and totals, and the ``service.slo`` perfbench scenario
gates it.  Gauges are not folded: a registry gauge is last-write-wins, a
window gauge keeps the lexicographically largest ``(timestamp, value)``
pair.  Timelines are exported sketch-only
(:mod:`repro.observability.timeline`), the registry as Prometheus text
(:mod:`repro.observability.prometheus`).  No wall-clock reads happen
here; callers observe whatever notion of latency (modelled or measured)
they want to track.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigError

#: raw observations a series keeps for exact percentiles; past this the
#: list is dropped and quantiles come from the sketch.
EXACT_SAMPLES = 4096

#: log-bucket growth factor of :class:`HistogramSketch`: 2^(1/8) per
#: bucket (~9.05% wide), bounding a mid-bucket quantile estimate to
#: ~4.4% relative error while keeping a microsecond..minute latency
#: range inside ~300 buckets.  Fixed, so every sketch folds into every
#: other; it is still written into :meth:`HistogramSketch.to_dict` and
#: timeline files, and reading a file with another value is an error.
SKETCH_GAMMA = 2.0 ** 0.125
_LOG_GAMMA = math.log(SKETCH_GAMMA)

#: default tumbling-window width of :class:`MetricsTimeline`, in
#: modelled seconds (batch makespans on the bundled datasets are a few
#: to a few tens of milliseconds, so 1 ms yields a useful series).
DEFAULT_WINDOW_SECONDS = 1e-3


def _check_gamma(d: dict) -> None:
    """Reject a serialised sketch or timeline written at another gamma."""
    gamma = d.get("gamma", SKETCH_GAMMA)
    if gamma != SKETCH_GAMMA:
        raise ConfigError(
            f"sketch gamma {gamma!r} is not the fixed SKETCH_GAMMA "
            f"{SKETCH_GAMMA!r}; its bucket indices would be misread"
        )


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    The nearest-rank method returns an actual sample, which is what
    latency dashboards conventionally report.  Raises ``ValueError`` on an
    empty series or an out-of-range ``q``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample series")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


class ExactSum:
    """Exactly-rounded floating-point accumulation (Shewchuk partials).

    Keeps the running sum as a list of non-overlapping partials whose
    mathematical sum *is* the real-number sum of everything added, so
    :attr:`value` — ``math.fsum`` of the partials — is the correctly
    rounded total regardless of addition order.  That property is what
    lets a fold of timeline windows and the registry that observed the
    same values in order produce bit-identical totals: exact real
    arithmetic commutes, a left-fold of rounded floats does not.
    """

    __slots__ = ("partials",)

    def __init__(self, partials=None) -> None:
        self.partials: list[float] = list(partials or ())

    def add(self, x: float) -> None:
        x = float(x)
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        """The correctly rounded sum of every value added so far."""
        return math.fsum(self.partials)

    def copy(self) -> "ExactSum":
        return ExactSum(self.partials)


class HistogramSketch:
    """Mergeable log-bucketed histogram of one sample series.

    Values land in geometric buckets ``[gamma^i, gamma^(i+1))`` with
    ``gamma = SKETCH_GAMMA`` (split by sign, with a dedicated zero
    bucket), so a bucket index is a pure function of the value: two
    sketches that observed the same multiset of values hold identical
    bucket maps, and folding one into another is exact — integer bucket
    counts add commutatively, the total is an :class:`ExactSum`, min/max
    combine losslessly.  Quantiles are bucket-resolution estimates (the
    geometric bucket midpoint, clamped to the observed min/max):
    deterministic, order independent, and within ``(gamma - 1) / 2``
    relative error.
    """

    __slots__ = ("count", "_total", "minimum", "maximum", "zero",
                 "positive", "negative")

    def __init__(self) -> None:
        self.count = 0
        self._total = ExactSum()
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.zero = 0
        self.positive: dict[int, int] = {}
        self.negative: dict[int, int] = {}

    @property
    def total(self) -> float:
        """Correctly rounded sum of every observed value."""
        return self._total.value

    @staticmethod
    def _index(magnitude: float) -> int:
        return math.floor(math.log(magnitude) / _LOG_GAMMA)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._total.add(value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            idx = self._index(value)
            self.positive[idx] = self.positive.get(idx, 0) + 1
        elif value < 0.0:
            idx = self._index(-value)
            self.negative[idx] = self.negative.get(idx, 0) + 1
        else:
            self.zero += 1

    def fold(self, other: "HistogramSketch") -> None:
        """Add another sketch's buckets (exact, order-independent)."""
        self.count += other.count
        for partial in list(other._total.partials):
            self._total.add(partial)
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.zero += other.zero
        for idx, n in other.positive.items():
            self.positive[idx] = self.positive.get(idx, 0) + n
        for idx, n in other.negative.items():
            self.negative[idx] = self.negative.get(idx, 0) + n

    def _buckets_ascending(self):
        """(representative value, count) pairs in ascending value order."""
        for idx in sorted(self.negative, reverse=True):
            yield -(SKETCH_GAMMA ** (idx + 0.5)), self.negative[idx]
        if self.zero:
            yield 0.0, self.zero
        for idx in sorted(self.positive):
            yield SKETCH_GAMMA ** (idx + 0.5), self.positive[idx]

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (``q`` in [0, 1])."""
        if not self.count:
            raise ValueError("quantile of an empty sketch")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = min(self.count, max(1, math.ceil(self.count * q)))
        running = 0
        value = self.maximum
        for rep, n in self._buckets_ascending():
            running += n
            if running >= rank:
                value = rep
                break
        return min(self.maximum, max(self.minimum, value))

    def rank_at_most(self, threshold: float) -> int:
        """Observations known to be ``<= threshold``.

        Bucket-granular: values in the bucket straddling ``threshold``
        are not counted, so the result is a deterministic *undercount*
        by at most one bucket's population — the conservative direction
        for SLO "good event" counting.
        """
        threshold = float(threshold)
        n = 0
        if threshold >= 0.0:
            n += self.zero + sum(self.negative.values())
            for idx, count in self.positive.items():
                if SKETCH_GAMMA ** (idx + 1) <= threshold:
                    n += count
        else:
            magnitude = -threshold
            for idx, count in self.negative.items():
                if SKETCH_GAMMA ** idx >= magnitude:
                    n += count
        return n

    def copy(self) -> "HistogramSketch":
        dup = HistogramSketch()
        dup.count = self.count
        dup._total = self._total.copy()
        dup.minimum = self.minimum
        dup.maximum = self.maximum
        dup.zero = self.zero
        dup.positive = dict(self.positive)
        dup.negative = dict(self.negative)
        return dup

    def to_dict(self) -> dict:
        """JSON-safe view (totals rounded; infinities mapped to None)."""
        return {
            "gamma": SKETCH_GAMMA,
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum if self.count else None,
            "maximum": self.maximum if self.count else None,
            "zero": self.zero,
            "positive": {str(i): self.positive[i]
                         for i in sorted(self.positive)},
            "negative": {str(i): self.negative[i]
                         for i in sorted(self.negative)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HistogramSketch":
        _check_gamma(d)
        sketch = cls()
        sketch.count = int(d["count"])
        sketch._total = ExactSum((d["total"],) if d["total"] else ())
        sketch.minimum = (float("inf") if d.get("minimum") is None
                          else float(d["minimum"]))
        sketch.maximum = (float("-inf") if d.get("maximum") is None
                          else float(d["maximum"]))
        sketch.zero = int(d.get("zero", 0))
        sketch.positive = {int(i): int(n)
                           for i, n in d.get("positive", {}).items()}
        sketch.negative = {int(i): int(n)
                           for i, n in d.get("negative", {}).items()}
        return sketch


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one sample series."""

    count: int
    #: correctly rounded sum of every observation.
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, samples) -> "LatencySummary":
        """Summarise a non-empty sample series exactly as a registry
        series that observed the same values reports it."""
        series = _Series()
        for value in samples:
            series.observe(float(value))
        if not series.sketch.count:
            raise ValueError("cannot summarise an empty sample series")
        return series.summary()


class _Series:
    """One sample series: a log sketch, plus every raw observation while
    there are at most :data:`EXACT_SAMPLES` of them (``exact`` is
    ``None`` after that, or from the start for a sketch-only series)."""

    __slots__ = ("sketch", "exact")

    def __init__(self, keep_exact: bool = True) -> None:
        self.sketch = HistogramSketch()
        self.exact: list[float] | None = [] if keep_exact else None

    def observe(self, value: float) -> None:
        self.sketch.observe(value)
        exact = self.exact
        if exact is not None:
            if len(exact) < EXACT_SAMPLES:
                exact.append(value)
            else:
                self.exact = None

    def summary(self) -> LatencySummary:
        sketch = self.sketch
        if self.exact is not None:
            p50 = percentile(self.exact, 50)
            p95 = percentile(self.exact, 95)
            p99 = percentile(self.exact, 99)
        else:
            p50 = sketch.quantile(0.50)
            p95 = sketch.quantile(0.95)
            p99 = sketch.quantile(0.99)
        total = sketch.total
        return LatencySummary(
            count=sketch.count,
            total=total,
            mean=total / sketch.count,
            minimum=sketch.minimum,
            maximum=sketch.maximum,
            p50=p50,
            p95=p95,
            p99=p99,
        )


class _Store:
    """Counters and sample series: the registry's terminal total and
    each timeline window are one of these, so both update the same
    way."""

    __slots__ = ("counters", "series")
    #: whether a new series keeps its raw observations.
    keep_exact = True

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.series: dict[str, _Series] = {}

    def update(self, counts, samples) -> None:
        """Apply ``(name, n)`` increments and ``(name, value)`` samples."""
        counters = self.counters
        for name, n in counts:
            counters[name] += n
        series = self.series
        for name, value in samples:
            s = series.get(name)
            if s is None:
                s = series[name] = _Series(self.keep_exact)
            s.observe(float(value))


class _WindowStore(_Store):
    """A timeline window: its series keep only their sketch, so a
    window's memory follows its bucket count, not its sample count."""

    __slots__ = ()
    keep_exact = False


class MetricsRegistry:
    """Thread-safe counters, gauges and sample series for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._store = _Store()
        self._gauges: dict[str, float] = {}

    # -- counters and sample series --------------------------------------
    def update(self, counts, samples) -> None:
        """Apply ``(name, n)`` counter increments and ``(name, value)``
        samples under one lock acquisition.  A zero increment still
        creates its counter, so it is exported as 0."""
        with self._lock:
            self._store.update(counts, samples)

    def increment(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self.update(((name, n),), ())

    def observe(self, name: str, value: float) -> None:
        """Record one sample into series ``name``."""
        self.update((), ((name, value),))

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._store.counters.get(name, 0)

    # -- gauges --------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins).

        Gauges carry point-in-time levels — the attribution layer's
        per-segment latency shares of the most recent batch — where a
        monotone counter would be meaningless.
        """
        with self._lock:
            self._gauges[name] = float(value)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name)

    # -- sample series views -------------------------------------------
    def samples(self, name: str) -> list[float] | None:
        """Copy of every observation of series ``name``, in arrival order.

        ``None`` once the series has outgrown :data:`EXACT_SAMPLES` (only
        its sketch remains); an unknown series has no samples, ``[]``.
        """
        with self._lock:
            series = self._store.series.get(name)
            if series is None:
                return []
            return None if series.exact is None else list(series.exact)

    def sample_count(self, name: str) -> int:
        """Exact number of observations made to series ``name``."""
        with self._lock:
            series = self._store.series.get(name)
            return series.sketch.count if series else 0

    def sample_total(self, name: str) -> float | None:
        """Correctly rounded sum of every observation of series ``name``.

        Exact in the real-arithmetic sense (Shewchuk partials), so the
        same observations produce the same float no matter the order
        they arrived in.
        """
        with self._lock:
            series = self._store.series.get(name)
            return series.sketch.total if series else None

    def sketch(self, name: str) -> HistogramSketch | None:
        """Copy of series ``name``'s log-bucketed sketch, or ``None``."""
        with self._lock:
            series = self._store.series.get(name)
            return series.sketch.copy() if series else None

    def summary(self, name: str) -> LatencySummary | None:
        """Summary of series ``name``, or ``None`` when it has no samples.

        Count, sum, mean, min and max are exact; percentiles are exact
        while the series holds every observation and sketch estimates
        (bounded relative error, deterministic) past
        :data:`EXACT_SAMPLES`.
        """
        with self._lock:
            series = self._store.series.get(name)
            return series.summary() if series else None

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Plain-dict view: counters, gauges, per-series summaries.

        Taken under a single lock acquisition so the counters and every
        series summary describe the same instant — re-acquiring the lock
        per series would let concurrent ``observe``/``increment`` calls
        interleave and skew the view (e.g. a latency sample counted in a
        series but not yet in its paired counter).
        """
        with self._lock:
            return {
                "counters": dict(self._store.counters),
                "gauges": dict(self._gauges),
                "series": {name: s.summary()
                           for name, s in self._store.series.items()},
            }


def _keep_latest(gauges: dict, entries: dict) -> None:
    """Fold ``(t, value)`` gauge entries into ``gauges``, keeping each
    name's lexicographically largest entry (order-independent)."""
    for name, entry in entries.items():
        current = gauges.get(name)
        if current is None or entry >= current:
            gauges[name] = entry


class MetricsTimeline:
    """Tumbling-window telemetry on the modelled clock.

    Counters, gauges and sample series bucketed by
    ``floor(t / window_seconds)``, where ``t`` is a *modelled* timestamp
    (the serving layer uses each engine's accumulated busy seconds).
    Every window accumulates exactly — see the module docstring — so the
    same events give the same timeline bytes no matter the backend,
    worker count or observation order.  A one-thread object (only the
    registry is read from another thread, by the Prometheus scrape
    thread).
    """

    def __init__(self,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        window_seconds = float(window_seconds)
        if not window_seconds > 0.0:
            raise ConfigError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.window_seconds = window_seconds
        self._windows: dict[int, _WindowStore] = {}
        #: window index -> gauge name -> (modelled timestamp, value).
        self._gauges: dict[int, dict[str, tuple[float, float]]] = {}

    # -- recording -----------------------------------------------------
    def window_index(self, t: float) -> int:
        """The tumbling window a modelled timestamp falls in."""
        return int(float(t) // self.window_seconds)

    def _window(self, idx: int) -> _WindowStore:
        win = self._windows.get(idx)
        if win is None:
            win = self._windows[idx] = _WindowStore()
        return win

    def update(self, t: float, counts, samples) -> None:
        """Apply ``(name, n)`` increments and ``(name, value)`` samples
        to the window of modelled time ``t``.  Zero increments are
        dropped: a window holds only what happened in it."""
        counts = [(name, int(n)) for name, n in counts if n]
        if not (counts or samples):
            return
        self._window(self.window_index(t)).update(counts, samples)

    def record(self, t: float, name: str, n: int = 1) -> None:
        """Add ``n`` to window counter ``name`` at modelled time ``t``."""
        self.update(t, ((name, n),), ())

    def observe(self, t: float, name: str, value: float) -> None:
        """Record one sample into window series ``name`` at time ``t``."""
        self.update(t, (), ((name, value),))

    def set_gauge(self, t: float, name: str, value: float) -> None:
        """Set window gauge ``name``; the latest ``(t, value)`` wins."""
        idx = self.window_index(t)
        self._window(idx)
        _keep_latest(self._gauges.setdefault(idx, {}),
                     {name: (float(t), float(value))})

    def _fold(self, indices) -> _WindowStore:
        """The windows at ``indices`` folded into one store: counters
        add, sketches fold, exactly and in any order (missing indices
        are empty windows; no window is changed or aliased)."""
        fold = _WindowStore()
        for idx in indices:
            win = self._windows.get(idx)
            if win is None:
                continue
            fold.counters.update(win.counters)
            for name, theirs in win.series.items():
                mine = fold.series.get(name)
                if mine is None:
                    mine = fold.series[name] = _Series(keep_exact=False)
                mine.sketch.fold(theirs.sketch)
        return fold

    # -- views ---------------------------------------------------------
    @property
    def num_windows(self) -> int:
        return len(self._windows)

    def indices(self) -> list[int]:
        """Sorted indices of the non-empty windows."""
        return sorted(self._windows)

    def span(self) -> tuple[int, int] | None:
        """(first, last) non-empty window index, or ``None`` if empty."""
        if not self._windows:
            return None
        return min(self._windows), max(self._windows)

    def counter_totals(self) -> dict[str, int]:
        """Every windowed counter summed over all windows."""
        totals: Counter[str] = Counter()
        for win in self._windows.values():
            totals.update(win.counters)
        return dict(totals)

    def sliding(self, windows: int = 1) -> list[dict]:
        """Trailing-window views over the *contiguous* index range.

        One entry per index from the first to the last non-empty window
        (zero-traffic windows included, so rates read correctly), each
        merging the trailing ``windows`` tumbling windows: counters sum,
        sketches merge, gauges keep the latest ``(t, value)``.
        ``windows=1`` is the dense tumbling view.
        """
        if windows < 1:
            raise ConfigError(f"windows must be >= 1, got {windows}")
        bounds = self.span()
        if bounds is None:
            return []
        first, last = bounds
        out = []
        for idx in range(first, last + 1):
            trailing = range(idx - windows + 1, idx + 1)
            fold = self._fold(trailing)
            gauges: dict[str, tuple[float, float]] = {}
            for back in trailing:
                _keep_latest(gauges, self._gauges.get(back, {}))
            out.append({
                "index": idx,
                "start_seconds": idx * self.window_seconds,
                "end_seconds": (idx + 1) * self.window_seconds,
                "counters": dict(fold.counters),
                "gauges": {name: value
                           for name, (_t, value) in gauges.items()},
                "series": {name: s.sketch
                           for name, s in fold.series.items()},
            })
        return out

    # -- reconciliation ------------------------------------------------
    def reconcile(self, registry: MetricsRegistry) -> list[str]:
        """Check the windowed view against a terminal registry, exactly.

        Returns a list of mismatch descriptions (empty == reconciled).
        The windows fold exactly, so every windowed counter must sum to
        the registry counter bit for bit, and every windowed series must
        reproduce the registry series' exact observation count and
        correctly-rounded total.

        Valid whenever this timeline saw every batch the registry saw
        (a fresh service with the timeline passed to each run); gauges
        are levels, not totals, and are exempt by construction.
        """
        fold = self._fold(self._windows)
        problems: list[str] = []
        with registry._lock:
            terminal = registry._store
            for name in sorted(fold.counters):
                want = fold.counters[name]
                have = terminal.counters.get(name, 0)
                if have != want:
                    problems.append(
                        f"counter {name}: windows sum to {want}, "
                        f"registry has {have}"
                    )
            for name in sorted(fold.series):
                want_sketch = fold.series[name].sketch
                have = terminal.series.get(name)
                have_count = have.sketch.count if have else 0
                if have_count != want_sketch.count:
                    problems.append(
                        f"series {name}: windows hold {want_sketch.count} "
                        f"samples, registry has {have_count}"
                    )
                have_total = have.sketch.total if have else None
                if have_total != want_sketch.total:
                    problems.append(
                        f"series {name}: windows total "
                        f"{want_sketch.total!r}, registry has {have_total!r}"
                    )
        return problems

    # -- export --------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-safe view (sorted names, non-empty windows)."""
        windows = []
        for idx in sorted(self._windows):
            win = self._windows[idx]
            gauges = self._gauges.get(idx, {})
            windows.append({
                "index": idx,
                "start_seconds": idx * self.window_seconds,
                "end_seconds": (idx + 1) * self.window_seconds,
                "counters": {name: win.counters[name]
                             for name in sorted(win.counters)},
                "gauges": {
                    name: {"t": gauges[name][0],
                           "value": gauges[name][1]}
                    for name in sorted(gauges)
                },
                "series": {name: win.series[name].sketch.to_dict()
                           for name in sorted(win.series)},
            })
        return {
            "version": 1,
            "window_seconds": self.window_seconds,
            "gamma": SKETCH_GAMMA,
            "windows": windows,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsTimeline":
        """Rebuild a timeline from :meth:`to_dict` output.

        Windows hold only sketches, so nothing is lost.  Raises
        :class:`~repro.errors.ConfigError` when the document was written
        at a sketch gamma other than :data:`SKETCH_GAMMA` or lists a
        window index twice.
        """
        _check_gamma(d)
        timeline = cls(d["window_seconds"])
        for entry in d.get("windows", ()):
            idx = int(entry["index"])
            if idx in timeline._windows:
                raise ConfigError(f"window {idx} appears more than once")
            win = timeline._windows[idx] = _WindowStore()
            win.counters.update({
                name: int(n)
                for name, n in entry.get("counters", {}).items()
            })
            for name, doc in entry.get("series", {}).items():
                series = win.series[name] = _Series(keep_exact=False)
                series.sketch = HistogramSketch.from_dict(doc)
            gauges = entry.get("gauges")
            if gauges:
                timeline._gauges[idx] = {
                    name: (float(g["t"]), float(g["value"]))
                    for name, g in gauges.items()
                }
        return timeline

    def canonical_bytes(self) -> bytes:
        """Deterministic bytes of the whole timeline.

        Two runs that produced the same windowed events yield identical
        bytes regardless of dispatch backend or observation order — the
        ``service.slo`` scenario's backend-agreement gate compares exactly
        this.
        """
        return json.dumps(
            self.to_dict(), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
