"""Quantile parity: sketch-backed series vs the reservoir-era series.

A registry series used to keep a reservoir (Algorithm R), its own exact
count/sum/min/max and a :class:`HistogramSketch`; it is now the sketch
plus the raw observations while they all fit.  ``_ReservoirSeries``
below is that older series, copied verbatim, as the oracle: for any
observations, on either side of the 4096-sample cap, every summary field
of one registry that observed them and the exact sample total must agree
with it bit for bit.  The same observations written into timeline
windows at different modelled times must fold, by the timeline itself,
to the oracle's sketch, bucket for bucket, with the same exact total:
windows keep only their sketch, and the registry and the windows share
one accumulation.
"""

import random
import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.metrics import (
    EXACT_SAMPLES,
    ExactSum,
    HistogramSketch,
    MetricsRegistry,
    MetricsTimeline,
    percentile,
)

#: the reservoir size the older registry defaulted to.
DEFAULT_RESERVOIR_SIZE = 4096


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one sample series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float


# -- oracle: the reservoir-era series, verbatim -------------------------
class _ReservoirSeries:
    """One sample series: exact aggregates + reservoir + log sketch."""

    __slots__ = ("count", "_total", "minimum", "maximum", "reservoir",
                 "sketch")

    def __init__(self) -> None:
        self.count = 0
        self._total = ExactSum()
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.reservoir: list[float] = []
        self.sketch = HistogramSketch()

    @property
    def total(self) -> float:
        return self._total.value

    def observe(self, value: float, capacity: int,
                rng: random.Random) -> None:
        self.count += 1
        self._total.add(value)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.sketch.observe(value)
        if len(self.reservoir) < capacity:
            self.reservoir.append(value)
        else:
            # Algorithm R: keep each of the `count` observations with
            # equal probability capacity / count.
            slot = rng.randrange(self.count)
            if slot < capacity:
                self.reservoir[slot] = value

    def summary(self) -> LatencySummary:
        # While every observation is still retained the reservoir *is*
        # the series and its nearest-rank percentiles are exact; past
        # that (overflow, or a merge that combined more samples than the
        # cap) quantiles come from the sketch — deterministic and free
        # of the small-shard bias a truncated reservoir concat has.
        if self.count == len(self.reservoir):
            p50 = percentile(self.reservoir, 50)
            p95 = percentile(self.reservoir, 95)
            p99 = percentile(self.reservoir, 99)
        else:
            p50 = self.sketch.quantile(0.50)
            p95 = self.sketch.quantile(0.95)
            p99 = self.sketch.quantile(0.99)
        return LatencySummary(
            count=self.count,
            mean=self.total / self.count,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=p50,
            p95=p95,
            p99=p99,
        )


# -- harness -------------------------------------------------------------
#: timeline window width the observations bucket into.
_WINDOW = 1e-3


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _observed(values, windows):
    """Observe ``values`` into one registry, one oracle series and a
    timeline, value ``i`` at a seeded random modelled time inside window
    ``windows[i]``; return the registry and the oracle.

    The fold of the timeline's windows must pass
    :func:`_assert_fold_parity` against the same oracle.
    """
    registry = MetricsRegistry()
    timeline = MetricsTimeline(_WINDOW)
    oracle = _ReservoirSeries()
    rng = random.Random(0)
    clock = random.Random(len(values))
    for value, window in zip(values, windows):
        registry.observe("x", value)
        timeline.observe((window + clock.random()) * _WINDOW, "x", value)
        oracle.observe(float(value), DEFAULT_RESERVOIR_SIZE, rng)
    _assert_fold_parity(timeline, oracle)
    return registry, oracle


def _assert_fold_parity(timeline: MetricsTimeline, oracle: _ReservoirSeries):
    """Every window folded together is the oracle's sketch."""
    first, last = timeline.span()
    fold = timeline.sliding(last - first + 1)[-1]["series"]["x"]
    assert fold.to_dict() == oracle.sketch.to_dict()
    assert _bits(fold.total) == _bits(oracle.total)


def _assert_parity(registry: MetricsRegistry, oracle: _ReservoirSeries):
    have = registry.summary("x")
    want = oracle.summary()
    assert have.count == want.count
    for field in ("mean", "minimum", "maximum", "p50", "p95", "p99"):
        assert _bits(getattr(have, field)) == _bits(getattr(want, field)), (
            field, getattr(have, field), getattr(want, field))
    assert _bits(registry.sample_total("x")) == _bits(oracle.total)
    assert _bits(have.total) == _bits(oracle.total)
    exact = oracle.count == len(oracle.reservoir)
    samples = registry.samples("x")
    if exact:
        assert sorted(samples) == sorted(oracle.reservoir)
    else:
        assert samples is None


@st.composite
def windowed(draw, values):
    """``values`` spread over 1-8 windows of modelled time."""
    vals = draw(values)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    windows = draw(st.integers(min_value=1, max_value=8))
    return vals, [rng.randrange(windows) for _ in vals]


_FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(windowed(st.lists(_FLOATS, min_size=1, max_size=60)))
def test_small_series_match_reservoir_oracle(case):
    _assert_parity(*_observed(*case))


@st.composite
def large_values(draw):
    """Seeded value lists whose total straddles the exact-sample cap."""
    n = draw(st.integers(min_value=EXACT_SAMPLES // 2,
                         max_value=2 * EXACT_SAMPLES + 500))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pool = [rng.uniform(1e-6, 1e-1) for _ in range(64)]
    values = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            values.append(rng.lognormvariate(-7.0, 2.0))
        elif kind < 0.8:
            values.append(rng.choice(pool))
        elif kind < 0.9:
            values.append(-rng.uniform(0.0, 5.0))
        else:
            values.append(0.0)
    return values


@settings(max_examples=20, deadline=None)
@given(windowed(large_values()))
def test_large_series_match_reservoir_oracle(case):
    _assert_parity(*_observed(*case))


@pytest.mark.parametrize("sizes", [
    (EXACT_SAMPLES,), (EXACT_SAMPLES + 1,), (2048, 2048), (2048, 2049),
    (EXACT_SAMPLES, 1), (1, EXACT_SAMPLES), (1000, 1000, 1000, 1096),
    (1000, 1000, 1000, 1097),
])
def test_cap_boundary_matches_reservoir_oracle(sizes):
    """``sizes[i]`` observations land in window ``i``."""
    rng = random.Random(sum(sizes))
    values = [rng.lognormvariate(-7.0, 2.0) for _ in range(sum(sizes))]
    windows = [i for i, size in enumerate(sizes) for _ in range(size)]
    _assert_parity(*_observed(values, windows))
