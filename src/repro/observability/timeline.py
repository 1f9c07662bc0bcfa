"""Timeline export: windowed telemetry as JSONL and OpenMetrics.

A :class:`~repro.service.metrics.MetricsTimeline` is the in-memory form;
this module gives it two wire forms:

- **JSONL** (:func:`write_timeline_jsonl` / :func:`read_timeline_jsonl`)
  — a header line (version, window width, sketch gamma) followed by one
  line per non-empty window carrying the full counters/gauges/sketches,
  so post-hoc tools (``repro monitor``, SLO evaluation) keep complete
  fidelity: quantiles, burn rates and reconciliation all recompute from
  the file exactly as they would from the live object;
- **OpenMetrics with timestamps** (:func:`render_openmetrics`) — the
  scrape-file form: windowed counters as *cumulative* ``_total`` series
  timestamped at each window's end, everything else (window gauges plus
  the derived rates below) as timestamped gauges, terminated by the
  mandatory ``# EOF``.

Derived per-window metrics (:func:`derive_window_metrics`) are computed
at export time, never stored, so the stored timeline stays exactly
reconcilable:

- ``throughput_qps`` — completed queries in the window divided by the
  window width;
- ``engine{i}/utilization`` — device seconds *charged to the window the
  query completed in* divided by the window width.  Charging whole
  queries to their completion window keeps the decomposition exact (the
  per-window device seconds sum to the engine's terminal total bit for
  bit) at the price that a window where a long kernel completes can show
  utilization above 1.0;
- ``in_flight_engines`` — engines whose active span (first to last
  window they completed work in) covers the window.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.observability.prometheus import _fmt

if TYPE_CHECKING:  # import at runtime would cycle through repro.service
    from repro.service.metrics import MetricsTimeline

_HEADER_KIND = "timeline_header"
_WINDOW_KIND = "window"


def timeline_to_jsonl_lines(timeline: MetricsTimeline) -> list[str]:
    """The timeline as JSONL lines (header first, then one per window)."""
    doc = timeline.to_dict()
    header = {
        "kind": _HEADER_KIND,
        "version": doc["version"],
        "window_seconds": doc["window_seconds"],
        "gamma": doc["gamma"],
        "num_windows": len(doc["windows"]),
    }
    lines = [json.dumps(header, separators=(",", ":"), sort_keys=True)]
    for window in doc["windows"]:
        entry = {"kind": _WINDOW_KIND, **window}
        lines.append(json.dumps(entry, separators=(",", ":"),
                                sort_keys=True))
    return lines


def write_timeline_jsonl(timeline: MetricsTimeline, path) -> Path:
    """Write the timeline to ``path`` as JSONL; returns the path."""
    path = Path(path)
    path.write_text(
        "\n".join(timeline_to_jsonl_lines(timeline)) + "\n",
        encoding="utf-8",
    )
    return path


def read_timeline_jsonl(path) -> MetricsTimeline:
    """Rebuild a timeline from a JSONL file written by this module."""
    path = Path(path)
    header = None
    windows = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        kind = entry.get("kind")
        if kind == _HEADER_KIND:
            if header is not None:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate timeline header"
                )
            header = entry
        elif kind == _WINDOW_KIND:
            windows.append(entry)
        else:
            raise ConfigError(
                f"{path}:{lineno}: unknown record kind {kind!r}"
            )
    if header is None:
        raise ConfigError(f"{path}: missing timeline header line")
    if header.get("num_windows", len(windows)) != len(windows):
        raise ConfigError(
            f"{path}: header declares {header['num_windows']} windows, "
            f"file holds {len(windows)}"
        )
    from repro.service.metrics import MetricsTimeline

    return MetricsTimeline.from_dict({
        "version": header.get("version", 1),
        "window_seconds": header["window_seconds"],
        "gamma": header["gamma"],
        "windows": windows,
    })


def derive_window_metrics(timeline: MetricsTimeline,
                          windows: list[dict] | None = None,
                          span: int = 1) -> list[dict]:
    """Per-window derived gauges over the contiguous window range.

    Returns the dense tumbling view (:meth:`MetricsTimeline.sliding`
    with ``windows=1``) with a ``derived`` dict added to every entry —
    see the module docstring for the exact semantics of each metric.
    When ``windows`` is a sliding view merging N tumbling windows, pass
    ``span=N`` so rates divide by the merged width, not one window.
    """
    if windows is None:
        windows = timeline.sliding(1)
    width = timeline.window_seconds * span
    # An engine is "in flight" for every window inside its active span:
    # between the first and last window it completed work in, inclusive.
    spans: dict[str, tuple[int, int]] = {}
    for entry in windows:
        for name in entry["counters"]:
            if name.startswith("engine") and name.endswith("_queries"):
                engine = name[: -len("_queries")]
                first, last = spans.get(engine, (entry["index"],
                                                 entry["index"]))
                spans[engine] = (min(first, entry["index"]),
                                 max(last, entry["index"]))
    for entry in windows:
        derived: dict[str, float] = {
            "throughput_qps": entry["counters"].get("queries", 0) / width,
        }
        for name, sketch in entry["series"].items():
            if name.startswith("engine") and name.endswith(
                "_device_seconds"
            ):
                engine = name[: -len("_device_seconds")]
                derived[f"{engine}/utilization"] = sketch.total / width
        derived["in_flight_engines"] = sum(
            1 for first, last in spans.values()
            if first <= entry["index"] <= last
        )
        entry["derived"] = derived
    return windows


def _om_name(name: str) -> str:
    """A timeline metric name as an OpenMetrics-safe name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    cleaned = "".join(out)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def render_openmetrics(timeline: MetricsTimeline,
                       prefix: str = "pefp") -> str:
    """The timeline in OpenMetrics text format, with timestamps.

    Windowed counters become *cumulative* ``<prefix>_<name>_total``
    counter series (running sum up to each window) timestamped at the
    window's end; window series contribute per-window count/sum/min/max
    gauges; explicit window gauges and the derived metrics
    (:func:`derive_window_metrics`) are timestamped gauges.  Ends with
    the ``# EOF`` terminator the format requires.
    """
    windows = derive_window_metrics(timeline)
    lines: list[str] = []

    counter_names = sorted({
        name for entry in windows for name in entry["counters"]
    })
    series_names = sorted({
        name for entry in windows for name in entry["series"]
    })
    gauge_names = sorted({
        name for entry in windows for name in entry["gauges"]
    })
    derived_names = sorted({
        name for entry in windows for name in entry["derived"]
    })

    for name in counter_names:
        metric = f"{prefix}_{_om_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"# HELP {metric} windowed counter {name} "
                     f"(cumulative over modelled time)")
        total = 0
        for entry in windows:
            total += entry["counters"].get(name, 0)
            lines.append(
                f"{metric}_total {_fmt(total)} "
                f"{_fmt(entry['end_seconds'])}"
            )
    for name in series_names:
        metric = f"{prefix}_{_om_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"# HELP {metric} per-window series {name} "
                     f"(count/sum/min/max per tumbling window)")
        for entry in windows:
            sketch = entry["series"].get(name)
            stamp = _fmt(entry["end_seconds"])
            if sketch is None or not sketch.count:
                lines.append(f"{metric}_count 0 {stamp}")
                continue
            lines.append(f"{metric}_count {sketch.count} {stamp}")
            lines.append(f"{metric}_sum {_fmt(sketch.total)} {stamp}")
            lines.append(
                f"{metric}_min {_fmt(sketch.minimum)} {stamp}"
            )
            lines.append(
                f"{metric}_max {_fmt(sketch.maximum)} {stamp}"
            )
    for name in gauge_names:
        metric = f"{prefix}_{_om_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"# HELP {metric} window gauge {name}")
        for entry in windows:
            if name in entry["gauges"]:
                lines.append(
                    f"{metric} {_fmt(entry['gauges'][name])} "
                    f"{_fmt(entry['end_seconds'])}"
                )
    for name in derived_names:
        metric = f"{prefix}_{_om_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"# HELP {metric} derived window metric {name}")
        for entry in windows:
            # A window where an engine completed nothing has no
            # utilization entry: that is exactly zero, not missing data.
            lines.append(
                f"{metric} {_fmt(entry['derived'].get(name, 0.0))} "
                f"{_fmt(entry['end_seconds'])}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
