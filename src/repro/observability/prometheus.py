"""Prometheus text exposition for a :class:`MetricsRegistry`.

:func:`render_prometheus` turns a registry snapshot into the Prometheus
text format (version 0.0.4): counters become ``counter`` metrics, gauges
(point-in-time levels such as the attribution layer's segment shares)
become ``gauge`` metrics, and every sample series — latencies and device
distributions alike — becomes a ``summary`` metric (p50/p95/p99
quantiles, ``_sum`` the series' exact correctly-rounded total,
``_count`` its observation count).
:class:`MetricsHTTPServer` serves the rendering at ``/metrics`` from a
background thread, so a long-running service can be scraped while
batches are in flight — the registry is locked per snapshot, never per
scrape line — and answers ``/healthz`` with a liveness JSON (uptime,
registry sizes).

Name sanitisation is collision-safe: registry names are free-form
(``attribution/queue_wait_seconds_total``, ``slo/latency/met``) and the
character substitution that makes them exposition-legal can map two
distinct registry names to the same metric name.  Rather than silently
clobbering one series with the other, colliding names get deterministic
``_2``/``_3``… suffixes (in sorted registry-name order) and a ``# HELP``
line recording the original name.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # registry is duck-typed; avoids a service<->host cycle
    from repro.service.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(prefix: str, name: str) -> str:
    name = _NAME_RE.sub("_", name)
    return f"{prefix}_{name}" if prefix else name


def _exposition_names(snap: dict, prefix: str) -> dict[tuple[str, str], str]:
    """Collision-free exposition name for every metric in a snapshot.

    Maps ``(kind, registry name)`` to the final metric name.  Names that
    sanitise uniquely keep the plain ``_metric_name`` form; a sanitised
    name claimed by several registry names (within one kind or across
    kinds — Prometheus metric names share one namespace regardless of
    type) keeps the plain form for the sorted-first claimant and appends
    ``_2``, ``_3``… to the rest, skipping suffixed forms some other name
    already sanitises to.  Deterministic: depends only on the set of
    names present.
    """
    kinds = ("counters", "gauges", "series")
    claims: dict[str, list[tuple[str, str]]] = {}
    for kind in kinds:
        for name in snap.get(kind, ()):
            claims.setdefault(
                _metric_name(prefix, name), []
            ).append((kind, name))
    taken = set(claims)
    final: dict[tuple[str, str], str] = {}
    for sanitised in sorted(claims):
        claimants = sorted(claims[sanitised])
        final[claimants[0]] = sanitised
        suffix = 2
        for key in claimants[1:]:
            while f"{sanitised}_{suffix}" in taken:
                suffix += 1
            renamed = f"{sanitised}_{suffix}"
            taken.add(renamed)
            final[key] = renamed
            suffix += 1
    return final


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry,
                      prefix: str = "pefp") -> str:
    """The registry's current state in Prometheus text exposition format."""
    snap = registry.snapshot()
    names = _exposition_names(snap, prefix)
    lines: list[str] = []

    def header(kind: str, name: str, metric_type: str) -> str:
        metric = names[(kind, name)]
        if metric != _metric_name(prefix, name):
            lines.append(
                f"# HELP {metric} renamed from colliding metric "
                f"name {name!r}"
            )
        lines.append(f"# TYPE {metric} {metric_type}")
        return metric

    for name in sorted(snap["counters"]):
        metric = header("counters", name, "counter")
        lines.append(f"{metric} {snap['counters'][name]}")

    for name in sorted(snap.get("gauges", ())):
        metric = header("gauges", name, "gauge")
        lines.append(f"{metric} {_fmt(snap['gauges'][name])}")

    for name in sorted(snap["series"]):
        summary = snap["series"][name]
        metric = header("series", name, "summary")
        for q, value in (("0.5", summary.p50), ("0.95", summary.p95),
                         ("0.99", summary.p99)):
            lines.append(f'{metric}{{quantile="{q}"}} {_fmt(value)}')
        lines.append(f"{metric}_sum {_fmt(summary.total)}")
        lines.append(f"{metric}_count {summary.count}")

    return "\n".join(lines) + "\n"


class MetricsHTTPServer:
    """Background ``/metrics`` + ``/healthz`` endpoint over one registry.

    >>> server = MetricsHTTPServer(registry, port=0)   # doctest: +SKIP
    >>> server.url                                     # doctest: +SKIP
    'http://127.0.0.1:43817/metrics'
    >>> server.close()                                 # doctest: +SKIP

    ``port=0`` binds an ephemeral port (see :attr:`port`).  ``/healthz``
    returns liveness JSON (status, uptime, per-kind registry sizes) for
    load-balancer checks; any other path returns 404.  The server runs
    on a daemon thread and never outlives :meth:`close`.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1", prefix: str = "pefp") -> None:
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                route = self.path.split("?", 1)[0]
                if route == "/metrics":
                    body = render_prometheus(
                        outer.registry, prefix=outer.prefix
                    ).encode("utf-8")
                    content_type = "text/plain; version=0.0.4"
                elif route == "/healthz":
                    body = json.dumps(
                        outer.health(), sort_keys=True
                    ).encode("utf-8")
                    content_type = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args) -> None:
                pass  # keep scrapes out of stderr

        self.registry = registry
        self.prefix = prefix
        self._started = time.monotonic()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="pefp-metrics",
            daemon=True,
        )
        self._thread.start()

    def health(self) -> dict:
        """The ``/healthz`` payload: status, uptime, registry sizes."""
        snap = self.registry.snapshot()
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "registry": {
                "counters": len(snap["counters"]),
                "gauges": len(snap.get("gauges", ())),
                "series": len(snap["series"]),
            },
        }

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def close(self) -> None:
        """Stop serving and join the background thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
