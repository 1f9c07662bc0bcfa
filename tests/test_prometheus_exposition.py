"""Prometheus exposition edge cases: empties, non-finite, collisions."""

import json
import urllib.error
import urllib.request

import pytest

from repro.observability.prometheus import (
    MetricsHTTPServer,
    render_prometheus,
)
from repro.service.metrics import MetricsRegistry


class TestEmptyAndNonFinite:
    def test_empty_registry_renders_nothing(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_non_finite_gauges(self):
        registry = MetricsRegistry()
        registry.set_gauge("nan_gauge", float("nan"))
        registry.set_gauge("pos_inf", float("inf"))
        registry.set_gauge("neg_inf", float("-inf"))
        text = render_prometheus(registry, prefix="p")
        assert "p_nan_gauge NaN" in text
        assert "p_pos_inf +Inf" in text
        assert "p_neg_inf -Inf" in text

    def test_integral_floats_render_as_ints(self):
        registry = MetricsRegistry()
        registry.set_gauge("level", 3.0)
        assert "p_level 3\n" in render_prometheus(registry, prefix="p")


class TestSummarySum:
    def test_sum_is_the_exact_total(self):
        # mean * count rounds twice: 12.149999999999999 for these values,
        # whose correctly rounded sum is 12.15.
        registry = MetricsRegistry()
        for v in (6.92, 3.45, 1.78):
            registry.observe("x", v)
        text = render_prometheus(registry, prefix="p")
        assert f"p_x_sum {registry.sample_total('x')!r}\n" in text
        assert "p_x_sum 12.15\n" in text


class TestNameCollisions:
    def test_colliding_names_both_survive(self):
        registry = MetricsRegistry()
        registry.increment("a/b", 1)
        registry.increment("a_b", 2)
        text = render_prometheus(registry, prefix="p")
        # Sanitisation maps both to p_a_b; the sorted-first registry name
        # ("a/b" < "a_b") keeps the plain form, the other gets a
        # deterministic suffix plus a HELP note — neither is clobbered.
        lines = text.splitlines()
        values = {line.split()[0]: line.split()[1]
                  for line in lines if not line.startswith("#")}
        assert values == {"p_a_b": "1", "p_a_b_2": "2"}
        assert any("renamed from colliding metric name" in line
                   for line in lines)

    def test_suffix_skips_taken_names(self):
        registry = MetricsRegistry()
        registry.increment("a/b", 1)
        registry.increment("a_b", 2)
        registry.increment("a_b_2", 3)  # already owns the _2 form
        text = render_prometheus(registry, prefix="p")
        values = {line.split()[0] for line in text.splitlines()
                  if not line.startswith("#")}
        assert values == {"p_a_b", "p_a_b_2", "p_a_b_3"}

    def test_cross_kind_collisions_disambiguated(self):
        registry = MetricsRegistry()
        registry.increment("x/y", 7)
        registry.set_gauge("x_y", 1.5)
        text = render_prometheus(registry, prefix="p")
        assert "# TYPE p_x_y counter" in text
        assert "# TYPE p_x_y_2 gauge" in text
        assert "p_x_y 7\n" in text
        assert "p_x_y_2 1.5" in text

    def test_deterministic_across_renders(self):
        registry = MetricsRegistry()
        registry.increment("a/b")
        registry.increment("a_b")
        registry.observe("a.b", 1.0)
        assert (render_prometheus(registry)
                == render_prometheus(registry))


class TestMetricsHTTPServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode("utf-8")

    def test_healthz_and_metrics_routes(self):
        registry = MetricsRegistry()
        registry.increment("queries", 3)
        registry.set_gauge("depth", 1.0)
        registry.observe("latency_seconds", 1e-4)
        with MetricsHTTPServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, body = self._get(base + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0.0
            assert health["registry"] == {
                "counters": 1, "gauges": 1, "series": 1}
            status, body = self._get(base + "/metrics")
            assert status == 200
            assert "pefp_queries 3" in body

    def test_unknown_route_is_404(self):
        with MetricsHTTPServer(MetricsRegistry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(f"http://127.0.0.1:{server.port}/other")
            assert err.value.code == 404
