"""Continuous-benchmarking tests: metric model, detector, CLI, gating."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.perfbench.record import (
    CLASS_COUNT,
    CLASS_CYCLES,
    CLASS_MODELLED,
    CLASS_WALL,
    Metric,
    MetricStats,
    ScenarioStats,
    collect_stats,
)
from repro.perfbench.regress import TolerancePolicy, compare_snapshots
from repro.perfbench.scenarios import (
    SCENARIOS,
    metrics_from_experiment,
    run_scenario,
    scenario_names,
)
from repro.perfbench.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    Snapshot,
    config_fingerprint,
    load_snapshot,
    next_snapshot_path,
    snapshot_paths,
    write_snapshot,
)


def _stats(name, values, metric_class=CLASS_CYCLES, direction="lower"):
    return MetricStats(
        name=name, metric_class=metric_class, direction=direction,
        unit="", headline=False, values=tuple(values),
    )


def _scenario(name, metrics):
    runs = len(next(iter(metrics.values())).values) if metrics else 1
    return ScenarioStats(
        scenario=name, kind="test", runs=runs,
        metrics={m.name: m for m in metrics.values()},
    )


def _snapshot(scenarios, sha="abc1234"):
    return Snapshot(
        git_sha=sha, seed=7, runs=1, quick=True,
        config_fingerprint="f" * 16, created_at="2026-08-07",
        scenarios=scenarios,
    )


# ----------------------------------------------------------------------
# the metric model
# ----------------------------------------------------------------------
class TestRecord:
    def test_metric_class_validated(self):
        with pytest.raises(ConfigError):
            Metric("m", 1.0, "bogus")
        with pytest.raises(ConfigError):
            Metric("m", 1.0, CLASS_CYCLES, direction="sideways")

    def test_low_median_is_observed_value(self):
        stats = _stats("m", (10.0, 30.0, 20.0, 40.0))
        assert stats.median == 20.0  # lower middle, never an average
        assert stats.spread == 30.0

    def test_collect_stats_folds_runs(self):
        calls = iter([3.0, 1.0, 2.0])

        def build(seed):
            return {"m": Metric("m", next(calls), CLASS_MODELLED)}

        stats = collect_stats("s", "test", build, seed=7, runs=3)
        assert stats.metrics["m"].values == (3.0, 1.0, 2.0)
        assert stats.metrics["m"].median == 2.0

    def test_collect_stats_rejects_varying_metric_sets(self):
        shapes = iter([{"a"}, {"a", "b"}])

        def build(seed):
            return {
                n: Metric(n, 1.0, CLASS_COUNT) for n in next(shapes)
            }

        with pytest.raises(ConfigError, match="varying metric set"):
            collect_stats("s", "test", build, seed=7, runs=2)


class TestExperimentFlattening:
    RECORD = {
        "schema_version": 1,
        "experiment": "fig8",
        "title": "t",
        "headers": ["dataset", "k", "paths", "JOIN T2", "PEFP T2",
                    "speedup"],
        "rows": [["RT", 3, 100, 2e-3, 1e-3, 2.0],
                 ["RT", 4, 500, 8e-3, 2e-3, 4.0]],
    }

    def test_rows_become_labelled_metrics(self):
        metrics = metrics_from_experiment(self.RECORD)
        assert metrics["rt.k3/paths"].metric_class == CLASS_COUNT
        assert metrics["rt.k3/paths"].direction == "exact"
        assert metrics["rt.k4/pefp_t2"].metric_class == CLASS_MODELLED
        assert metrics["rt.k4/pefp_t2"].direction == "lower"
        assert metrics["rt.k4/speedup"].direction == "higher"

    def test_headline_aggregates(self):
        metrics = metrics_from_experiment(self.RECORD)
        assert metrics["total_paths"].value == 600
        assert metrics["speedup_geomean"].value == pytest.approx(
            (2.0 * 4.0) ** 0.5
        )
        assert metrics["speedup_geomean"].headline


# ----------------------------------------------------------------------
# the regression detector
# ----------------------------------------------------------------------
class TestDetector:
    def test_flat_exact_and_regressed_cycle(self):
        base = _snapshot({"s": _scenario("s", {
            "c": _stats("c", (100.0,)),
        })})
        flat = compare_snapshots(base, _snapshot({"s": _scenario("s", {
            "c": _stats("c", (100.0,)),
        })}))
        assert flat.scenarios[0].verdict == "flat"
        assert flat.passed
        # one cycle of drift on an exact class gates the build
        worse = compare_snapshots(base, _snapshot({"s": _scenario("s", {
            "c": _stats("c", (101.0,)),
        })}))
        assert worse.scenarios[0].verdict == "regressed"
        assert not worse.passed

    def test_direction_improved(self):
        base = _snapshot({"s": _scenario("s", {
            "qps": _stats("qps", (100.0,), CLASS_MODELLED, "higher"),
        })})
        cand = _snapshot({"s": _scenario("s", {
            "qps": _stats("qps", (150.0,), CLASS_MODELLED, "higher"),
        })})
        comparison = compare_snapshots(base, cand)
        assert comparison.scenarios[0].verdict == "improved"
        assert comparison.passed

    def test_exact_direction_flags_improvement_as_regression(self):
        # answer counts have no "better": any drift is a red flag
        base = _snapshot({"s": _scenario("s", {
            "paths": _stats("paths", (600.0,), CLASS_COUNT, "exact"),
        })})
        cand = _snapshot({"s": _scenario("s", {
            "paths": _stats("paths", (601.0,), CLASS_COUNT, "exact"),
        })})
        assert compare_snapshots(base, cand).scenarios[0].verdict \
            == "regressed"

    def test_new_and_removed_scenarios_do_not_gate(self):
        base = _snapshot({"old": _scenario("old", {
            "c": _stats("c", (1.0,)),
        })})
        cand = _snapshot({"new": _scenario("new", {
            "c": _stats("c", (1.0,)),
        })})
        comparison = compare_snapshots(base, cand)
        verdicts = {s.scenario: s.verdict for s in comparison.scenarios}
        assert verdicts == {"new": "new", "old": "removed"}
        assert comparison.passed

    def test_metric_missing_on_one_side_is_skipped(self):
        base = _snapshot({"s": _scenario("s", {
            "a": _stats("a", (1.0,)),
        })})
        cand = _snapshot({"s": _scenario("s", {
            "a": _stats("a", (1.0,)),
            "b": _stats("b", (9.0,)),
        })})
        comparison = compare_snapshots(base, cand)
        assert [m.name for m in comparison.scenarios[0].metrics] == ["a"]
        assert comparison.scenarios[0].verdict == "flat"

    def test_zero_variance_metric_compares_exactly(self):
        base = _snapshot({"s": _scenario("s", {
            "c": _stats("c", (50.0, 50.0, 50.0)),
        })})
        cand = _snapshot({"s": _scenario("s", {
            "c": _stats("c", (50.0, 50.0, 50.0)),
        })})
        comparison = compare_snapshots(base, cand)
        metric = comparison.scenarios[0].metrics[0]
        assert metric.verdict == "flat"
        assert metric.delta == 0.0

    def test_wall_tolerance_boundary(self):
        policy = TolerancePolicy()
        # |delta| <= rel * scale + abs: exactly on the band edge is flat
        base = 1.0
        edge = base * (1 + policy.relative[CLASS_WALL]) \
            + policy.absolute[CLASS_WALL]
        make = lambda v: _snapshot({"s": _scenario("s", {  # noqa: E731
            "w": _stats("w", (v,), CLASS_WALL, "lower"),
        })})
        boundary = compare_snapshots(make(base), make(edge), policy)
        assert boundary.scenarios[0].verdict == "flat"
        over = compare_snapshots(make(base), make(edge * 1.2), policy)
        # wall drift is reported but never fatal
        assert over.scenarios[0].verdict == "drifted"
        assert over.passed

    def test_wall_improvement_does_not_mark_scenario_improved(self):
        # only gated classes can claim an improvement
        base = _snapshot({"s": _scenario("s", {
            "w": _stats("w", (10.0,), CLASS_WALL, "lower"),
        })})
        cand = _snapshot({"s": _scenario("s", {
            "w": _stats("w", (1.0,), CLASS_WALL, "lower"),
        })})
        assert compare_snapshots(base, cand).scenarios[0].verdict \
            == "flat"

    def test_fingerprint_mismatch_is_flagged(self):
        base = _snapshot({})
        cand = Snapshot(
            git_sha="x", seed=7, runs=1, quick=True,
            config_fingerprint="different", created_at="",
            scenarios={},
        )
        assert not compare_snapshots(base, cand).fingerprint_match


# ----------------------------------------------------------------------
# snapshots on disk
# ----------------------------------------------------------------------
class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        snapshot = _snapshot({"s": _scenario("s", {
            "c": _stats("c", (1.0, 2.0)),
        })})
        path = tmp_path / "BENCH_0.json"
        write_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.git_sha == snapshot.git_sha
        assert loaded.scenarios["s"].metrics["c"].values == (1.0, 2.0)
        assert loaded.scenarios["s"].metrics["c"].metric_class \
            == CLASS_CYCLES

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text(json.dumps(
            {"schema_version": SNAPSHOT_SCHEMA_VERSION + 1}
        ))
        with pytest.raises(ConfigError, match="schema version"):
            load_snapshot(path)

    def test_paths_sorted_numerically(self, tmp_path):
        for index in (0, 2, 10):
            (tmp_path / f"BENCH_{index}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # not a snapshot
        found = snapshot_paths(tmp_path)
        assert [i for i, _ in found] == [0, 2, 10]
        assert next_snapshot_path(tmp_path).endswith("BENCH_11.json")

    def test_fingerprint_stable_within_process(self):
        assert config_fingerprint() == config_fingerprint()
        assert len(config_fingerprint()) == 16


# ----------------------------------------------------------------------
# the registry and the live scenarios
# ----------------------------------------------------------------------
class TestScenarios:
    def test_quick_subset_of_full(self):
        quick = set(scenario_names(quick=True))
        full = set(scenario_names(quick=False))
        assert quick < full
        assert "service.throughput.rt" in quick
        assert "overhead.tracing" in quick

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario("no.such.scenario", runs=1)

    def test_cache_scenario_is_deterministic(self):
        stats = run_scenario("service.cache.rt", runs=2)
        hit_rate = stats.metrics["repeat_hit_rate"]
        assert hit_rate.median == 1.0  # warm repeat batch: all hits
        for metric in stats.metrics.values():
            if metric.metric_class != CLASS_WALL:
                assert metric.spread == 0.0, metric.name
        assert stats.metrics["wall_seconds"].metric_class == CLASS_WALL

    def test_engine_profile_funnel_accounts_exactly(self):
        stats = run_scenario("engine.profile.rt", runs=1).metrics
        expansions = stats["funnel/expansions"].median
        parts = sum(
            stats[f"funnel/{check}"].median
            for check in ("rejected_target", "rejected_barrier",
                          "rejected_visited", "survivors")
        )
        assert expansions == parts > 0
        assert stats["total_cycles"].metric_class == CLASS_CYCLES

    def test_injected_verify_slowdown_is_flagged(self, monkeypatch):
        """+1 cycle per verify batch must trip the cycle-exact gate."""
        clean = _snapshot(
            {"engine.profile.rt": run_scenario("engine.profile.rt",
                                               runs=1)}
        )
        rerun = _snapshot(
            {"engine.profile.rt": run_scenario("engine.profile.rt",
                                               runs=1)}
        )
        comparison = compare_snapshots(clean, rerun)
        assert comparison.scenarios[0].verdict == "flat"  # no false alarm

        from repro.core.verify import VerificationModule

        original = VerificationModule.batch_cycles
        monkeypatch.setattr(
            VerificationModule, "batch_cycles",
            lambda self, n_items: original(self, n_items) + 1,
        )
        slowed = _snapshot(
            {"engine.profile.rt": run_scenario("engine.profile.rt",
                                               runs=1)}
        )
        comparison = compare_snapshots(clean, slowed)
        assert comparison.scenarios[0].verdict == "regressed"
        assert not comparison.passed
        regressed = {m.name for m in
                     comparison.scenarios[0].gated_regressions}
        assert "total_cycles" in regressed


# ----------------------------------------------------------------------
# the CLI, end to end on a fast scenario
# ----------------------------------------------------------------------
class TestBenchCLI:
    SCENARIO = ["--scenario", "service.cache.rt"]

    def _run(self, tmp_path, out=None, runs=1):
        argv = (["bench", "run", "--dir", str(tmp_path), "--runs", str(runs)]
                + self.SCENARIO)
        if out:
            argv += ["--out", str(out)]
        return main(argv)

    def test_run_compare_flat(self, tmp_path, capsys):
        # medians of three runs, as CI's perf gate takes them: one host
        # hiccup in a single ~25 ms run would exceed the wall tolerance
        assert self._run(tmp_path, runs=3) == 0
        assert self._run(tmp_path, runs=3) == 0
        assert {i for i, _ in snapshot_paths(tmp_path)} == {0, 1}
        rc = main(["bench", "compare", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate: PASS" in out
        assert "1 flat" in out

    def test_compare_detects_tampered_baseline(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        raw = json.loads((tmp_path / "BENCH_0.json").read_text())
        metrics = raw["scenarios"]["service.cache.rt"]["metrics"]
        metrics["total_paths"]["values"] = [
            v + 1 for v in metrics["total_paths"]["values"]
        ]
        (tmp_path / "BENCH_1.json").write_text(json.dumps(raw))
        rc = main(["bench", "compare", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "gate: FAIL" in out
        assert "regressed" in out

    def test_compare_without_baseline_errors(self, tmp_path, capsys):
        rc = main(["bench", "compare", "--dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "need two" in err

    def test_report_and_trend(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        assert main(["bench", "report", "--dir", str(tmp_path)]) == 0
        report = capsys.readouterr().out
        assert "service.cache.rt" in report
        assert "repeat_hit_rate" in report
        assert main(["bench", "trend", "--dir", str(tmp_path)]) == 0
        trend = capsys.readouterr().out
        assert "performance trajectory" in trend

    def test_list_names_every_scenario(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_legacy_bench_seed_flag_still_parses(self, capsys, monkeypatch):
        # Only the legacy dispatch is under test, so the experiment it
        # looks up is a recording stub; Table II itself is covered by
        # tests/test_reporting.py.
        from repro.reporting import experiments

        calls = []

        class _Result:
            def table(self):
                return "Table II (stub)"

        def lookup(name):
            def experiment(seed, **kwargs):
                calls.append((name, seed, kwargs))
                return _Result()
            return experiment, {}

        monkeypatch.setattr(experiments, "experiment_by_name", lookup)
        assert main(["bench", "tab2", "--seed", "3"]) == 0
        assert calls == [("tab2", 3, {})]
        assert "Table II (stub)" in capsys.readouterr().out
