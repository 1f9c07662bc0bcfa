"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph import generators
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = generators.gnm_random(30, 140, seed=4)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path)


class TestQueryCommand:
    def test_query_pefp(self, graph_file, capsys):
        rc = main(["query", graph_file, "-s", "0", "-t", "5", "-k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "path(s) from 0 to 5" in out
        assert "T1=" in out and "T2=" in out

    def test_query_cpu_algorithm(self, graph_file, capsys):
        rc = main(["query", graph_file, "-s", "0", "-t", "5", "-k", "4",
                   "--algorithm", "join"])
        assert rc == 0
        assert "path(s)" in capsys.readouterr().out

    def test_algorithms_agree(self, graph_file, capsys):
        counts = []
        for algo in ("pefp", "bc-dfs", "naive-dfs"):
            main(["query", graph_file, "-s", "0", "-t", "5", "-k", "4",
                  "--algorithm", algo, "--all"])
            out = capsys.readouterr().out
            counts.append(int(out.split()[0]))
        assert counts[0] == counts[1] == counts[2]

    def test_dataset_key_accepted(self, capsys):
        rc = main(["query", "rt", "-s", "0", "-t", "5", "-k", "3"])
        assert rc == 0

    def test_invalid_query_reports_error(self, graph_file, capsys):
        rc = main(["query", graph_file, "-s", "0", "-t", "0", "-k", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["query", "/no/such/file", "-s", "0", "-t", "1", "-k", "2"])
        assert rc == 1

    def test_limit_truncates(self, capsys):
        main(["query", "rt", "-s", "0", "-t", "5", "-k", "4", "--limit", "1"])
        out = capsys.readouterr().out
        if "more (use --all)" in out:
            assert out.count("->") <= 4  # one path line only


class TestStatsCommand:
    def test_stats(self, graph_file, capsys):
        rc = main(["stats", graph_file, "--samples", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "|V|" in out and "avg degree" in out


class TestCompareCommand:
    def test_agreeing_algorithms(self, graph_file, capsys):
        rc = main(["compare", graph_file, "-s", "0", "-t", "5", "-k", "4",
                   "--left", "pefp", "--right", "bc-dfs"])
        assert rc == 0
        assert "==" in capsys.readouterr().out

    def test_cpu_vs_cpu(self, graph_file, capsys):
        rc = main(["compare", graph_file, "-s", "0", "-t", "5", "-k", "4",
                   "--left", "naive-dfs", "--right", "join"])
        assert rc == 0


class TestDatasetsCommand:
    def test_lists_twelve(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        for short in ("RT", "LJ", "DP"):
            assert short in out


class TestServeBatchCommand:
    def test_serve_batch_prints_metrics(self, graph_file, capsys):
        rc = main(["serve-batch", graph_file, "-k", "4", "-n", "8",
                   "--engines", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency p50" in out and "latency p99" in out
        assert "throughput" in out
        assert "reverse CSR" in out
        assert "engine 1" in out

    def test_longest_first_scheduler(self, graph_file, capsys):
        rc = main(["serve-batch", graph_file, "-k", "4", "-n", "6",
                   "--engines", "3", "--scheduler", "longest-first"])
        assert rc == 0
        assert "longest-first" in capsys.readouterr().out

    def test_dataset_key(self, capsys):
        rc = main(["serve-batch", "rt", "-k", "3", "-n", "4"])
        assert rc == 0
        assert "queries" in capsys.readouterr().out


class TestBenchCommand:
    def test_runs_tab3(self, capsys):
        rc = main(["bench", "tab3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "l=7" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["bench", "fig99"])
        assert rc == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_dir_writes_artifacts(self, graph_file, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        rc = main(["serve-batch", graph_file, "-k", "4", "-n", "6",
                   "--engines", "2", "--profile",
                   "--trace-dir", str(trace_dir)])
        assert rc == 0
        for name in ("trace.jsonl", "trace_chrome.json", "metrics.prom",
                     "profile.json"):
            assert (trace_dir / name).exists(), name
        out = capsys.readouterr().out
        assert "device cycles" in out  # profile summary printed
        import json

        doc = json.loads((trace_dir / "trace_chrome.json").read_text())
        assert any(e.get("name") == "query" for e in doc["traceEvents"])
        assert "pefp_queries" in (trace_dir / "metrics.prom").read_text()

    def test_trace_report_subcommand(self, graph_file, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main(["serve-batch", graph_file, "-k", "4", "-n", "4",
                     "--profile", "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        rc = main(["trace-report", str(trace_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans" in out and "tracks" in out
        assert "serve_batch" in out

    def test_trace_report_missing_dir(self, tmp_path, capsys):
        rc = main(["trace-report", str(tmp_path / "nothing")])
        assert rc == 1
        assert "no trace" in capsys.readouterr().err

    def test_metrics_out_without_trace_dir(self, graph_file, tmp_path,
                                           capsys):
        metrics_file = tmp_path / "metrics.prom"
        rc = main(["serve-batch", graph_file, "-k", "4", "-n", "4",
                   "--metrics-out", str(metrics_file)])
        assert rc == 0
        assert "# TYPE pefp_queries counter" in metrics_file.read_text()

    def test_failure_seed_flag(self, graph_file, capsys):
        rc = main(["serve-batch", graph_file, "-k", "4", "-n", "8",
                   "--engines", "3", "--inject-failures", "1",
                   "--failure-seed", "21"])
        assert rc == 0
        assert "failed" in capsys.readouterr().out


class TestAnalyzeCommand:
    @pytest.fixture
    def traced_dir(self, graph_file, tmp_path):
        trace_dir = tmp_path / "trace"
        assert main(["serve-batch", graph_file, "-k", "4", "-n", "6",
                     "--engines", "2", "--profile",
                     "--trace-dir", str(trace_dir)]) == 0
        return trace_dir

    def test_analyze_renders_attribution(self, traced_dir, capsys):
        capsys.readouterr()
        rc = main(["analyze", str(traced_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency waterfalls" in out
        assert "critical path" in out
        assert "engine timelines" in out
        assert "tail attribution" in out
        assert "NO" not in out  # every row reconciled

    def test_analyze_writes_json(self, traced_dir, tmp_path, capsys):
        import json

        out_path = tmp_path / "attribution.json"
        rc = main(["analyze", str(traced_dir), "--json", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["reconciled"] is True
        assert doc["num_queries"] == 6

    def test_analyze_missing_trace(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nothing")])
        assert rc == 1
        assert "no trace.jsonl" in capsys.readouterr().err

    def test_bench_attribute_diffs_two_traces(self, traced_dir,
                                              graph_file, tmp_path,
                                              capsys):
        other = tmp_path / "other"
        assert main(["serve-batch", graph_file, "-k", "4", "-n", "6",
                     "--engines", "2", "--seed", "9", "--profile",
                     "--trace-dir", str(other)]) == 0
        capsys.readouterr()
        rc = main(["bench", "attribute", "--baseline", str(traced_dir),
                   "--candidate", str(other)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regression attribution" in out
        assert "kernel_verify" in out
        assert "TOTAL" in out


class TestTraceReportDegradation:
    def test_missing_profile_notes_instead_of_erroring(self, graph_file,
                                                       tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main(["serve-batch", graph_file, "-k", "4", "-n", "4",
                     "--trace-dir", str(trace_dir)]) == 0
        assert not (trace_dir / "profile.json").exists()
        capsys.readouterr()
        rc = main(["trace-report", str(trace_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no profile.json" in out
        assert "no metrics.prom" not in out  # that one was written

    def test_missing_metrics_notes_instead_of_erroring(self, graph_file,
                                                       tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main(["serve-batch", graph_file, "-k", "4", "-n", "4",
                     "--profile", "--trace-dir", str(trace_dir)]) == 0
        (trace_dir / "metrics.prom").unlink()
        capsys.readouterr()
        rc = main(["trace-report", str(trace_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no metrics.prom" in out
        assert "no profile.json" not in out
        assert "device cycles" in out  # profile table still rendered
