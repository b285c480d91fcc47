"""CLI surface: --trace/--metrics/--profile-stages and `repro measure`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_measure(tmp_path, label, *extra):
    """Run `repro measure` on a tiny run set with export flags."""
    trace = tmp_path / f"{label}-trace.json"
    metrics = tmp_path / f"{label}-metrics.json"
    status = main(
        [
            "measure",
            "mcf",
            "mcf+lbm",
            "--cycles",
            "2000",
            "--no-cache",
            "--trace",
            str(trace),
            "--metrics",
            str(metrics),
            *extra,
        ]
    )
    assert status == 0
    return (
        json.loads(trace.read_text(encoding="utf-8")),
        json.loads(metrics.read_text(encoding="utf-8")),
    )


def structure(node):
    return (
        node["name"],
        tuple(structure(c) for c in node.get("children", ())),
    )


class TestMeasureCommand:
    def test_prints_per_run_table(self, capsys):
        assert main(["measure", "mcf", "--cycles", "2000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "droops/1k" in out
        assert "mcf@Proc3" in out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["measure", "nonesuch", "--cycles", "2000"]) == 2
        assert "measure:" in capsys.readouterr().err


class TestExports:
    def test_trace_and_metrics_files_written(self, tmp_path, capsys):
        trace, metrics = run_measure(tmp_path, "serial")
        assert trace["version"] == 1
        assert trace["span_count"] > 0
        assert metrics["version"] == 1
        assert metrics["counters"]["repro_runs_total"] == 2
        out = capsys.readouterr().out
        assert "wrote trace to" in out
        assert "wrote metrics to" in out

    def test_serial_and_parallel_exports_bit_identical(self, tmp_path):
        serial_trace, serial_metrics = run_measure(tmp_path, "serial")
        parallel_trace, parallel_metrics = run_measure(
            tmp_path, "parallel", "--jobs", "2"
        )
        for section in ("counters", "gauges", "histograms"):
            assert serial_metrics[section] == parallel_metrics[section]
        assert [structure(r) for r in serial_trace["roots"]] == [
            structure(r) for r in parallel_trace["roots"]
        ]

    def test_parallel_trace_carries_worker_spans(self, tmp_path):
        trace, _ = run_measure(tmp_path, "workers", "--jobs", "2")

        def count_worker(node):
            return (1 if node.get("worker") else 0) + sum(
                count_worker(c) for c in node.get("children", ())
            )

        assert sum(count_worker(r) for r in trace["roots"]) > 0

    def test_prometheus_export(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        status = main(
            [
                "measure",
                "mcf",
                "--cycles",
                "2000",
                "--no-cache",
                "--metrics",
                str(prom),
            ]
        )
        assert status == 0
        text = prom.read_text(encoding="utf-8")
        assert "# TYPE repro_runs_total counter" in text
        assert "# HELP" in text

    def test_environment_defaults(self, tmp_path, monkeypatch, capsys):
        trace = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["measure", "mcf", "--cycles", "2000", "--no-cache"]) == 0
        assert json.loads(trace.read_text(encoding="utf-8"))["span_count"] > 0


class TestProfileStages:
    def test_stage_table_printed(self, capsys):
        status = main(
            [
                "measure",
                "mcf",
                "--cycles",
                "2000",
                "--no-cache",
                "--profile-stages",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "campaign.batch" in out
        assert "run.simulate" in out

    def test_profile_json_written_and_round_trips(self, tmp_path, capsys):
        from repro.observability.profiling import (
            PROFILE_SCHEMA,
            PROFILE_SCHEMA_VERSION,
        )

        target = tmp_path / "stages.json"
        status = main(
            [
                "measure",
                "mcf",
                "--cycles",
                "2000",
                "--no-cache",
                "--profile-stages",
                str(target),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        # The text table still prints alongside the JSON export.
        assert "campaign.batch" in out
        assert str(target) in out

        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["version"] == PROFILE_SCHEMA_VERSION
        stages = payload["stages"]
        assert {stage["name"] for stage in stages} >= {
            "campaign.batch",
            "run.simulate",
            "chip.run",
            "pdn.simulate",
        }
        # Rows come out sorted by total wall time, heaviest first, and
        # every row carries a positive span count.
        totals = [stage["total_seconds"] for stage in stages]
        assert totals == sorted(totals, reverse=True)
        for stage in stages:
            assert stage["count"] >= 1
            assert stage["mean_seconds"] == pytest.approx(
                stage["total_seconds"] / stage["count"]
            )
            assert stage["max_seconds"] <= stage["total_seconds"]


class TestRunAndReportFlags:
    def test_run_with_metrics_export(self, tmp_path, capsys):
        metrics = tmp_path / "fig02.json"
        assert main(["run", "fig02", "--metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text(encoding="utf-8"))
        # fig02 is analytic (no campaign), but the experiment gauge and
        # the trace-backed runtime section must still be present.
        assert 'repro_experiment_seconds{experiment="fig02"}' in (
            payload["runtime"]
        )

    def test_report_appends_observability_section(self, tmp_path):
        from repro.reporting import generate_report

        text = generate_report(aliases=["fig15"], quick=True)
        assert "## Observability" in text
        # campaign.batch spans appear whether the cache is warm or cold;
        # run.simulate would only show up on cache misses.
        assert "experiment.fig15" in text
        assert "campaign.batch" in text
        assert "droop events:" in text
