"""Unit tests for the experiment CLI."""

import re

import pytest

from repro.cli import DESCRIPTIONS, EXPERIMENTS, main


class TestCli:
    def test_every_experiment_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for alias in EXPERIMENTS:
            assert alias in out

    def test_run_one(self, capsys):
        assert main(["run", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "finished in" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_aliases_resolve_to_modules(self):
        import importlib

        for name in EXPERIMENTS.values():
            importlib.import_module(f"repro.experiments.{name}")


class TestExecutionFlags:
    def test_jobs_and_cache_dir_configure_context(self, tmp_path, capsys):
        from repro.experiments import context

        assert main([
            "run", "fig01",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cli-cache"),
        ]) == 0
        assert context.execution_jobs() == 2
        cache = context.shared_cache()
        assert cache is not None
        assert cache.directory == tmp_path / "cli-cache"

    def test_no_cache_flag(self, capsys):
        from repro.experiments import context

        assert main(["run", "fig01", "--no-cache"]) == 0
        assert context.shared_cache() is None

    def test_stats_line_printed_after_campaign_run(self, tmp_path, capsys):
        # fig15 runs a real campaign (fig01 is analytic), so the executor
        # summary line must appear.
        assert main([
            "run", "fig15", "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        out = capsys.readouterr().out
        assert "[executor]" in out
        assert "cache:" in out

    def test_warm_cache_rerun_skips_simulation(self, tmp_path, capsys):
        args = ["run", "fig15", "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        cold = capsys.readouterr().out

        from repro.experiments import context
        context.reset_campaigns()  # simulate a fresh process

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 hits" in cold
        # Only entries the cache could not read back are simulated again:
        # none in a clean run, the corrupt loads under fault injection.
        (stats,) = [
            line for line in warm.splitlines() if line.startswith("[executor]")
        ]
        simulated = re.search(r" (\d+) runs simulated", stats)
        corrupt = re.search(r"\((\d+) corrupt\)", stats)
        assert simulated and corrupt, stats
        assert int(simulated.group(1)) == int(corrupt.group(1)), stats

    def test_fault_flags_configure_context(self, capsys):
        from repro.experiments import context

        assert main([
            "measure", "mcf", "--config", "Proc100", "--cycles", "2000",
            "--no-cache", "--max-retries", "4", "--run-timeout", "30",
            "--inject-faults", "exception:1.0,seed=5",
        ]) == 0
        policy = context.retry_policy()
        assert policy.max_retries == 4
        assert policy.run_timeout == 30.0  # simlint: disable=HYG001 (exact by construction)
        plan = context.fault_plan()
        assert plan is not None
        assert plan.rate("simulate.exception") == 1.0  # simlint: disable=HYG001 (exact by construction)
        out = capsys.readouterr().out
        assert "recovery:" in out  # exception:1.0 forces visible retries

    def test_bad_fault_plan_rejected(self, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "measure", "mcf", "--no-cache",
                "--inject-faults", "sigsegv:1.0",
            ])


class TestChaosCommand:
    ARGS = ["chaos", "mcf", "lbm", "--config", "Proc100",
            "--cycles", "2000", "--jobs", "1"]

    def test_recovers_bit_identical(self, capsys):
        assert main(self.ARGS + ["--plan", "exception:0.7,corrupt:1.0"]) == 0
        out = capsys.readouterr().out
        assert "cold pass:" in out
        assert "warm pass:" in out
        assert "bit-identical" in out
        assert "DIVERGED" not in out

    def test_default_plan(self, capsys):
        assert main(self.ARGS) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_disabled_plan_is_an_error(self, capsys):
        assert main(self.ARGS + ["--plan", "off"]) == 2
        assert "nothing to test" in capsys.readouterr().err

    def test_malformed_plan_is_an_error(self, capsys):
        assert main(self.ARGS + ["--plan", "sigsegv:1.0"]) == 2
        assert "chaos:" in capsys.readouterr().err


class TestArenaCommand:
    ARGS = ["arena", "--config", "Proc100", "--cycles", "2000"]

    def test_prints_ranked_markdown_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "# Policy arena" in out
        assert "oracle regret" in out
        assert "Oracle optimum:" in out

    def test_json_reruns_are_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + ["--json", str(first)]) == 0
        assert main(self.ARGS + ["--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "wrote scorecards" in capsys.readouterr().out

    def test_jobs_flag_does_not_change_report(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(self.ARGS + ["--json", str(serial)]) == 0
        assert main(
            self.ARGS + ["--json", str(parallel), "--jobs", "2"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_policy_subset_and_markdown_file(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert main(
            self.ARGS
            + ["--policies", "droop,random", "--markdown", str(report)]
        ) == 0
        text = report.read_text(encoding="utf-8")
        assert "Droop" in text and "Random" in text
        assert "| 2 |" in text and "| 3 |" not in text

    def test_quad_core_runs(self, capsys):
        assert main(self.ARGS + ["--cores", "4"]) == 0
        assert "4 cores" in capsys.readouterr().out

    def test_unknown_suite_is_an_error(self, capsys):
        assert main(["arena", "--suite", "nope"]) == 2
        assert "arena:" in capsys.readouterr().err

    def test_unknown_policy_is_an_error(self, capsys):
        assert main(self.ARGS + ["--policies", "droop,nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err


class TestUndervoltSweepCommand:
    ARGS = ["undervolt-sweep", "--workloads", "lbm,mcf",
            "--frequencies", "1.66,1.86", "--config", "Proc100",
            "--cycles", "2000", "--jobs", "1"]

    def test_prints_map_and_frontier(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "## Vmin map" in out
        assert "## Energy-efficiency frontier" in out
        assert "runs simulated" in out

    def test_reports_written_and_deterministic(self, tmp_path, capsys):
        payload = tmp_path / "frontier.json"
        report = tmp_path / "frontier.md"
        args = self.ARGS + ["--json", str(payload),
                            "--markdown", str(report)]
        assert main(args) == 0
        first = payload.read_bytes()
        assert report.read_text(encoding="utf-8").startswith(
            "# Undervolt sweep:"
        )
        assert main(args) == 0
        assert payload.read_bytes() == first
        capsys.readouterr()

    def test_probe_recovers_below_vmin(self, capsys):
        assert main(self.ARGS + ["--probe-depth-mv", "40"]) == 0
        out = capsys.readouterr().out
        assert "[probe]" in out
        assert "bit error(s) injected" in out
        assert "recovered bit-identical" in out

    def test_bad_workload_is_an_error(self, capsys):
        assert main(["undervolt-sweep", "--workloads", "nope",
                     "--cycles", "2000"]) == 2
        assert "undervolt-sweep:" in capsys.readouterr().err
