"""CLI behavior: exit codes, formats, baseline flags, rule listing."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main
from repro.analysis.registry import all_rules

from tests.analysis.conftest import CORPUS, FIXTURES, FLOW_FIXTURES

CLEAN = str(FIXTURES / "clean.py")
DIRTY = str(FIXTURES / "hyg_violations.py")
#: Line-rule-clean but dimensionally wrong: findings only under --flow.
FLOW_DIRTY = str(CORPUS / "bad_rc_sum.py")
#: Clean except for a TNT005 host-dependent cache key.
TAINT_DIRTY = str(CORPUS / "bad_env_cache_key.py")
#: Workers drawing underived streams (CON001 + TNT002 under --flow).
SEED_DIRTY = str(CORPUS / "bad_campaign_seed.py")
#: One violation of each TNT rule (plus line-rule findings).
TNT_DIRTY = str(FLOW_FIXTURES / "tnt_violations.py")


def test_clean_file_exits_zero(capsys):
    assert main([CLEAN]) == 0
    assert "simlint: clean" in capsys.readouterr().out


def test_dirty_file_exits_one(capsys):
    assert main([DIRTY]) == 1
    out = capsys.readouterr().out
    assert "HYG001" in out
    assert "error" in out


def test_fixture_directory_fails(capsys):
    assert main([str(FIXTURES)]) == 1


def test_json_format_is_parseable(capsys):
    assert main([DIRTY, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == len(payload["findings"])
    assert payload["summary"]["total"] > 0
    first = payload["findings"][0]
    assert {"code", "message", "path", "line", "column", "severity"} <= set(
        first
    )


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out


def test_select_limits_rules(capsys):
    assert main([DIRTY, "--select", "DET001"]) == 0
    assert main([DIRTY, "--select", "HYG001"]) == 1


def test_select_unknown_code_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([DIRTY, "--select", "NOPE99"])
    assert excinfo.value.code == 2


def test_nonexistent_path_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["does/not/exist.py"])
    assert excinfo.value.code == 2


def test_write_then_use_baseline(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    assert main([DIRTY, "--write-baseline", "--baseline", str(baseline)]) == 0
    assert baseline.exists()
    capsys.readouterr()
    # With every finding grandfathered the same tree is green...
    assert main([DIRTY, "--baseline", str(baseline)]) == 0
    # ...and --no-baseline resurfaces everything.
    assert main([DIRTY, "--baseline", str(baseline), "--no-baseline"]) == 1


def test_missing_explicit_baseline_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([DIRTY, "--baseline", str(tmp_path / "absent.json")])
    assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    env_src = str(repo_root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", CLEAN],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "simlint: clean" in proc.stdout


class TestExitCodes:
    """The full matrix: 0 clean, 1 errors, 2 warnings-only under strict."""

    def test_clean_is_zero_even_strict(self, capsys):
        assert main([CLEAN, "--strict-warnings"]) == 0

    def test_errors_are_one(self, capsys):
        assert main([DIRTY]) == 1

    def test_errors_stay_one_under_strict(self, capsys):
        assert main([DIRTY, "--strict-warnings"]) == 1

    def test_warnings_only_is_zero_by_default(self, capsys):
        # HYG003 (overbroad except) is warning severity.
        assert main([DIRTY, "--select", "HYG003"]) == 0

    def test_warnings_only_is_two_under_strict(self, capsys):
        assert main([DIRTY, "--select", "HYG003", "--strict-warnings"]) == 2


class TestFlowFlag:
    def test_flow_findings_need_the_flag(self, capsys):
        assert main([FLOW_DIRTY, "--no-baseline"]) == 0
        assert main([FLOW_DIRTY, "--no-baseline", "--flow"]) == 1
        assert "DIM001" in capsys.readouterr().out

    def test_selecting_a_flow_code_implies_flow(self, capsys):
        assert main([FLOW_DIRTY, "--no-baseline", "--select", "DIM001"]) == 1

    def test_no_flow_is_accepted(self, capsys):
        assert main([FLOW_DIRTY, "--no-baseline", "--no-flow"]) == 0

    def test_family_prefix_expands_and_implies_flow(self, capsys):
        assert main([TAINT_DIRTY, "--no-baseline", "--select", "TNT"]) == 1
        assert "TNT005" in capsys.readouterr().out

    def test_family_selection_excludes_other_families(self, capsys):
        """--select TNT must not report the DIM bug in this file."""
        assert main([FLOW_DIRTY, "--no-baseline", "--select", "TNT"]) == 0

    def test_list_rules_marks_flow_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("DIM", "CON", "TNT")):
                assert "(flow)" in line


class TestProfiles:
    def test_tests_profile_relaxes_future_import(self, capsys):
        # HYG005 is a warning, so surface it via --strict-warnings.
        target = str(FIXTURES / "hyg_missing_future.py")
        base = [target, "--no-baseline", "--strict-warnings"]
        assert main(base) == 2
        assert main([*base, "--profile", "tests"]) == 0

    def test_default_profile_keeps_everything(self, capsys):
        assert main([DIRTY, "--no-baseline", "--profile", "default"]) == 1


class TestExclude:
    def test_exclude_skips_matching_paths(self, capsys):
        assert main([str(FIXTURES), "--no-baseline", "--exclude", "*"]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_exclude_is_selective(self, capsys):
        assert (
            main(
                [
                    str(FIXTURES),
                    "--no-baseline",
                    "--exclude",
                    "*/hyg_*.py",
                    "--select",
                    "HYG001,HYG003,HYG004,HYG005",
                ]
            )
            == 0
        )


class TestSarif:
    def test_sarif_is_valid_and_complete(self, capsys):
        assert main([DIRTY, "--format", "sarif", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "simlint"
        declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {rule.code for rule in all_rules()} <= declared
        assert run["results"], "dirty fixture must produce results"
        for result in run["results"]:
            assert result["ruleId"].startswith("HYG")
            assert result["level"] in ("error", "warning")
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(
                "hyg_violations.py"
            )
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert result["partialFingerprints"]["simlintFingerprint"]

    def test_sarif_clean_run_has_no_results(self, capsys):
        assert main([CLEAN, "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


class TestEffectsSubcommand:
    def test_json_report_shape(self, capsys):
        assert main(["effects", SEED_DIRTY, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert any(
            name.endswith(".noisy_record") for name in payload["functions"]
        )
        assert payload["worker_closure"]["functions"]
        assert "rng-unseeded" in payload["worker_closure"]["effects"]

    def test_text_report(self, capsys):
        assert main(["effects", SEED_DIRTY]) == 0
        out = capsys.readouterr().out
        assert "worker closure:" in out
        assert "rng-unseeded" in out

    def test_closure_query(self, capsys):
        assert main(
            ["effects", SEED_DIRTY, "--json", "--closure", "noisy_record"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        named = payload["closures"]["noisy_record"]
        assert named["effects"] == ["rng-unseeded"]

    def test_unknown_closure_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["effects", SEED_DIRTY, "--closure", "not_a_function"])
        assert excinfo.value.code == 2

    def test_nonexistent_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["effects", "no/such/path.py"])
        assert excinfo.value.code == 2


class TestLintCacheFlag:
    def test_cold_then_warm_counters(self, tmp_path, capsys):
        cache_file = str(tmp_path / "cache.json")
        args = [CLEAN, "--flow", "--lint-cache", cache_file]
        assert main(args) == 0
        cold_err = capsys.readouterr().err
        assert "0 hit(s)" in cold_err

        assert main(args) == 0
        warm_err = capsys.readouterr().err
        assert "0 miss(es)" in warm_err
        assert "hit(s)" in warm_err

    def test_cache_preserves_findings_and_exit_code(self, tmp_path, capsys):
        cache_file = str(tmp_path / "cache.json")
        args = [DIRTY, "--no-baseline", "--lint-cache", cache_file]
        assert main(args) == 1
        cold_out = capsys.readouterr().out
        assert main(args) == 1
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out


class TestPruneBaseline:
    def test_prune_drops_stale_and_keeps_live(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(
            [TNT_DIRTY, "--flow", "--write-baseline",
             "--baseline", str(baseline)]
        ) == 0
        payload = json.loads(baseline.read_text())
        stale = {
            "path": TNT_DIRTY,
            "code": "TNT001",
            "line": 999,
            "message": "a timestamp that was fixed long ago",
            "fingerprint": "0123456789abcdef",
            "justification": "kept to prove prune preserves the field",
        }
        payload["findings"].append(stale)
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()

        assert main(
            [TNT_DIRTY, "--prune-baseline", "--baseline", str(baseline)]
        ) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale" in out
        assert "a timestamp that was fixed long ago" in out
        pruned = json.loads(baseline.read_text())
        prints = {item["fingerprint"] for item in pruned["findings"]}
        assert "0123456789abcdef" not in prints
        assert len(pruned["findings"]) == len(payload["findings"]) - 1

    def test_prune_runs_full_rule_set_despite_select(self, tmp_path, capsys):
        """--select must not make unselected families look stale."""
        baseline = tmp_path / "base.json"
        assert main(
            [TNT_DIRTY, "--flow", "--write-baseline",
             "--baseline", str(baseline)]
        ) == 0
        before = json.loads(baseline.read_text())
        capsys.readouterr()
        assert main(
            [TNT_DIRTY, "--prune-baseline", "--baseline", str(baseline),
             "--select", "DET001"]
        ) == 0
        assert "pruned 0 stale" in capsys.readouterr().out
        assert json.loads(baseline.read_text()) == before

    def test_prune_without_baseline_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [TNT_DIRTY, "--prune-baseline",
                 "--baseline", str(tmp_path / "absent.json")]
            )
        assert excinfo.value.code == 2
