"""Per-rule fixture tests: exact rule code + line for every violation."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import flow_paths, lint_paths, lint_source
from repro.analysis.findings import Severity
from repro.analysis.registry import all_rules, family_of

from tests.analysis.conftest import FIXTURES, expected_findings


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_paths([str(path)])


def actual_findings(name: str) -> set[tuple[str, int]]:
    return {(f.code, f.line) for f in lint_fixture(name)}


class TestFixtureFindings:
    """Each fixture's ``# expect`` markers match simlint exactly."""

    @pytest.mark.parametrize(
        "fixture",
        [
            "det_violations.py",
            "unit_violations.py",
            "hyg_violations.py",
            "obs_timing.py",
        ],
    )
    def test_markers_match_exactly(self, fixture):
        expected = expected_findings(FIXTURES / fixture)
        assert expected, f"{fixture} declares no expectations"
        assert actual_findings(fixture) == expected

    def test_missing_future_annotations(self):
        findings = lint_fixture("hyg_missing_future.py")
        assert [(f.code, f.line) for f in findings] == [("HYG005", 1)]

    def test_clean_fixture_is_clean(self):
        assert lint_fixture("clean.py") == []

    def test_every_rule_family_has_fixture_coverage(self):
        """Each family (line and flow) is verified by at least one marker."""
        covered = set()
        for fixture in FIXTURES.rglob("*.py"):
            covered |= {code[:3] for code, _ in expected_findings(fixture)}
        assert {"DET", "UNI", "HYG", "OBS", "DIM", "CON"} <= covered

    def test_every_rule_code_has_fixture_coverage(self):
        """No rule ships without a fixture that triggers it.

        Line rules fire through ``lint_paths``; flow rules only through
        ``flow_paths`` — each engine covers its own registry half.
        """
        covered = set()
        for fixture in sorted(FIXTURES.glob("*.py")):
            covered |= {f.code for f in lint_fixture(fixture.name)}
        covered |= {f.code for f in flow_paths([str(FIXTURES / "flow")])}
        assert {rule.code for rule in all_rules()} <= covered


class TestRuleMetadata:
    def test_codes_unique_and_well_formed(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert len(set(codes)) == len(codes)
        for rule in rules:
            family = family_of(rule.code)
            assert family in (
                "DET", "UNI", "HYG", "OBS", "DIM", "CON", "TNT"
            )
            assert rule.code[len(family):].isdigit()
            assert rule.name
            assert rule.description
            assert isinstance(rule.severity, Severity)
            # Flow rules belong to the dataflow families and vice versa.
            assert rule.flow == (family in ("DIM", "CON", "TNT"))

    def test_fixture_dir_fails_as_a_whole(self):
        findings = lint_paths([str(FIXTURES)])
        assert findings, "fixtures must make simlint fail"


class TestTargetedDetections:
    """Spot checks straight from source snippets (no fixture file)."""

    def test_numpy_alias_resolution(self):
        source = (
            "from __future__ import annotations\n"
            "import numpy.random as npr\n"
            "def f() -> None:\n"
            "    npr.seed(3)\n"
        )
        findings = lint_source(source, path="snippet.py")
        assert [(f.code, f.line) for f in findings] == [("DET002", 4)]

    def test_from_import_wall_clock(self):
        source = (
            "from __future__ import annotations\n"
            "from time import time\n"
            "def f() -> float:\n"
            "    return time()\n"
        )
        findings = lint_source(source, path="snippet.py")
        assert [(f.code, f.line) for f in findings] == [("DET003", 4)]

    def test_perf_counter_flagged_outside_observability(self):
        source = (
            "from __future__ import annotations\n"
            "import time\n"
            "def f() -> float:\n"
            "    return time.perf_counter()\n"
        )
        findings = lint_source(source, path="snippet.py")
        assert [(f.code, f.line) for f in findings] == [("OBS001", 4)]

    def test_perf_counter_allowed_inside_observability(self):
        source = (
            "from __future__ import annotations\n"
            "import time\n"
            "def f() -> float:\n"
            "    return time.perf_counter()\n"
        )
        path = "src/repro/observability/clock.py"
        assert lint_source(source, path=path) == []

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", path="broken.py")
        assert len(findings) == 1
        assert findings[0].code == "SIM000"
        assert findings[0].severity is Severity.ERROR

    def test_unit_rule_ignores_plain_magnitudes(self):
        source = (
            "from __future__ import annotations\n"
            "duration_seconds = 600.0\n"
            "ramp_seconds = 2000.0\n"
        )
        assert lint_source(source, path="snippet.py") == []

    def test_unit_rule_catches_small_decimal(self):
        source = (
            "from __future__ import annotations\n"
            "noise_volts = 0.0004\n"
        )
        findings = lint_source(source, path="snippet.py")
        assert [(f.code, f.line) for f in findings] == [("UNI001", 2)]
