"""Flow-engine tests: fixture markers plus targeted inference behavior."""

from __future__ import annotations

import pytest

from repro.analysis import flow_paths, flow_sources, lint_source
from repro.analysis.findings import Severity
from repro.analysis.flow.engine import flow_rules
from repro.analysis.registry import family_of

from tests.analysis.conftest import FLOW_FIXTURES, expected_findings


def flow_fixture(name: str):
    return flow_paths([str(FLOW_FIXTURES / name)])


class TestFixtureMarkers:
    """Each flow fixture's ``# expect`` markers match the engine exactly."""

    @pytest.mark.parametrize(
        "fixture",
        [
            "dim_violations.py",
            "con_violations.py",
            "tnt_violations.py",
        ],
    )
    def test_markers_match_exactly(self, fixture):
        expected = expected_findings(FLOW_FIXTURES / fixture)
        assert expected, f"{fixture} declares no expectations"
        actual = {(f.code, f.line) for f in flow_fixture(fixture)}
        assert actual == expected

    def test_clean_fixture_is_clean(self):
        assert flow_fixture("flow_clean.py") == []

    def test_every_flow_rule_has_fixture_coverage(self):
        covered = set()
        for fixture in FLOW_FIXTURES.glob("*.py"):
            covered |= {code for code, _ in expected_findings(fixture)}
        assert {rule.code for rule in flow_rules()} <= covered

    def test_flow_rules_never_fire_through_the_line_engine(self):
        for fixture in FLOW_FIXTURES.glob("*.py"):
            findings = lint_source(
                fixture.read_text(encoding="utf-8"), path=str(fixture)
            )
            assert not [
                f for f in findings
                if family_of(f.code) in ("DIM", "CON", "TNT")
            ]


class TestInterprocedural:
    def test_cross_module_return_dim(self):
        """A dim declared in one file is enforced at a call in another."""
        findings = flow_sources(
            {
                "proj/network.py": (
                    "def loop_resistance_ohms(r1_ohms, r2_ohms):\n"
                    "    return r1_ohms + r2_ohms\n"
                ),
                "proj/margin.py": (
                    "from network import loop_resistance_ohms\n"
                    "RAIL_VOLTS = 1.0\n"
                    "def bad_margin():\n"
                    "    return RAIL_VOLTS - loop_resistance_ohms(1.0, 2.0)\n"
                ),
            }
        )
        assert [(f.code, f.path, f.line) for f in findings] == [
            ("DIM001", "proj/margin.py", 4)
        ]

    def test_fixpoint_propagates_through_unannotated_chain(self):
        """Return dims iterate through helpers with no declared dims."""
        findings = flow_sources(
            {
                "chain.py": (
                    "RAIL_VOLTS = 1.0\n"
                    "def leaf():\n"
                    "    return RAIL_VOLTS\n"
                    "def mid():\n"
                    "    return leaf()\n"
                    "def total_ohms():\n"
                    "    return mid()\n"
                ),
            }
        )
        assert [(f.code, f.line) for f in findings] == [("DIM004", 7)]

    def test_annotation_beats_name(self):
        """A ``dim(...) ->`` comment overrides the name-implied dims."""
        findings = flow_sources(
            {
                "annotated.py": (
                    "def scale_volts(x, y):  # simlint: dim(x=V, y=V) -> 1\n"
                    "    return x / y\n"
                ),
            }
        )
        assert findings == []

    def test_keyword_dim_checked_even_unresolved(self):
        """Unit-suffixed keywords are audited without a resolved callee."""
        findings = flow_sources(
            {
                "caller.py": (
                    "RAIL_VOLTS = 1.0\n"
                    "def setup(scope):\n"
                    "    scope.configure(bandwidth_hz=RAIL_VOLTS)\n"
                ),
            }
        )
        assert [(f.code, f.line) for f in findings] == [("DIM002", 3)]


class TestQuietness:
    """The pass must stay silent when dims are unknown or consistent."""

    def test_unknown_absorbs(self):
        findings = flow_sources(
            {
                "quiet.py": (
                    "bulk_capacitance_farads = 22.0 * 1e-6\n"
                    "esr_ohms = 0.4 * 1e-3\n"
                    "tau_seconds = esr_ohms * bulk_capacitance_farads\n"
                    "corner_hz = 1.0 / tau_seconds\n"
                ),
            }
        )
        assert findings == []

    def test_one_conflict_does_not_cascade(self):
        """After a report the declared dim wins; no follow-on findings."""
        findings = flow_sources(
            {
                "cascade.py": (
                    "RAIL_VOLTS = 1.0\n"
                    "def f(depth_volts):\n"
                    "    sag_volts = depth_volts / RAIL_VOLTS\n"
                    "    twice_volts = sag_volts + RAIL_VOLTS\n"
                    "    return twice_volts\n"
                ),
            }
        )
        assert [(f.code, f.line) for f in findings] == [("DIM003", 3)]

    def test_suppression_comment_silences_flow_findings(self):
        findings = flow_sources(
            {
                "supp.py": (
                    "RAIL_OHMS = 1.0\n"
                    "RAIL_VOLTS = 1.0\n"
                    "bad = RAIL_OHMS + RAIL_VOLTS"
                    "  # simlint: disable=DIM001 (intentional)\n"
                ),
            }
        )
        assert findings == []

    def test_severities(self):
        by_code = {rule.code: rule.severity for rule in flow_rules()}
        assert by_code["DIM001"] is Severity.ERROR
        assert by_code["DIM002"] is Severity.ERROR
        assert by_code["DIM003"] is Severity.WARNING
        assert by_code["DIM004"] is Severity.ERROR
        assert by_code["CON001"] is Severity.ERROR
        assert by_code["CON002"] is Severity.ERROR
        assert by_code["CON003"] is Severity.WARNING
        assert by_code["TNT001"] is Severity.ERROR
        assert by_code["TNT002"] is Severity.ERROR
        assert by_code["TNT003"] is Severity.WARNING
        assert by_code["TNT004"] is Severity.ERROR
        assert by_code["TNT005"] is Severity.ERROR
