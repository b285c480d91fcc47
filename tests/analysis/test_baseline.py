"""Baseline round-trip: write, reload, filter; fingerprints are stable."""

from __future__ import annotations

import json

import pytest

from repro.analysis import lint_paths
from repro.analysis.baseline import Baseline, load, save
from repro.analysis.findings import Finding, Severity

from tests.analysis.conftest import FIXTURES


def fixture_findings():
    return lint_paths([str(FIXTURES / "hyg_violations.py")])


def test_round_trip_filters_everything(tmp_path):
    findings = fixture_findings()
    assert findings
    target = tmp_path / "baseline.json"
    save(str(target), findings)
    baseline = load(str(target))
    assert baseline.filter(findings) == []


def test_new_findings_survive_baseline(tmp_path):
    findings = fixture_findings()
    target = tmp_path / "baseline.json"
    save(str(target), findings[:-1])
    baseline = load(str(target))
    assert baseline.filter(findings) == [findings[-1]]


def test_fingerprint_survives_line_shift():
    base = Finding(
        code="HYG001",
        message="m",
        path="p.py",
        line=10,
        column=4,
        severity=Severity.ERROR,
        source_line="if undervolt == 0.0:",
    )
    shifted = Finding(
        code="HYG001",
        message="m",
        path="p.py",
        line=42,
        column=4,
        severity=Severity.ERROR,
        source_line="if undervolt == 0.0:",
    )
    baseline = Baseline.from_findings([base])
    assert shifted in baseline


def test_fingerprint_expires_when_line_text_changes():
    base = Finding(
        code="HYG001",
        message="m",
        path="p.py",
        line=10,
        column=4,
        severity=Severity.ERROR,
        source_line="if undervolt == 0.0:",
    )
    edited = Finding(
        code="HYG001",
        message="m",
        path="p.py",
        line=10,
        column=4,
        severity=Severity.ERROR,
        source_line="if undervolt == 0.5:",
    )
    baseline = Baseline.from_findings([base])
    assert edited not in baseline


def test_saved_file_is_stable_json(tmp_path):
    findings = fixture_findings()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save(str(first), findings)
    save(str(second), list(reversed(findings)))
    assert first.read_text() == second.read_text()
    payload = json.loads(first.read_text())
    assert payload["version"] == 1
    assert all(
        set(item) - {"justification"}
        == {"path", "code", "line", "message", "fingerprint"}
        for item in payload["findings"]
    )


def test_prune_splits_stale_entries(tmp_path):
    findings = fixture_findings()
    assert len(findings) >= 2
    target = tmp_path / "baseline.json"
    save(str(target), findings)
    baseline = load(str(target))
    kept, removed = baseline.prune(findings[:-1])
    assert len(kept) == len(findings) - 1
    assert len(removed) == 1
    assert removed[0]["fingerprint"] == findings[-1].fingerprint


def test_prune_keeps_justifications(tmp_path):
    findings = fixture_findings()
    target = tmp_path / "baseline.json"
    reason = "kept on purpose for the test"
    save(
        str(target),
        findings,
        justifications={findings[0].fingerprint: reason},
    )
    baseline = load(str(target))
    kept, _ = baseline.prune(findings)
    by_print = {item["fingerprint"]: item for item in kept}
    assert by_print[findings[0].fingerprint]["justification"] == reason


def test_bad_baseline_rejected(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text('{"not": "a baseline"}')
    with pytest.raises(ValueError):
        load(str(target))
    target.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ValueError):
        load(str(target))


def test_shipped_baseline_grandfathers_only_known_debt():
    """The shipped baseline carries only the wall-clock comparison in
    examples/parallel_sweep.py (OBS001), which measures the speedup the
    example exists to demonstrate.  Everything else gets fixed, not
    baselined — and every entry says why it stays."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    payload = json.loads(
        (repo_root / "simlint-baseline.json").read_text(encoding="utf-8")
    )
    assert payload["findings"], "expected grandfathered entries"
    for item in payload["findings"]:
        assert item["code"] == "OBS001"
        assert item["path"] == "examples/parallel_sweep.py"
        assert str(item.get("justification", "")).strip(), (
            f"{item['path']}:{item['line']} {item['code']} lacks a "
            "justification"
        )


def test_shipped_baseline_is_current(monkeypatch):
    """The grandfathered lines still exist verbatim (no stale entries)."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    payload = json.loads(
        (repo_root / "simlint-baseline.json").read_text(encoding="utf-8")
    )
    # Fingerprints hash the repo-relative path the baseline was written
    # with, so lint from the repo root using the same relative path.
    monkeypatch.chdir(repo_root)
    live = {
        (f.code, f.fingerprint)
        for f in lint_paths(["examples/parallel_sweep.py"])
        if f.code == "OBS001"
    }
    baselined = {
        (item["code"], item["fingerprint"])
        for item in payload["findings"]
        if item["code"] == "OBS001"
    }
    assert live == baselined
