"""Tests of the benchmark's own arithmetic and output checks."""

import itertools
import json
from pathlib import Path

import harness
import run
import suite


def _counting_clock():
    ticks = itertools.count(1)
    return lambda: float(next(ticks))


def _chip_and_windows():
    from repro.uarch.chip import Chip
    from repro.workloads.spec import SPEC_CPU2006

    chip = Chip("Proc100")
    windows = [
        SPEC_CPU2006[name].sample_window(2_000, rng=index)
        for index, name in enumerate(("mcf", "namd"))
    ]
    return chip, windows


def test_self_time_of_nested_wrapped_calls():
    # Chip.run -> TransientSimulator.simulate, on a clock that ticks once
    # per read: chip opens at 1, pdn spans 2..3, chip closes at 4.
    chip, windows = _chip_and_windows()
    recorder = harness.Recorder(clock=_counting_clock())
    targets = [t for t in harness.LAYERS if t.layer in ("uarch", "pdn")]
    with harness.traced(recorder, targets):
        chip.run(windows, seed=0)
    layers = [(s.layer, s.start, s.end, s.parent) for s in recorder.spans]
    assert layers == [("uarch", 1.0, 4.0, -1), ("pdn", 2.0, 3.0, 0)]
    assert harness.self_times(recorder.spans) == [2.0, 1.0]
    metrics = harness.layer_metrics(recorder.spans, 0, wall_s=5.0)
    assert metrics["uarch.self_s"] == 2.0
    assert metrics["pdn.self_s"] == 1.0
    assert metrics["uarch.runs"] == 1 and metrics["pdn.rows"] == 1
    assert metrics["trace.uncovered_s"] == 2.0  # 5 s of wall, 3 s spanned


def test_self_times_sum_to_the_outermost_span():
    chip, windows = _chip_and_windows()
    recorder = harness.Recorder()
    targets = [t for t in harness.LAYERS if t.layer in ("uarch", "pdn")]
    with harness.traced(recorder, targets):
        chip.run_batch([windows, windows], seeds=[0, 1])
    root = recorder.spans[0]
    assert [s.layer for s in recorder.spans] == ["uarch", "pdn"]
    assert recorder.spans[0].units == 2 and recorder.spans[1].units == 2
    assert abs(
        sum(harness.self_times(recorder.spans)) - (root.end - root.start)
    ) < 1e-12


def test_same_layer_call_joins_the_open_span():
    recorder = harness.Recorder(clock=_counting_clock())
    target = harness.Target("core.resilience", "unused:unused")

    def inner():
        return "done"

    def outer():
        return recorder.call(target, inner, (), {})

    assert recorder.call(target, outer, (), {}) == "done"
    assert len(recorder.spans) == 1
    assert recorder.spans[0].calls == 2 and recorder.spans[0].units == 2


def test_wrappers_replace_the_name_callers_resolve_and_are_restored():
    import repro.measurement.campaign as campaign
    import repro.measurement.droops as droops

    original = droops.detect_droops
    target = next(t for t in harness.LAYERS if t.path.endswith(":detect_droops"))
    with harness.traced(harness.Recorder(), [target]):
        assert campaign.detect_droops.__wrapped__ is original
        assert droops.detect_droops.__wrapped__ is original
    assert campaign.detect_droops is original
    assert droops.detect_droops is original


def test_missing_entry_point_has_no_sites():
    gone = harness.Target("uarch", "repro.uarch.chip:Chip.no_such_method")
    assert harness.sites(gone) == []
    assert harness.sites(harness.Target("x", "repro.uarch.chip:NoSuchClass.run")) == []


def _report(value, hits, elapsed):
    from repro import observability as obs
    from repro.experiments.common import ExperimentResult
    from repro.measurement.executor import ExecutorStats
    from repro.reporting import render_report

    result = ExperimentResult("Fig. 1", "swings", columns=("node", "swing"))
    result.add_row("45nm", value)
    stats = ExecutorStats()
    if hits:
        stats.cache.hits = 3
    else:
        stats.cache.misses = stats.cache.stores = stats.simulated = 3
    stats.wall_seconds = elapsed / 2
    with obs.capture() as session:
        obs.increment("repro_chip_cycles_total", elapsed * 1000)
        with obs.span("campaign.batch", runs=3):
            pass
    return render_report(
        {"fig01": result}, quick=True, elapsed_seconds=elapsed,
        execution_stats=stats, observability=session,
    )


def test_report_digest_ignores_cache_state_and_timing():
    cold = _report(1.235, hits=False, elapsed=17.4)
    warm = _report(1.235, hits=True, elapsed=9.1)
    assert cold != warm
    assert suite.report_digest(cold) == suite.report_digest(warm)
    normalized = suite.normalize_report(cold)
    assert "## Fig. 1" in normalized and "1.235" in normalized
    assert "Execution statistics" not in normalized
    assert "Observability" not in normalized
    assert " s." not in normalized.splitlines()[2]


def test_report_digest_changes_with_one_table_value():
    assert suite.report_digest(_report(1.235, False, 10.0)) != suite.report_digest(
        _report(1.236, False, 10.0)
    )


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(harness.METRICS)
    assert [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END_UNITS.items())
