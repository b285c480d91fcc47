"""Smoke + structure tests for every experiment harness (quick mode).

The benchmarks assert the paper's quantitative shape; these tests assert
the harness *contract*: each module runs in quick mode, returns a
populated :class:`ExperimentResult` with the documented series keys, and
formats cleanly.  Campaigns are shared through the experiments' own
context cache, so the whole file stays fast.

The experiments named in ``golden/regenerate.py`` are also compared
exactly against their JSON fixtures in ``golden/``.
"""

import importlib
import importlib.util
import json
import pathlib

import pytest

from repro.experiments.common import ExperimentResult

MODULES = {
    "fig01_scaling_trends": ("Fig. 1", {"swings"}),
    "fig02_margin_frequency": ("Fig. 2", {"margins", "curves"}),
    "fig04_impedance": ("Fig. 4", {"stock", "depleted", "resonance_hz",
                                   "ratio_1mhz"}),
    "fig05_reset_droops": ("Fig. 5(m-r)", {"traces"}),
    "fig06_decap_swings": ("Fig. 6", {"relative_swings"}),
    "fig07_typical_case_cdf": ("Fig. 7", {"cdf_deviations", "cdf_cumulative",
                                          "histogram", "max_droop",
                                          "beyond_typical"}),
    "fig08_margin_sweep": ("Fig. 8", {"sweeps", "model"}),
    "fig09_future_cdf": ("Fig. 9", {"beyond_typical"}),
    "fig10_heatmaps": ("Fig. 10", {"heatmaps"}),
    "fig11_tlb_trace": ("Fig. 11", {"trace", "idle_trace", "overshoots"}),
    "fig12_event_swings": ("Fig. 12", {"swings"}),
    "fig13_event_interference": ("Fig. 13", {"matrix", "events",
                                             "single_core", "max_pair"}),
    "fig14_noise_phases": ("Fig. 14", {"timelines"}),
    "fig15_stall_correlation": ("Fig. 15", {"correlation", "pearson_r"}),
    "fig16_sliding_window": ("Fig. 16", {"experiment", "max_amplification",
                                         "min_amplification"}),
    "fig17_droop_variance": ("Fig. 17", {"single", "specrate", "boxes"}),
    "tab1_specrate_pass": ("Tab. I", {"optima", "passing_by_cost"}),
    "fig18_policy_scatter": ("Fig. 18", {"points", "random_points",
                                         "random_mean"}),
    "fig19_pass_increase": ("Fig. 19", {"passing", "recovery_costs"}),
    "ext_throttle": ("Ext. C", {"raw_events", "open_events", "closed_events",
                                "open_loss", "closed_loss"}),
}

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _load_regenerator():
    path = GOLDEN_DIR / "regenerate.py"
    spec = importlib.util.spec_from_file_location("experiment_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = _load_regenerator()


@pytest.fixture(scope="module")
def results():
    """Run every harness once (quick mode) and cache the outcomes."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        out[name] = module.run(quick=True)
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_experiment_contract(results, name):
    expected_id, expected_series = MODULES[name]
    result = results[name]
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == expected_id
    assert result.rows, f"{name} produced no rows"
    assert expected_series <= set(result.series), (
        f"{name} missing series: {expected_series - set(result.series)}"
    )
    assert result.notes, f"{name} should carry paper-vs-measured notes"
    # The table renders and mentions the experiment id.
    text = result.format_table()
    assert expected_id in text


@pytest.mark.parametrize("name", sorted(MODULES))
def test_experiment_rows_match_columns(results, name):
    result = results[name]
    if result.columns:
        for row in result.rows:
            assert len(row) == len(result.columns)


def test_every_paper_figure_has_a_harness():
    """The evaluation section's full figure/table list is covered."""
    covered = {MODULES[m][0] for m in MODULES}
    required = {
        "Fig. 1", "Fig. 2", "Fig. 4", "Fig. 5(m-r)", "Fig. 6", "Fig. 7",
        "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
        "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17", "Tab. I", "Fig. 18",
        "Fig. 19",
    }
    assert required <= covered


@pytest.mark.parametrize("name", sorted(GOLDEN.GOLDEN_SERIES))
def test_experiment_matches_golden(results, name):
    """Exact pin: the table and every float of the pinned series, to the
    last bit.  If a change is intentional, regenerate with
    ``PYTHONPATH=src python tests/experiments/golden/regenerate.py``."""
    path = GOLDEN_DIR / f"{name}.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    measured = GOLDEN.snapshot(name, results[name])
    assert measured["table"] == expected["table"]
    for key, values in expected["series"].items():
        assert measured["series"][key] == values, (
            f"{name} series {key!r} drifted from {path.name}"
        )
