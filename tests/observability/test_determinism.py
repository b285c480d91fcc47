"""The determinism battery: telemetry content is jobs-invariant.

The contract: for the same starting cache state, every *deterministic*
metric section and the trace's span-tree structure are bit-identical
between a serial campaign and a ``--jobs N`` one — only durations and
the quarantined ``runtime`` section may differ.
"""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.measurement import MeasurementCampaign
from repro.measurement.executor import BATCH_CHUNK_RUNS
from repro.workloads.spec import SPEC_CPU2006

SUBSET = ("mcf", "lbm")
WINDOW_CYCLES = 4_000
SEED = 7


def run_sweep(jobs: int) -> obs.ObservabilitySession:
    """One cold (cache-less) mini-sweep under a fresh session."""
    with obs.capture() as session:
        campaign = MeasurementCampaign(
            "Proc3", n_cycles=WINDOW_CYCLES, seed=SEED, jobs=jobs
        )
        specs = [
            campaign.run_spec(name, kind="single") for name in SUBSET
        ] + [campaign.run_spec(*SUBSET, kind="multiprogram")]
        campaign.measure_specs(specs)
    return session


def deterministic_sections(session: obs.ObservabilitySession) -> dict:
    payload = session.metrics_payload()
    return {
        key: payload[key] for key in ("counters", "gauges", "histograms")
    }


@pytest.fixture(scope="module")
def serial_session():
    return run_sweep(jobs=1)


@pytest.fixture(scope="module")
def parallel_session():
    return run_sweep(jobs=2)


class TestMetricDeterminism:
    def test_counts_identical_serial_vs_parallel(
        self, serial_session, parallel_session
    ):
        assert deterministic_sections(serial_session) == (
            deterministic_sections(parallel_session)
        )

    def test_content_metrics_nonzero(self, serial_session):
        counters = serial_session.metrics_payload()["counters"]
        assert counters["repro_runs_total"] == len(SUBSET) + 1
        assert counters["repro_run_cycles_total"] == (
            (len(SUBSET) + 1) * WINDOW_CYCLES
        )
        assert counters["repro_chip_runs_total"] == len(SUBSET) + 1
        assert any(
            name.startswith("repro_droop_events_total") for name in counters
        )

    def test_runtime_section_reflects_execution_mode(
        self, serial_session, parallel_session
    ):
        serial_runtime = serial_session.metrics_payload()["runtime"]
        parallel_runtime = parallel_session.metrics_payload()["runtime"]
        assert serial_runtime.get("repro_parallel_batches_total", 0) == 0
        assert parallel_runtime["repro_parallel_batches_total"] >= 1
        assert any(
            name.startswith("repro_worker_runs_total")
            for name in parallel_runtime
        )


class TestTraceDeterminism:
    def test_span_structure_identical_serial_vs_parallel(
        self, serial_session, parallel_session
    ):
        assert serial_session.tracer.structure() == (
            parallel_session.tracer.structure()
        )

    def test_structure_stable_across_repeat_runs(self, serial_session):
        assert run_sweep(jobs=1).tracer.structure() == (
            serial_session.tracer.structure()
        )

    def test_worker_spans_marked_in_parallel_trace(
        self, serial_session, parallel_session
    ):
        serial_workers = sum(
            1 for span in serial_session.tracer.walk() if span.worker
        )
        parallel_workers = sum(
            1 for span in parallel_session.tracer.walk() if span.worker
        )
        assert serial_workers == 0
        assert parallel_workers > 0

    def test_trace_payload_span_count_consistent(self, parallel_session):
        payload = parallel_session.trace_payload()
        def count(node):
            return 1 + sum(count(c) for c in node.get("children", ()))
        assert payload["span_count"] == sum(
            count(root) for root in payload["roots"]
        )


def chunk_trace(jobs: int) -> obs.ObservabilitySession:
    """A cold campaign one run longer than a chunk, under a session."""
    with obs.capture() as session:
        campaign = MeasurementCampaign(
            "Proc3", n_cycles=2_000, seed=SEED, jobs=jobs
        )
        names = sorted(SPEC_CPU2006)[:BATCH_CHUNK_RUNS + 1]
        campaign.measure_specs([campaign.run_spec(n) for n in names])
    return session


class TestChunkTrace:
    """One ``run.simulate`` span per chunk, on every route."""

    def test_one_run_simulate_span_per_chunk(self):
        serial, pooled = chunk_trace(jobs=1), chunk_trace(jobs=2)
        solve = ("run.simulate", (("chip.run", (("pdn.simulate", ()),)),))
        assert serial.tracer.structure() == (
            ("campaign.batch", (solve, solve)),
        )
        assert pooled.tracer.structure() == serial.tracer.structure()
        for session in (serial, pooled):
            runs = [
                span.metadata["runs"] for span in session.tracer.walk()
                if span.name == "run.simulate"
            ]
            assert runs == [BATCH_CHUNK_RUNS, 1]


class TestZeroOverheadDisabled:
    def test_no_span_objects_allocated_while_disabled(self, monkeypatch):
        """The off path may not allocate spans or read the span clock."""
        from repro.observability import spans as spans_module

        def forbidden(*args: object, **kwargs: object) -> None:
            raise AssertionError(
                "observability allocated while disabled"
            )

        monkeypatch.setattr(spans_module.SpanRecord, "__init__", forbidden)
        monkeypatch.setattr(spans_module.ActiveSpan, "__init__", forbidden)
        assert not obs.enabled()
        campaign = MeasurementCampaign(
            "Proc3", n_cycles=2_000, seed=0, jobs=1
        )
        measurement = campaign.measure("mcf")
        assert measurement.n_cycles == 2_000

    def test_disabled_span_is_shared_instance(self):
        assert obs.span("a") is obs.span("b")
