"""N-run batches vs batches of one: bit-identity battery.

Each simulation layer has one solve —
:meth:`TransientSimulator.simulate_batch`, :meth:`Chip.run_batch` and
:meth:`MeasurementCampaign.simulate_batch` — and its single-run entry
point (``simulate``/``run``) is that solve on a batch of one.  The
executor solves every cache miss in a chunk through the batch entry
points, in process or in a pool worker.  The shared contract is
*bit-identity*: stacking N runs into one filtered batch must produce
exactly the floats the N batches of one produce, for any input, so no
row leaks into another.  These tests pin that contract at every layer,
including the property that a stacked ``sosfilt`` equals N one-row
solves, and the jobs-invariance of the executor seam (in process ==
process pool, traced or not, clean or under injected faults).
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.faults import FaultInjector
from repro.measurement.campaign import MeasurementCampaign
from repro.measurement.executor import BATCH_CHUNK_RUNS
from repro.measurement.record import diff_measurements
from repro.pdn.platform import build_simulator
from repro.uarch.chip import Chip
from repro.workloads.spec import SPEC_CPU2006


def _mixed_specs(campaign):
    """All three run kinds on a quad-core chip, 16 runs."""
    singles = [
        campaign.run_spec(name, kind="single")
        for name in ("mcf", "lbm", "milc", "sjeng")
    ]
    groups = [
        campaign.run_spec(*group, kind="multiprogram")
        for group in (
            ("mcf", "lbm", "namd", "povray"),
            ("gcc", "bzip2", "milc", "sjeng"),
            ("mcf", "milc", "lbm", "gcc"),
            ("namd", "povray", "sjeng", "bzip2"),
        )
    ]
    specrate = [
        campaign.run_spec(name, name, name, name, kind="multiprogram")
        for name in ("mcf", "lbm", "namd", "povray")
    ]
    threaded = [
        campaign.run_spec(name, kind="multithread")
        for name in ("canneal", "dedup", "ferret", "x264")
    ]
    return singles + groups + specrate + threaded


def _assert_identical(runs_a, runs_b):
    assert len(runs_a) == len(runs_b)
    for a, b in zip(runs_a, runs_b):
        diffs = diff_measurements(a, b)
        assert not diffs, (
            f"{a.spec.label}: measurements differ:\n  " + "\n  ".join(diffs)
        )


def _random_currents(seed: int, n_traces: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = rng.normal(0, 0.3, (n_traces, n))
    return np.clip(10.0 + np.cumsum(steps, axis=-1), 1.0, 40.0)


class TestStackedSosfiltProperty:
    """Stacked PDN solve == N separate solves, for any stimulus."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_traces=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_rows_bit_identical(self, seed, n_traces):
        simulator = build_simulator("Proc100", with_ripple=False)
        currents = _random_currents(seed, n_traces, 2000)
        batched = simulator.simulate_batch(currents)
        for row, trace in enumerate(batched):
            single = simulator.simulate(currents[row])
            assert np.array_equal(trace.samples, single.samples), (
                f"row {row} of {n_traces} diverged from the separate solve"
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_batch_rows_bit_identical_with_ripple(self, seed):
        simulator = build_simulator("Proc25", with_ripple=True)
        currents = _random_currents(seed, 3, 2000)
        seeds = [seed * 3 + row for row in range(3)]
        batched = simulator.simulate_batch(currents, seeds=seeds)
        for row, trace in enumerate(batched):
            single = simulator.simulate(currents[row], seed=seeds[row])
            assert np.array_equal(trace.samples, single.samples)


class TestChipRunBatch:
    def test_run_batch_matches_run(self):
        chip_a = Chip("Proc100", n_cores=2)
        chip_b = Chip("Proc100", n_cores=2)
        names = ["mcf", "lbm", "namd", "povray"]
        groups = []
        for index, name in enumerate(names):
            rng = np.random.default_rng(index)
            windows = [
                SPEC_CPU2006[name].sample_window(4000, rng=rng),
                SPEC_CPU2006[names[-1 - index]].sample_window(4000, rng=rng),
            ]
            groups.append(windows)
        serial = [
            chip_a.run(windows, seed=1000 + i)
            for i, windows in enumerate(groups)
        ]
        batched = chip_b.run_batch(
            groups, seeds=[1000 + i for i in range(len(groups))]
        )
        for a, b in zip(serial, batched):
            assert np.array_equal(a.voltage.samples, b.voltage.samples)
            assert np.array_equal(
                a.total_current_amps, b.total_current_amps
            )
            assert tuple(e.counters for e in a.cores) == tuple(
                e.counters for e in b.cores
            )


class TestCampaignSimulateBatch:
    def test_batch_matches_per_run_simulate(self):
        serial = MeasurementCampaign(
            "Proc100", n_cycles=4000, seed=7, jobs=1, n_cores=4
        )
        batched = MeasurementCampaign(
            "Proc100", n_cycles=4000, seed=7, jobs=1, n_cores=4
        )
        specs = _mixed_specs(serial)
        _assert_identical(
            [serial.simulate(spec) for spec in specs],
            batched.simulate_batch(specs),
        )


class TestJobsInvariance:
    """The executor seam: batched serial == process-pool fan-out."""

    def test_batched_serial_matches_jobs_2(self):
        serial = MeasurementCampaign(
            "Proc100", n_cycles=2000, seed=3, jobs=1, n_cores=4
        )
        pooled = MeasurementCampaign(
            "Proc100", n_cycles=2000, seed=3, jobs=2, n_cores=4
        )
        specs_a = _mixed_specs(serial)
        specs_b = _mixed_specs(pooled)
        _assert_identical(
            serial.measure_specs(specs_a), pooled.measure_specs(specs_b)
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("plan", [None, "default"], ids=["clean", "chaos"])
    def test_chunk_boundary_is_invisible(self, jobs, traced, plan):
        # More specs than one BATCH_CHUNK_RUNS chunk: every route (in
        # process or pooled, traced or not, clean or under the default
        # chaos plan) must agree with fresh per-run simulation across
        # the chunk seams.
        names = ("mcf", "lbm", "namd", "povray", "milc")
        injector = FaultInjector(plan) if plan is not None else None
        chunked = MeasurementCampaign(
            "Proc3", n_cycles=2000, seed=11, jobs=jobs, injector=injector
        )
        reference = MeasurementCampaign(
            "Proc3", n_cycles=2000, seed=11, jobs=1
        )
        specs = [
            chunked.run_spec(a, b, kind="multiprogram")
            for a in names
            for b in names
        ]
        assert len(specs) > BATCH_CHUNK_RUNS
        with obs.capture() if traced else nullcontext():
            measured = chunked.measure_specs(specs)
        _assert_identical(
            measured, [reference.simulate(spec) for spec in specs]
        )
