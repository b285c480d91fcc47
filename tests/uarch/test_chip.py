"""Unit tests for the dual-core chip."""

import numpy as np
import pytest

from repro import observability as obs
from repro.errors import ConfigurationError, SimulationError
from repro.uarch.chip import Chip
from repro.uarch.window import ExecutionWindow
from repro.workloads.microbenchmarks import IdleLoop
from repro.workloads.spec import spec_benchmark

N = 20000


@pytest.fixture(scope="module")
def chip():
    return Chip("Proc100", with_ripple=False)


def idle_window(n=N, seed=0):
    return IdleLoop().sample_window(n, rng=seed)


class TestConstruction:
    def test_defaults(self, chip):
        assert chip.n_cores == 2
        assert chip.config_name == "Proc100"
        assert chip.nominal_voltage == pytest.approx(1.30)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Chip(n_cores=0)
        with pytest.raises(ConfigurationError):
            Chip(uncore_amps=-1)


class TestRun:
    def test_result_shapes(self, chip):
        run = chip.run([idle_window(seed=1), idle_window(seed=2)])
        assert run.n_cycles == N
        assert len(run.cores) == 2
        assert len(run.voltage) == N
        assert run.total_current_amps.shape == (N,)

    def test_missing_windows_idle_the_core(self, chip):
        run = chip.run([spec_benchmark("mcf").sample_window(N, rng=3)])
        assert run.cores[1].label == "(idle)"
        # The idle core draws much less than the busy one.
        assert run.cores[1].current_amps.mean() < run.cores[0].current_amps.mean()

    def test_total_current_is_sum_plus_uncore(self, chip):
        run = chip.run([idle_window(seed=1), idle_window(seed=2)])
        reconstructed = (
            run.cores[0].current_amps + run.cores[1].current_amps + 2.0
        )
        assert np.allclose(run.total_current_amps, reconstructed)

    def test_two_active_cores_draw_more_and_swing_more(self, chip):
        mcf = spec_benchmark("mcf")
        single = chip.run([mcf.sample_window(N, rng=1), idle_window(seed=9)])
        dual = chip.run(
            [mcf.sample_window(N, rng=1), mcf.sample_window(N, rng=2)]
        )
        assert dual.total_current_amps.mean() > single.total_current_amps.mean()
        assert (
            dual.voltage.peak_to_peak_fraction()
            > 0.9 * single.voltage.peak_to_peak_fraction()
        )

    def test_rejects_mismatched_lengths(self, chip):
        with pytest.raises(SimulationError):
            chip.run([idle_window(n=100), idle_window(n=200)])

    def test_rejects_too_many_windows(self, chip):
        with pytest.raises(SimulationError):
            chip.run([idle_window(), idle_window(), idle_window()])

    def test_rejects_all_none(self, chip):
        with pytest.raises(SimulationError):
            chip.run([None, None])

    def test_aggregate_counters(self, chip):
        run = chip.run(
            [spec_benchmark("mcf").sample_window(N, rng=1), idle_window(seed=2)]
        )
        total = run.aggregate_counters()
        assert total.cycles == 2 * N
        assert total.instructions == pytest.approx(
            run.counters(0).instructions + run.counters(1).instructions
        )

    def test_deterministic_given_seed(self):
        chip = Chip("Proc100", with_ripple=True)
        mcf = spec_benchmark("mcf")
        a = chip.run([mcf.sample_window(N, rng=5), idle_window(seed=6)], seed=7)
        b = chip.run([mcf.sample_window(N, rng=5), idle_window(seed=6)], seed=7)
        assert np.array_equal(a.voltage.samples, b.voltage.samples)

    def test_depleted_config_swings_more(self):
        mcf = spec_benchmark("mcf")
        w0, w1 = mcf.sample_window(N, rng=1), mcf.sample_window(N, rng=2)
        stock = Chip("Proc100", with_ripple=False).run([w0, w1])
        depleted = Chip("Proc3", with_ripple=False).run([w0, w1])
        assert (
            depleted.voltage.peak_to_peak_fraction()
            > stock.voltage.peak_to_peak_fraction()
        )


class TestRunBatch:
    def test_rejects_empty_batch(self, chip):
        with pytest.raises(SimulationError):
            chip.run_batch([])

    def test_batch_is_one_traced_solve(self, chip):
        groups = [
            [idle_window(n=2000, seed=1), idle_window(n=2000, seed=2)],
            [idle_window(n=2000, seed=3)],
        ]
        with obs.capture() as session:
            chip.run_batch(groups)
        assert session.tracer.structure() == (
            ("chip.run", (("pdn.simulate", ()),)),
        )
