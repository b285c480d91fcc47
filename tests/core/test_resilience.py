"""Unit tests for the typical-case design performance model."""

import numpy as np
import pytest

from repro.core.resilience import (
    RECOVERY_COSTS,
    ResilienceParameters,
    ResilientDesignModel,
    performance_improvement,
)
from repro.errors import ConfigurationError
from repro.measurement.droops import DroopStatistics
from repro.measurement.tail import DroopTailModel


def tail(beta=0.01, n_events=2000, n_cycles=2_000_000, seed=0):
    rng = np.random.default_rng(seed)
    depths = 0.012 + rng.exponential(beta, size=n_events)
    stats = DroopStatistics(
        depths=depths,
        durations=np.full(n_events, 10, dtype=int),
        n_cycles=n_cycles,
        threshold=0.01,
    )
    return DroopTailModel(stats)


class TestParameters:
    def test_frequency_gain_matches_bowman(self):
        params = ResilienceParameters()
        # Removing a 10% margin buys 15% frequency.
        assert params.frequency_gain(0.04) == pytest.approx(1.15)
        assert params.frequency_gain(params.worst_case_margin) == 1.0  # simlint: disable=HYG001 (exact by construction)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceParameters(worst_case_margin=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceParameters(frequency_gain_per_margin=0)
        with pytest.raises(ConfigurationError):
            ResilienceParameters(min_margin=0.2)
        with pytest.raises(ConfigurationError):
            ResilienceParameters().frequency_gain(0.5)


class TestPerformanceImprovement:
    def test_no_emergencies_pure_frequency_gain(self):
        improvement = performance_improvement(0.04, 1000, 0.0)
        assert improvement == pytest.approx(0.15)

    def test_recovery_overhead_reduces_gain(self):
        clean = performance_improvement(0.04, 1000, 0.0)
        noisy = performance_improvement(0.04, 1000, 1e-4)
        assert noisy < clean

    def test_dead_zone_possible(self):
        """Expensive frequent recoveries push below the baseline."""
        improvement = performance_improvement(0.02, 100_000, 1e-4)
        assert improvement < 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            performance_improvement(0.04, -1, 0.0)
        with pytest.raises(ConfigurationError):
            performance_improvement(0.04, 10, -1.0)
        with pytest.raises(ConfigurationError):
            performance_improvement(0.04, 10, np.array([1e-4, -1.0]))

    def test_rate_vector_matches_scalar_calls(self):
        rates = np.array([0.0, 1e-7, 1e-5, 3e-4, 2e-3])
        vector = performance_improvement(0.05, 1000, rates)
        assert isinstance(vector, np.ndarray)
        assert vector.tolist() == [
            performance_improvement(0.05, 1000, float(r)) for r in rates
        ]
        assert isinstance(performance_improvement(0.05, 1000, 1e-4), float)


class TestResilientDesignModel:
    def test_needs_tails(self):
        with pytest.raises(ConfigurationError):
            ResilientDesignModel([])

    def test_single_peak_per_cost(self):
        model = ResilientDesignModel([tail(seed=i) for i in range(5)])
        for cost in (10, 1000, 100_000):
            _, improvements = model.margin_sweep(cost)
            peak = int(np.argmax(improvements))
            # Unimodal: increasing before the peak, decreasing after
            # (allow tiny numerical wiggles).
            before = improvements[: peak + 1]
            after = improvements[peak:]
            assert np.all(np.diff(before) >= -1e-4)
            assert np.all(np.diff(after) <= 1e-4)

    def test_optimal_margin_grows_with_cost(self):
        model = ResilientDesignModel([tail(seed=i) for i in range(5)])
        optima = [model.optimal_margin(c).margin for c in RECOVERY_COSTS]
        assert all(a <= b + 1e-9 for a, b in zip(optima, optima[1:]))

    def test_peak_improvement_falls_with_cost(self):
        model = ResilientDesignModel([tail(seed=i) for i in range(5)])
        peaks = [model.optimal_margin(c).improvement for c in RECOVERY_COSTS]
        assert all(a >= b - 1e-9 for a, b in zip(peaks, peaks[1:]))

    def test_heatmap_shape(self):
        model = ResilientDesignModel([tail()])
        margins, costs, grid = model.heatmap((1, 100))
        assert grid.shape == (2, margins.size)
        assert costs.shape == (2,)

    def test_heavier_tails_lower_improvement(self):
        light = ResilientDesignModel([tail(beta=0.004)])
        heavy = ResilientDesignModel([tail(beta=0.02)])
        assert (
            heavy.mean_improvement(0.05, 10_000)
            < light.mean_improvement(0.05, 10_000)
        )

    def test_per_run_optimal_margins_within_grid(self):
        model = ResilientDesignModel([tail(seed=i) for i in range(4)])
        optima = model.per_run_optimal_margins(1000)
        params = model.parameters
        assert optima.shape == (4,)
        assert np.all(optima >= params.min_margin)
        assert np.all(optima <= params.worst_case_margin)

    def test_one_design_fits_all_gap_small(self):
        """The paper: per-benchmark margins buy almost nothing over a
        single static optimal margin."""
        model = ResilientDesignModel([tail(seed=i) for i in range(6)])
        for cost in (10, 10_000):
            gap = model.one_design_fits_all_gap(cost)
            assert 0 <= gap < 0.02

    def test_passing_runs(self):
        model = ResilientDesignModel(
            [tail(beta=0.004, seed=1), tail(beta=0.03, seed=2)]
        )
        passing = model.passing_runs(
            recovery_cost=10_000,
            margin=0.05,
            expected_improvement=model.mean_improvement(0.05, 10_000),
        )
        # The light-tailed run passes the mean bar; the heavy one fails.
        assert passing == [0]


class TestPerRunVectorReference:
    """Every model method equals the scalar per-run loop it replaced,
    bit for bit (same margin, same rate, same arithmetic)."""

    @pytest.fixture(scope="class")
    def tails(self):
        return [tail(beta=0.003 + 0.004 * i, seed=i) for i in range(5)]

    @staticmethod
    def reference(tail_model, margin, cost):
        return performance_improvement(margin, cost, tail_model.rate(margin))

    def test_means_and_run_improvements(self, tails):
        model = ResilientDesignModel(tails)
        for margin in model.margin_grid(12):
            margin = float(margin)
            assert model.mean_emergency_rate(margin) == float(
                np.mean([t.rate(margin) for t in tails])
            )
            for cost in RECOVERY_COSTS:
                expected = [self.reference(t, margin, cost) for t in tails]
                assert model.mean_improvement(margin, cost) == float(
                    np.mean(expected)
                )
                assert [
                    model.run_improvement(i, margin, cost)
                    for i in range(len(tails))
                ] == expected

    def test_per_run_optima_gap_and_passing(self, tails):
        model = ResilientDesignModel(tails)
        margins = model.margin_grid()
        for cost in (10, 1000, 100_000):
            optima = [
                float(margins[int(np.argmax([
                    self.reference(t, float(m), cost) for m in margins
                ]))])
                for t in tails
            ]
            assert model.per_run_optimal_margins(cost).tolist() == optima
            individual = float(np.mean([
                self.reference(t, m, cost) for m, t in zip(optima, tails)
            ]))
            assert model.one_design_fits_all_gap(cost) == (
                individual - model.optimal_margin(cost).improvement
            )
            expected = model.mean_improvement(0.06, cost)
            assert model.passing_runs(cost, 0.06, expected, 0.001) == [
                i for i, t in enumerate(tails)
                if self.reference(t, 0.06, cost) >= expected - 0.001
            ]
