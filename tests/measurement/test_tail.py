"""Unit tests for the droop-depth tail model."""

import warnings

import numpy as np
import pytest

from repro.errors import CalibrationError, MeasurementError
from repro.measurement.droops import DroopStatistics
from repro.measurement.tail import DroopTailModel


def stats_from_depths(depths, n_cycles=1_000_000, threshold=0.01):
    depths = np.asarray(depths, dtype=float)
    return DroopStatistics(
        depths=depths,
        durations=np.full(depths.size, 10, dtype=int),
        n_cycles=n_cycles,
        threshold=threshold,
    )


class TestFitting:
    def test_recovers_exponential_scale(self):
        rng = np.random.default_rng(0)
        beta_true = 0.01
        depths = 0.012 + rng.exponential(beta_true, size=5000)
        model = DroopTailModel(stats_from_depths(depths))
        assert model.beta == pytest.approx(beta_true, rel=0.15)

    def test_empirical_region_used_when_well_sampled(self):
        rng = np.random.default_rng(1)
        depths = 0.012 + rng.exponential(0.01, size=5000)
        stats = stats_from_depths(depths)
        model = DroopTailModel(stats)
        margin = 0.02
        assert model.rate(margin) == pytest.approx(
            stats.event_rate(margin), rel=1e-9
        )

    def test_extrapolation_monotone_decreasing(self):
        rng = np.random.default_rng(2)
        depths = 0.012 + rng.exponential(0.008, size=2000)
        model = DroopTailModel(stats_from_depths(depths))
        margins = np.linspace(0.02, 0.13, 30)
        rates = model.rates(margins)
        assert np.all(np.diff(rates) <= 1e-15)
        assert rates[-1] < rates[0]

    def test_deep_margin_rate_is_tiny(self):
        rng = np.random.default_rng(3)
        depths = 0.012 + rng.exponential(0.004, size=1000)
        model = DroopTailModel(stats_from_depths(depths))
        assert model.rate(0.14) < model.rate(0.03) * 1e-3

    def test_few_events_fallback(self):
        model = DroopTailModel(stats_from_depths([0.03, 0.04]))
        # Still answers, steeply decaying.
        assert model.rate(0.05) < model.rate(0.03)

    def test_tied_depths_take_the_few_events_fallback(self):
        """No depth lies above the lower quartile when every depth ties;
        the model must fall back instead of fitting an empty tail."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = DroopTailModel(stats_from_depths([0.03] * 100))
            assert np.isfinite(model.beta) and model.beta > 0
            for margin in (0.02, 0.03, 0.05):
                rate = model.rate(margin)
                assert np.isfinite(rate) and rate > 0

    def test_no_events_fallback(self):
        model = DroopTailModel(stats_from_depths([]))
        assert model.rate(0.05) < 1e-6

    def test_validation(self):
        with pytest.raises(MeasurementError):
            DroopTailModel(stats_from_depths([0.03], n_cycles=0))
        model = DroopTailModel(stats_from_depths([0.03] * 100))
        with pytest.raises(CalibrationError):
            model.rate(0.0)
