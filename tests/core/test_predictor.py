"""Unit tests for emergency prediction and throttling."""

import numpy as np
import pytest

from repro.core.predictor import (
    EmergencyPredictor,
    GuidedThrottleOutcome,
    ThrottleParameters,
    VoltageGuidedThrottle,
)
from repro.errors import ConfigurationError
from repro.uarch.chip import Chip


def burst_activity(n=4000, low=0.2, high=0.8, drop_at=1000, rise_at=1400):
    activity = np.full(n, high)
    activity[drop_at:rise_at] = low
    return activity


class TestThrottleParameters:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThrottleParameters(arm_drop=0)
        with pytest.raises(ConfigurationError):
            ThrottleParameters(drop_window=0)
        with pytest.raises(ConfigurationError):
            ThrottleParameters(slew_per_cycle=0)
        with pytest.raises(ConfigurationError):
            ThrottleParameters(hold_cycles=0)


class TestEmergencyPredictor:
    def test_flat_activity_untouched(self):
        predictor = EmergencyPredictor()
        activity = np.full(1000, 0.7)
        outcome = predictor.throttle(activity)
        assert np.array_equal(outcome.activity, activity)
        assert outcome.deferred_work == 0.0  # simlint: disable=HYG001 (exact by construction)
        assert outcome.engaged_fraction == 0.0  # simlint: disable=HYG001 (exact by construction)

    def test_refill_edge_is_slew_limited(self):
        predictor = EmergencyPredictor(
            ThrottleParameters(
                arm_drop=0.3, drop_window=20,
                slew_per_cycle=0.01, hold_cycles=400,
            )
        )
        activity = burst_activity()
        outcome = predictor.throttle(activity)
        # The rise edge is capped at the slew rate...
        rise = np.diff(outcome.activity[1395:1500])
        assert rise.max() <= 0.01 + 1e-12
        # ...and the deferred work is accounted for.
        assert outcome.deferred_work > 0
        assert outcome.engaged.any()

    def test_never_exceeds_original(self):
        predictor = EmergencyPredictor()
        rng = np.random.default_rng(0)
        activity = np.clip(0.6 + np.cumsum(rng.normal(0, 0.05, 3000)), 0, 1.3)
        outcome = predictor.throttle(activity)
        assert np.all(outcome.activity <= activity + 1e-12)

    def test_disarms_after_ramp_completes(self):
        predictor = EmergencyPredictor(
            ThrottleParameters(
                arm_drop=0.3, drop_window=20,
                slew_per_cycle=0.05, hold_cycles=100_000,
            )
        )
        activity = burst_activity()
        outcome = predictor.throttle(activity)
        # Once the ramp reaches the pre-drop level the throttle lets go:
        # the tail of the trace is untouched.
        assert np.array_equal(outcome.activity[-500:], activity[-500:])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EmergencyPredictor().throttle(np.array([]))


class TestVoltageGuidedThrottle:
    @pytest.fixture(scope="class")
    def chip(self):
        return Chip("Proc3", with_ripple=False, slack_coupling=0.0)

    def test_passthrough_matches_chip_voltage_shape(self, chip):
        """With an unreachable arm margin the co-simulation must equal
        the vectorized Core -> PDN path bit for bit: the throttle's inline
        EMA and DF2T filter step are the campaign's ``lfilter`` and
        ``sosfilt``."""
        from repro.uarch.core import Core

        core = Core()
        activity = burst_activity(3000)
        other = np.full(3000, 5.0)
        throttle = VoltageGuidedThrottle(
            chip, arm_margin=0.5, slew_per_cycle=1.0, hold_cycles=1
        )
        outcome = throttle.run(activity, other)
        current = core.current_from_activity(activity) + other
        reference = chip.simulator.simulate(current, include_ripple=False)
        assert np.array_equal(outcome.voltage, reference.samples)

    def test_uses_the_chips_core_calibration(self):
        from repro.uarch.core import Core, CoreParameters

        parameters = CoreParameters(
            leakage_amps=4.0, dynamic_max_amps=12.0,
            fast_fraction=0.5, gating_tau_cycles=120.0,
        )
        chip = Chip(
            "Proc3", core_parameters=parameters,
            with_ripple=False, slack_coupling=0.0,
        )
        assert chip.core_parameters == parameters
        activity = burst_activity(3000)
        other = np.full(3000, 5.0)
        outcome = VoltageGuidedThrottle(
            chip, arm_margin=0.5, slew_per_cycle=1.0, hold_cycles=1
        ).run(activity, other)
        current = Core(parameters).current_from_activity(activity) + other
        reference = chip.simulator.simulate(current, include_ripple=False)
        assert np.array_equal(outcome.voltage, reference.samples)

    def test_throttle_reduces_worst_droop(self, chip):
        activity = burst_activity(6000, low=0.1, high=1.0,
                                  drop_at=2000, rise_at=3500)
        other = np.full(6000, 8.0)
        raw = VoltageGuidedThrottle(
            chip, arm_margin=0.5, slew_per_cycle=1.0, hold_cycles=1
        ).run(activity, other)
        guided = VoltageGuidedThrottle(
            chip, arm_margin=0.012, slew_per_cycle=0.002, hold_cycles=150
        ).run(activity, other)
        assert guided.voltage.min() > raw.voltage.min()
        assert guided.engaged_fraction > 0

    def test_throughput_loss_bounded(self, chip):
        activity = burst_activity(4000)
        other = np.full(4000, 6.0)
        outcome = VoltageGuidedThrottle(chip).run(activity, other)
        assert 0 <= outcome.throughput_loss_fraction(activity) < 0.5

    def test_validation(self, chip):
        with pytest.raises(ConfigurationError):
            VoltageGuidedThrottle(chip, arm_margin=0)
        with pytest.raises(ConfigurationError):
            VoltageGuidedThrottle(chip).run(
                np.zeros(10), np.zeros(20)
            )
