"""Droop-depth tail modelling for emergency-rate extrapolation.

A finite simulated window cannot empirically resolve emergency rates of
10^-8 per cycle, but the resilient-design sweeps (Figs. 8 and 10) need
rates at deep margins where events are that rare.  Droop depths beyond the
bulk of the distribution are governed by coincidences of independent noise
sources (ripple trough x burst edge x refill surge), which yields an
approximately exponential depth tail — so we fit

    rate(depth > m) = A * exp(-m / beta)

to the empirically counted excursions and extrapolate beyond them.  Inside
the well-sampled region the empirical rate is used directly; the fit takes
over only where sampling noise would dominate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError, MeasurementError
from repro.measurement.droops import DroopStatistics

#: Minimum events required above a margin before the empirical count is
#: trusted over the fitted tail.
MIN_EMPIRICAL_EVENTS = 20

#: Minimum excursions required to fit a tail at all.
MIN_FIT_EVENTS = 10


class DroopTailModel:
    """Empirical + fitted-exponential model of droop-event rates.

    Parameters
    ----------
    statistics:
        Excursion statistics from :func:`repro.measurement.droops.detect_droops`.
    """

    def __init__(self, statistics: DroopStatistics) -> None:
        if statistics.n_cycles <= 0:
            raise MeasurementError("statistics cover zero cycles")
        self._stats = statistics
        self._amplitude, self._beta = self._fit()

    @property
    def statistics(self) -> DroopStatistics:
        return self._stats

    @property
    def beta(self) -> float:
        """Exponential tail scale (fraction of nominal per e-fold)."""
        return self._beta

    def _fit(self) -> tuple[float, float]:
        depths = self._stats.depths
        if depths.size < MIN_FIT_EVENTS:
            return self._few_events_fit()
        # Fit on the upper half of observed depths (the tail region) by the
        # maximum-likelihood estimator for a shifted exponential.
        pivot = float(np.quantile(depths, 0.5))
        tail = depths[depths > pivot]
        if tail.size < MIN_FIT_EVENTS:
            pivot = float(np.quantile(depths, 0.25))
            tail = depths[depths > pivot]
        if tail.size == 0:
            # Every depth ties at or below the lower quartile (one value
            # repeated): there is no tail to fit.
            return self._few_events_fit()
        beta = float(np.mean(tail - pivot))
        beta = max(beta, 1e-5)
        rate_at_pivot = tail.size / self._stats.n_cycles
        amplitude = rate_at_pivot * np.exp(pivot / beta)
        return amplitude, beta

    def _few_events_fit(self) -> tuple[float, float]:
        """Too few excursions to characterize a tail: treat the deepest
        observation as an upper bound with a steep synthetic tail."""
        count = self._stats.depths.size
        fallback_beta = 0.002
        amplitude = count / self._stats.n_cycles if count else 1e-12
        return amplitude, fallback_beta

    def rate(self, margin: float) -> float:
        """Emergency rate (events per cycle) at an operating margin.

        Uses the empirical count where at least ``MIN_EMPIRICAL_EVENTS``
        excursions exceed the margin; otherwise the fitted tail.
        """
        if margin <= 0:
            raise CalibrationError("margin must be positive")
        if margin >= self._stats.threshold:
            empirical_events = self._stats.events_deeper_than(margin)
            if empirical_events >= MIN_EMPIRICAL_EVENTS:
                return empirical_events / self._stats.n_cycles
        extrapolated = self._amplitude * np.exp(-margin / self._beta)
        # Never report more events than actually observed at margins we
        # could count (monotonicity guard for the crossover point).
        if margin >= self._stats.threshold:
            empirical = self._stats.event_rate(margin)
            ceiling = max(empirical, MIN_EMPIRICAL_EVENTS / self._stats.n_cycles)
            return float(min(extrapolated, ceiling))
        return float(extrapolated)

    def rates(self, margins: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate`."""
        return np.array([self.rate(float(m)) for m in np.asarray(margins)])
