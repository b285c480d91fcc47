"""Droop and overshoot excursion detection.

Two related quantities recur throughout the paper:

* **droops per 1K cycles** (Figs. 14-17) — how much of the time the supply
  sits below a characterization margin (2.3 % in Sec. IV-A, chosen so an
  idle machine never crosses it);
* **emergencies** (Sec. III-B) — distinct excursions below an *operating*
  margin, each of which triggers one hardware rollback/recovery in a
  resilient design.

:func:`detect_droops` extracts distinct excursions with their depths and
durations using hysteresis; the emergency rate at any margin ``m`` is then
the count of excursions whose depth exceeds ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError
from repro.pdn.simulate import VoltageTrace

#: The characterization margin of Sec. IV-A: all idle-machine activity
#: (VRM ripple) stays inside it.
CHARACTERIZATION_MARGIN = 0.023

#: Excursions are detected below this base threshold; depths are recorded
#: per excursion so rates at any deeper margin can be derived afterwards.
DETECTION_THRESHOLD = 0.010

#: Hysteresis: an excursion ends once the deviation recovers above this
#: fraction of the entry threshold (prevents ripple-rate double counting).
HYSTERESIS_RATIO = 0.6


@dataclass(frozen=True)
class DroopStatistics:
    """All excursions of one polarity found in a trace.

    ``depths`` holds each excursion's maximum deviation magnitude (a
    positive fraction of nominal voltage), ``durations`` the number of
    cycles each excursion spent beyond the hysteresis exit level.
    """

    depths: np.ndarray
    durations: np.ndarray
    n_cycles: int
    threshold: float

    @property
    def count(self) -> int:
        return int(self.depths.size)

    def events_deeper_than(self, margin: float) -> int:
        """Number of excursions exceeding ``margin`` (fraction of nominal)."""
        if margin < self.threshold:
            raise MeasurementError(
                f"margin {margin} is below the detection threshold "
                f"{self.threshold}; shallower events were never recorded"
            )
        return int(np.count_nonzero(self.depths > margin))

    def event_rate(self, margin: float) -> float:
        """Excursions deeper than ``margin`` per cycle."""
        return self.events_deeper_than(margin) / self.n_cycles

    def max_depth(self) -> float:
        return float(self.depths.max()) if self.count else 0.0


def _detect_excursions(
    magnitude: np.ndarray,
    n_cycles: int,
    threshold: float,
) -> DroopStatistics:
    """Hysteresis excursion detector over a positive-magnitude series.

    The exit level segments the trace into spans above it; a span whose
    peak exceeds ``threshold`` is one excursion, with that peak as its
    depth.  Its duration counts every cycle of the span, from the
    exit-level crossing on, not only those past ``threshold``.
    """
    exit_level = threshold * HYSTERESIS_RATIO
    above_exit = magnitude > exit_level
    # Segment boundaries where above_exit flips.
    flips = np.flatnonzero(np.diff(above_exit.astype(np.int8)))
    starts = np.concatenate([[0], flips + 1])
    ends = np.concatenate([flips + 1, [magnitude.size]])
    keep = above_exit[starts]
    seg_starts = starts[keep]
    seg_ends = ends[keep]
    depths = np.empty(0, dtype=float)
    durations = np.empty(0, dtype=int)
    if seg_starts.size:
        # Interleave [start, end) bounds and take each segment's peak
        # with one reduceat; the odd slots reduce the gaps between
        # excursions and are discarded.  A trailing end equal to the
        # trace length is dropped — reduceat's final segment already
        # runs to the end of the array.
        bounds = np.empty(2 * seg_starts.size, dtype=np.intp)
        bounds[0::2] = seg_starts
        bounds[1::2] = seg_ends
        if bounds[-1] == magnitude.size:
            bounds = bounds[:-1]
        peaks = np.maximum.reduceat(magnitude, bounds)[0::2]
        deep = peaks > threshold
        depths = peaks[deep].astype(float)
        durations = (seg_ends - seg_starts)[deep].astype(int)
    return DroopStatistics(
        depths=depths,
        durations=durations,
        n_cycles=n_cycles,
        threshold=threshold,
    )


def detect_droops(
    trace: VoltageTrace,
    threshold: float = DETECTION_THRESHOLD,
) -> DroopStatistics:
    """Distinct droop excursions (voltage below nominal) in a trace."""
    if threshold <= 0:
        raise MeasurementError("threshold must be positive")
    magnitude = np.maximum(0.0, -trace.deviations_fraction())
    return _detect_excursions(magnitude, len(trace), threshold)


def detect_overshoots(
    trace: VoltageTrace,
    threshold: float = DETECTION_THRESHOLD,
) -> DroopStatistics:
    """Distinct overshoot excursions (voltage above nominal) in a trace."""
    if threshold <= 0:
        raise MeasurementError("threshold must be positive")
    magnitude = np.maximum(0.0, trace.deviations_fraction())
    return _detect_excursions(magnitude, len(trace), threshold)


def droop_samples_per_1k(
    trace: VoltageTrace,
    margin: float = CHARACTERIZATION_MARGIN,
) -> float:
    """Samples below ``-margin`` per 1000 cycles — the Fig. 14-17 metric."""
    if margin <= 0:
        raise MeasurementError("margin must be positive")
    below = trace.deviations_fraction() < -margin
    return float(below.mean() * 1000.0)
