"""A single core: execution window in, activity/current/counters out.

The current model is a two-time-constant refinement of the standard
activity-proportional decomposition:

    I_core(t) = I_leak + I_dyn * (w_fast * a(t) + (1 - w_fast) * ema(a)(t))

Unit-level clock gating reacts within a cycle but only covers part of the
dynamic power (``w_fast``); the remainder — domain gating, cache banks,
thermal-throttle-scale effects — follows activity through a slower
exponential moving average.  Single-cycle pipeline flushes therefore move a
few amps (small, sharp die-resonance kicks — the microbenchmark swings of
Fig. 12), while sustained stalls and program phase changes eventually swing
the full dynamic budget (the larger package-band droops that full
benchmarks exhibit in Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import signal

from repro.errors import ConfigurationError
from repro.uarch.activity import synthesize_activity
from repro.uarch.counters import (
    STALL_ACTIVITY_THRESHOLD,
    PerformanceCounters,
)
from repro.uarch.events import EventTrace, StallEvent
from repro.uarch.window import ExecutionWindow


@dataclass(frozen=True)
class CoreParameters:
    """Electrical parameters of one core.

    Calibrated so that two fully active cores plus uncore approach the
    chip's ~44 A ceiling while an idling machine draws single-digit amps
    (65 W-class TDP at 1.3 V).
    """

    leakage_amps: float = 2.2
    dynamic_max_amps: float = 18.0
    #: Fraction of dynamic current gated within a cycle (unit-level gating).
    fast_fraction: float = 0.32
    #: Time constant (cycles) of the slow gating component.
    gating_tau_cycles: float = 250.0

    def __post_init__(self) -> None:
        if self.leakage_amps < 0:
            raise ConfigurationError("leakage_amps must be non-negative")
        if self.dynamic_max_amps <= 0:
            raise ConfigurationError("dynamic_max_amps must be positive")
        if not 0 < self.fast_fraction <= 1:
            raise ConfigurationError("fast_fraction must be in (0, 1]")
        if self.gating_tau_cycles <= 0:
            raise ConfigurationError("gating_tau_cycles must be positive")


@dataclass(frozen=True)
class CoreExecution:
    """The realized execution of one window on one core."""

    activity: np.ndarray
    current_amps: np.ndarray
    counters: PerformanceCounters
    label: str = ""

    @property
    def n_cycles(self) -> int:
        return int(self.activity.size)


class Core:
    """Executes :class:`~repro.uarch.window.ExecutionWindow` objects.

    Parameters
    ----------
    parameters:
        Electrical calibration of this core.
    core_id:
        Identifier used in reports.
    """

    def __init__(
        self,
        parameters: CoreParameters | None = None,
        core_id: int = 0,
    ) -> None:
        self._parameters = parameters or CoreParameters()
        self._core_id = int(core_id)
        self._ema_zi_unit: Optional[np.ndarray] = None

    @property
    def parameters(self) -> CoreParameters:
        return self._parameters

    @property
    def core_id(self) -> int:
        return self._core_id

    def realize_activity(self, window: ExecutionWindow) -> np.ndarray:
        """Per-cycle activity with event envelopes applied (no current)."""
        return synthesize_activity(window.baseline_activity, window.events)

    def current_from_activity(self, activity: np.ndarray) -> np.ndarray:
        """Two-time-constant gating: activity series → current series.

        Accepts a 1-D series or a 2-D batch of series (one per row, the
        cycle axis last); a batch runs the slow-gating EMA as a single
        ``lfilter`` call over all rows, bit-identical per row to the
        1-D path.
        """
        params = self._parameters
        if params.fast_fraction >= 1.0:
            effective = activity
        else:
            # Exponential moving average: x[t] = (1-a) x[t-1] + a u[t],
            # initialized at the window's first activity value.  The
            # initial condition is linear in that value, so one unit
            # ``lfiltic`` scaled per row seeds the whole batch.
            alpha = 1.0 - np.exp(-1.0 / params.gating_tau_cycles)
            if self._ema_zi_unit is None:
                self._ema_zi_unit = signal.lfiltic(
                    [alpha], [1.0, -(1.0 - alpha)], [1.0]
                )
            zi = self._ema_zi_unit * activity[..., :1]
            slow, _ = signal.lfilter(
                [alpha], [1.0, -(1.0 - alpha)], activity, axis=-1, zi=zi
            )
            effective = (
                params.fast_fraction * activity
                + (1.0 - params.fast_fraction) * slow
            )
        return params.leakage_amps + params.dynamic_max_amps * effective

    def finalize_batch(
        self,
        windows: Sequence[ExecutionWindow],
        activities: np.ndarray,
        currents: Optional[np.ndarray] = None,
    ) -> List[CoreExecution]:
        """Build one execution record per row of an activity matrix.

        The chip may adjust realized activity for shared-resource
        coupling before currents and counters are derived.  One batched
        EMA filter derives every row's current at once (unless
        precomputed ``currents`` rows are supplied); counters are exact
        integer/sum reductions per row, so each row equals a batch of
        one.
        """
        activities = np.asarray(activities, dtype=float)
        if currents is None:
            currents = self.current_from_activity(activities)
        return [
            CoreExecution(
                activity=activities[i],
                current_amps=currents[i],
                counters=self._count(windows[i], activities[i]),
                label=windows[i].label,
            )
            for i in range(len(windows))
        ]

    def execute(self, window: ExecutionWindow) -> CoreExecution:
        """Realize a window in isolation (no cross-core coupling)."""
        activity = self.realize_activity(window)
        return self.finalize_batch([window], activity[None, :])[0]

    def _count(
        self, window: ExecutionWindow, activity: np.ndarray
    ) -> PerformanceCounters:
        """Populate the counter file from realized activity."""
        # A cycle is stalled when realized activity falls below half of
        # what the program would have sustained without the event.
        reference = np.maximum(window.baseline_activity, 1e-9)
        stalled = activity < STALL_ACTIVITY_THRESHOLD * reference
        instructions = float(
            window.base_ipc * np.minimum(activity, 1.0).sum()
        )
        occurrences = EventTrace.coerce(window.events).counts()
        counts = {
            event: occurrences[event]
            for event in StallEvent
            if occurrences[event]
        }
        return PerformanceCounters(
            cycles=window.n_cycles,
            instructions=instructions,
            stall_cycles=int(stalled.sum()),
            event_counts=counts,
        )
