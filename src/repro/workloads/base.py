"""Workload abstractions and the statistical window synthesizer.

A workload is anything that can produce an
:class:`~repro.uarch.window.ExecutionWindow` for a requested point of
program time.  Most workloads are *statistical*: a
:class:`StatProfile` captures the noise-relevant structure of a program
region —

* mean activity and its slow wander (an Ornstein–Uhlenbeck component whose
  microsecond-scale time constant puts spectral content exactly in the
  package resonance band);
* a two-state burst model (compute-bound vs memory-bound dwell) that
  modulates activity and L2-miss rate the way real memory phases do;
* per-cycle Poisson rates for each stall event;
* the base IPC of the region.

Program-scale behaviour (the paper's "voltage noise phases", Fig. 14) is a
timeline of such profiles: :class:`PhasedWorkload` stitches
:class:`PhaseSegment` entries into a schedule and samples whichever profile
is active at the requested time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import signal

from repro.errors import ConfigurationError, WorkloadError
from repro.random_utils import SeedLike, as_generator
from repro.uarch.events import EVENT_ORDER, EventTrace, StallEvent
from repro.uarch.window import ExecutionWindow


@dataclass(frozen=True)
class BurstModel:
    """Two-state (compute / memory-bound) burst modulation.

    Parameters
    ----------
    memory_fraction:
        Long-run fraction of time spent in the memory-bound state.
    dwell_cycles:
        Mean dwell time per state visit; thousands of cycles puts the
        modulation into the package resonance band.
    activity_drop:
        Multiplier on baseline activity while memory-bound.
    event_boost:
        Multiplier on all stall-event rates while in the stall-burst
        state.  Real programs' misses and mispredictions cluster into
        phases rather than arriving uniformly; this clustering is what
        puts dI/dt energy into the package resonance band.
    """

    memory_fraction: float = 0.25
    dwell_cycles: float = 2000.0
    activity_drop: float = 0.55
    event_boost: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= self.memory_fraction < 1:
            raise ConfigurationError("memory_fraction must be in [0, 1)")
        if self.dwell_cycles <= 0:
            raise ConfigurationError("dwell_cycles must be positive")
        if not 0 < self.activity_drop <= 1:
            raise ConfigurationError("activity_drop must be in (0, 1]")
        if self.event_boost < 1:
            raise ConfigurationError("event_boost must be >= 1")

    def state_series(self, n_cycles: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean per-cycle series: True while memory-bound."""
        if self.memory_fraction == 0:
            return np.zeros(n_cycles, dtype=bool)
        states = np.zeros(n_cycles, dtype=bool)
        # Alternate exponential dwells; scale dwell lengths so the duty
        # cycle matches memory_fraction.
        mem_dwell = self.dwell_cycles * 2 * self.memory_fraction
        cpu_dwell = self.dwell_cycles * 2 * (1 - self.memory_fraction)
        position = 0
        memory_bound = bool(rng.random() < self.memory_fraction)
        while position < n_cycles:
            mean = mem_dwell if memory_bound else cpu_dwell
            length = max(1, int(rng.exponential(mean)))
            if memory_bound:
                states[position : position + length] = True
            position += length
            memory_bound = not memory_bound
        return states


@dataclass(frozen=True)
class StatProfile:
    """The noise-relevant statistics of one program region."""

    mean_activity: float
    activity_sigma: float = 0.05
    activity_tau_cycles: float = 3000.0
    event_rates: Mapping[StallEvent, float] = field(default_factory=dict)
    burst: Optional[BurstModel] = None
    base_ipc: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.mean_activity <= 1:
            raise ConfigurationError("mean_activity must be in (0, 1]")
        if self.activity_sigma < 0:
            raise ConfigurationError("activity_sigma must be non-negative")
        if self.activity_tau_cycles <= 0:
            raise ConfigurationError("activity_tau_cycles must be positive")
        if self.base_ipc <= 0:
            raise ConfigurationError("base_ipc must be positive")
        for event, rate in self.event_rates.items():
            if not isinstance(event, StallEvent):
                raise ConfigurationError(f"not a StallEvent: {event!r}")
            if rate < 0:
                raise ConfigurationError(f"negative rate for {event}")

    def rate(self, event: StallEvent) -> float:
        return float(self.event_rates.get(event, 0.0))

    def expected_stall_ratio(self) -> float:
        """First-order estimate of the stall ratio this profile produces."""
        from repro.uarch.events import profile_for

        total = 0.0
        for event, rate in self.event_rates.items():
            profile = profile_for(event)
            if profile.drop_fraction >= 0.5:
                total += rate * (profile.stall_cycles + profile.drain_cycles)
        return min(total, 1.0)


def _ou_series(
    n_cycles: int,
    sigma: float,
    tau_cycles: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A zero-mean Ornstein–Uhlenbeck series (stationary start)."""
    if sigma == 0:
        return np.zeros(n_cycles)
    alpha = np.exp(-1.0 / tau_cycles)
    drive = rng.normal(0.0, sigma * np.sqrt(1 - alpha**2), size=n_cycles)
    drive[0] = rng.normal(0.0, sigma)
    series = signal.lfilter([1.0], [1.0, -alpha], drive)
    return series


def _poisson_events(
    n_cycles: int,
    rate_per_cycle: float,
    rng: np.random.Generator,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cycle indices of Poisson arrivals, optionally restricted to a mask."""
    if rate_per_cycle <= 0:
        return np.empty(0, dtype=int)
    if mask is None:
        count = rng.poisson(rate_per_cycle * n_cycles)
        return rng.integers(0, n_cycles, size=count)
    eligible = np.flatnonzero(mask)
    if eligible.size == 0:
        return np.empty(0, dtype=int)
    count = rng.poisson(rate_per_cycle * eligible.size)
    return rng.choice(eligible, size=count, replace=True)


class _WindowDraw:
    """Everything one window needs from the RNG, before the OU filter.

    Splitting window synthesis into a *draw* phase (pure RNG, no
    filtering) and an *assemble* phase lets a batch of windows share a
    single ``lfilter`` call for their OU series, and keeps every
    filter call out of the per-window loops.
    """

    __slots__ = ("drive", "memory_bound", "trace", "label")

    def __init__(
        self,
        drive: Optional[np.ndarray],
        memory_bound: Optional[np.ndarray],
        trace: EventTrace,
        label: str,
    ) -> None:
        self.drive = drive
        self.memory_bound = memory_bound
        self.trace = trace
        self.label = label


def _event_cycles(
    profile: StatProfile,
    event: StallEvent,
    n_cycles: int,
    memory_bound: Optional[np.ndarray],
    clustered: bool,
    generator: np.random.Generator,
) -> np.ndarray:
    """One event kind's occurrence cycles (same draw order as before)."""
    rate = profile.rate(event)
    if rate <= 0:
        return np.empty(0, dtype=np.intp)
    if clustered:
        # Split each event rate between the two burst states so the
        # long-run rate is preserved but occurrences cluster inside
        # stall bursts.
        boost = profile.burst.event_boost
        frac_mem = memory_bound.mean()
        base_rate = rate / (1 - frac_mem + boost * frac_mem)
        cycles_cpu = _poisson_events(
            n_cycles, base_rate, generator, mask=~memory_bound
        )
        cycles_mem = _poisson_events(
            n_cycles, base_rate * boost, generator, mask=memory_bound
        )
        return np.concatenate([cycles_cpu, cycles_mem])
    return _poisson_events(n_cycles, rate, generator)


def _draw_window(
    profile: StatProfile,
    n_cycles: int,
    generator: np.random.Generator,
    label: str,
) -> _WindowDraw:
    """Consume the RNG exactly as ``synthesize_window`` always has."""
    if profile.activity_sigma == 0:
        drive: Optional[np.ndarray] = None
    else:
        alpha = np.exp(-1.0 / profile.activity_tau_cycles)
        drive = generator.normal(
            0.0,
            profile.activity_sigma * np.sqrt(1 - alpha**2),
            size=n_cycles,
        )
        drive[0] = generator.normal(0.0, profile.activity_sigma)

    memory_bound: Optional[np.ndarray] = None
    if profile.burst is not None:
        memory_bound = profile.burst.state_series(n_cycles, generator)
    clustered = memory_bound is not None and bool(memory_bound.any())

    chunks = [
        _event_cycles(
            profile, event, n_cycles, memory_bound, clustered, generator
        )
        for event in EVENT_ORDER
    ]
    codes = np.concatenate([
        np.full(chunk.size, code, dtype=np.uint8)
        for code, chunk in enumerate(chunks)
    ])
    # Stable sort == the list.sort(key=cycle) it replaced: ties keep
    # the per-kind build order.
    trace = EventTrace(np.concatenate(chunks), codes).sorted_by_cycle()
    return _WindowDraw(drive, memory_bound, trace, label)


def _assemble_windows(
    profile: StatProfile,
    draws: Sequence[_WindowDraw],
    n_cycles: int,
) -> List[ExecutionWindow]:
    """OU-filter all draws in one lfilter call and build the windows."""
    series = np.zeros((len(draws), n_cycles))
    live = [i for i, draw in enumerate(draws) if draw.drive is not None]
    if live:
        alpha = np.exp(-1.0 / profile.activity_tau_cycles)
        stacked = np.stack([draws[i].drive for i in live])
        series[live] = signal.lfilter([1.0], [1.0, -alpha], stacked, axis=-1)
    return [
        _finish_window(profile, draw, series[i])
        for i, draw in enumerate(draws)
    ]


def _finish_window(
    profile: StatProfile, draw: _WindowDraw, series: np.ndarray
) -> ExecutionWindow:
    baseline = profile.mean_activity + series
    if draw.memory_bound is not None:
        baseline = np.where(
            draw.memory_bound,
            baseline * profile.burst.activity_drop,
            baseline,
        )
    baseline = np.clip(baseline, 0.01, 1.0)
    return ExecutionWindow(
        baseline_activity=baseline,
        events=draw.trace,
        base_ipc=profile.base_ipc,
        label=draw.label,
    )


def synthesize_window(
    profile: StatProfile,
    n_cycles: int,
    rng: SeedLike = None,
    label: str = "",
) -> ExecutionWindow:
    """Sample one execution window from a statistical profile."""
    if n_cycles <= 0:
        raise ConfigurationError("n_cycles must be positive")
    generator = as_generator(rng)
    draw = _draw_window(profile, n_cycles, generator, label)
    return _assemble_windows(profile, [draw], n_cycles)[0]


def synthesize_windows(
    profile: StatProfile,
    n_cycles: int,
    rngs: Sequence[SeedLike],
    labels: Optional[Sequence[str]] = None,
) -> List[ExecutionWindow]:
    """Sample many windows of one profile through one batched OU filter.

    Each window is bit-identical to ``synthesize_window(profile,
    n_cycles, rngs[i], labels[i])`` — the draws consume each RNG in the
    original order, and a batched ``lfilter`` row equals the 1-D call —
    but the whole batch pays for a single filter invocation.
    """
    if n_cycles <= 0:
        raise ConfigurationError("n_cycles must be positive")
    if labels is None:
        labels = [""] * len(rngs)
    if len(labels) != len(rngs):
        raise ConfigurationError("one label per rng required")
    draws = [
        _draw_window(profile, n_cycles, as_generator(rngs[index]), label)
        for index, label in enumerate(labels)
    ]
    return _assemble_windows(profile, draws, n_cycles)


class Workload(abc.ABC):
    """Anything that can be sampled into execution windows.

    Subclasses define :attr:`name`, :attr:`duration_seconds` and
    :meth:`sample_window`.
    """

    name: str = "workload"
    duration_seconds: float = 600.0

    @abc.abstractmethod
    def sample_window(
        self,
        n_cycles: int,
        rng: SeedLike = None,
        at_time_s: float = 0.0,
    ) -> ExecutionWindow:
        """Sample a representative window at program time ``at_time_s``."""

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}({self.name!r})"


class StatisticalWorkload(Workload):
    """A workload fully described by a single :class:`StatProfile`."""

    def __init__(
        self,
        name: str,
        profile: StatProfile,
        duration_seconds: float = 600.0,
    ) -> None:
        if duration_seconds <= 0:
            raise ConfigurationError("duration_seconds must be positive")
        self.name = name
        self.profile = profile
        self.duration_seconds = float(duration_seconds)

    def sample_window(
        self,
        n_cycles: int,
        rng: SeedLike = None,
        at_time_s: float = 0.0,
    ) -> ExecutionWindow:
        return synthesize_window(self.profile, n_cycles, rng, label=self.name)

    def profile_at(self, at_time_s: float) -> StatProfile:
        return self.profile


@dataclass(frozen=True)
class PhaseSegment:
    """One phase of a phased workload."""

    duration_seconds: float
    profile: StatProfile
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ConfigurationError("duration_seconds must be positive")


class PhasedWorkload(Workload):
    """A workload whose statistics follow a timeline of phases.

    Parameters
    ----------
    name:
        Workload name.
    segments:
        Ordered phases; their durations sum to the program duration.
    repeat:
        When True the timeline wraps around (oscillating workloads like
        465.tonto); when False, time past the end clamps to the final
        phase.
    total_duration_seconds:
        Overall program duration.  Defaults to the sum of the segment
        durations; a repeating workload usually sets it much longer than
        one cycle through the segments.
    """

    def __init__(
        self,
        name: str,
        segments: Sequence[PhaseSegment],
        repeat: bool = False,
        total_duration_seconds: Optional[float] = None,
    ) -> None:
        if not segments:
            raise WorkloadError("a phased workload needs at least one phase")
        self.name = name
        self._segments = tuple(segments)
        self._repeat = bool(repeat)
        self._cycle_seconds = float(
            sum(seg.duration_seconds for seg in segments)
        )
        if total_duration_seconds is None:
            total_duration_seconds = self._cycle_seconds
        if total_duration_seconds <= 0:
            raise WorkloadError("total_duration_seconds must be positive")
        self.duration_seconds = float(total_duration_seconds)

    @property
    def segments(self) -> Tuple[PhaseSegment, ...]:
        return self._segments

    @property
    def cycle_seconds(self) -> float:
        """Duration of one pass through the segment timeline."""
        return self._cycle_seconds

    def profile_at(self, at_time_s: float) -> StatProfile:
        """The statistical profile active at program time ``at_time_s``."""
        if at_time_s < 0:
            raise WorkloadError("at_time_s must be non-negative")
        time = at_time_s
        if self._repeat:
            time = time % self._cycle_seconds
        elif time >= self._cycle_seconds:
            return self._segments[-1].profile
        for segment in self._segments:
            if time < segment.duration_seconds:
                return segment.profile
            time -= segment.duration_seconds
        return self._segments[-1].profile

    def sample_window(
        self,
        n_cycles: int,
        rng: SeedLike = None,
        at_time_s: float = 0.0,
    ) -> ExecutionWindow:
        profile = self.profile_at(at_time_s)
        return synthesize_window(profile, n_cycles, rng, label=self.name)
