"""The dual-core chip: cores on a shared power supply.

Both cores of the Core 2 Duo share one power delivery network (the paper
studies off-chip VRMs, the widespread design), so current edges from either
core superimpose on the same supply — the root of the cross-core
constructive/destructive interference of Sec. III-C and the reason a
voltage emergency anywhere forces a *global* recovery.

:class:`Chip` sums per-core current with an uncore floor and pushes the
total through the PDN transient simulator, yielding the chip-wide voltage
trace that all characterization and scheduling experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import observability as obs
from repro.errors import ConfigurationError, SimulationError
from repro.pdn import platform
from repro.pdn.decap import DecapConfiguration
from repro.pdn.simulate import VoltageTrace
from repro.random_utils import SeedLike, derive_generator
from repro.uarch.core import Core, CoreExecution, CoreParameters
from repro.uarch.counters import PerformanceCounters
from repro.uarch.window import ExecutionWindow

#: Current drawn by shared structures (L2, bus interface) irrespective of
#: core activity.
DEFAULT_UNCORE_AMPS = 2.0

#: Activity level of a hardware-idle core (the OS idle loop keeps a core
#: lightly busy even when nothing is scheduled on it).
IDLE_CORE_ACTIVITY = 0.03

#: Shared-resource slack pickup: when one core stalls, its claim on the
#: shared L2/bus frees up and an *actively running* sibling speeds up.
#: This coupling is the physical source of destructive interference — the
#: sibling's current rise partially fills the staller's current drop — and
#: what a noise-aware scheduler exploits (Sec. IV-B).
SLACK_PICKUP_COUPLING = 0.35

#: A sibling only picks up slack while it is actually executing.
SLACK_PICKUP_GATE = 0.30


@dataclass(frozen=True)
class ChipRun:
    """The outcome of running one multi-core window on the chip."""

    voltage: VoltageTrace
    cores: Tuple[CoreExecution, ...]
    total_current_amps: np.ndarray
    config_name: str

    @property
    def n_cycles(self) -> int:
        return int(self.total_current_amps.size)

    def counters(self, core_index: int) -> PerformanceCounters:
        return self.cores[core_index].counters

    def aggregate_counters(self) -> PerformanceCounters:
        """Chip-wide counter totals (cycles stay per-core, i.e. one window)."""
        merged = self.cores[0].counters
        for execution in self.cores[1:]:
            merged = merged.merged_with(execution.counters)
        return merged


def _idle_window(n_cycles: int) -> ExecutionWindow:
    return ExecutionWindow(
        baseline_activity=np.full(n_cycles, IDLE_CORE_ACTIVITY),
        events=[],
        base_ipc=0.3,
        label="(idle)",
    )


def pad_windows(
    windows: Sequence[Optional[ExecutionWindow]], n_cores: int
) -> Tuple[List[ExecutionWindow], int]:
    """Validate one run's windows and pad idle cores.

    Returns one window per core (``None`` and missing entries become
    the idle loop's activity) and the shared window length.
    """
    if len(windows) > n_cores:
        raise SimulationError(f"{len(windows)} windows for {n_cores} cores")
    concrete = [w for w in windows if w is not None]
    if not concrete:
        raise SimulationError("at least one core must run a workload")
    n_cycles = concrete[0].n_cycles
    if any(w.n_cycles != n_cycles for w in concrete):
        raise SimulationError("all windows must have the same length")
    slots = list(windows) + [None] * (n_cores - len(windows))
    padded = [
        window if window is not None else _idle_window(n_cycles)
        for window in slots
    ]
    return padded, n_cycles


class Chip:
    """An N-core processor on one decap configuration.

    Parameters
    ----------
    config:
        Decap configuration (``"Proc100"`` … ``"Proc0"`` or a
        :class:`~repro.pdn.decap.DecapConfiguration`).
    n_cores:
        Number of cores sharing the supply (the paper's machine has 2).
    core_parameters:
        Electrical calibration shared by all cores.
    platform_parameters:
        PDN calibration; defaults to the reference platform.
    with_ripple:
        Superimpose VRM switching ripple (on for realism, off for clean
        analytical experiments).
    """

    def __init__(
        self,
        config: DecapConfiguration | str = "Proc100",
        n_cores: int = 2,
        core_parameters: Optional[CoreParameters] = None,
        platform_parameters: platform.PlatformParameters = platform.DEFAULT_PARAMETERS,
        uncore_amps: float = DEFAULT_UNCORE_AMPS,
        with_ripple: bool = True,
        slack_coupling: float = SLACK_PICKUP_COUPLING,
    ) -> None:
        if n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        if uncore_amps < 0:
            raise ConfigurationError("uncore_amps must be non-negative")
        if not 0 <= slack_coupling < 1:
            raise ConfigurationError("slack_coupling must be in [0, 1)")
        self._config_name = config if isinstance(config, str) else config.name
        self._simulator = platform.build_simulator(
            config, platform_parameters, with_ripple=with_ripple
        )
        self._cores = tuple(
            Core(core_parameters, core_id=i) for i in range(n_cores)
        )
        self._uncore_amps = float(uncore_amps)
        self._slack_coupling = float(slack_coupling)

    @property
    def n_cores(self) -> int:
        return len(self._cores)

    @property
    def core_parameters(self) -> CoreParameters:
        """The electrical calibration shared by every core."""
        return self._cores[0].parameters

    @property
    def config_name(self) -> str:
        return self._config_name

    @property
    def nominal_voltage(self) -> float:
        return self._simulator.network.nominal_voltage

    @property
    def simulator(self):
        return self._simulator

    def _apply_slack_coupling(
        self,
        activities: np.ndarray,
        windows: Sequence[ExecutionWindow],
    ) -> np.ndarray:
        """Let active cores pick up a stalled sibling's shared-resource slack.

        Each core's *deficit* is how far its realized activity has fallen
        below its own program's nominal level.  A fraction of the mean
        sibling deficit is added to every core that is actively running
        (above :data:`SLACK_PICKUP_GATE`).  When one core stalls while the
        other runs, the other's current rises — damping the chip-wide
        current swing (destructive interference).  When both stall
        together (aligned bursts, barriers, SPECrate phase alignment),
        nobody can pick up the slack and the full swing goes through
        (constructive interference).

        ``activities`` is the (n_cores, n_cycles) realized-activity
        matrix; a coupled copy is returned (or the input when coupling
        is off or the chip has one core).
        """
        n = activities.shape[0]
        if self._slack_coupling == 0 or n < 2:
            return activities
        from repro.uarch.activity import MAX_ACTIVITY

        nominal = np.array([w.baseline_activity.mean() for w in windows])
        deficits = np.maximum(0.0, nominal[:, None] - activities)
        adjusted = np.empty_like(activities)
        for i in range(n):
            sibling_deficit = np.mean(
                deficits[np.arange(n) != i], axis=0
            )
            pickup = (
                self._slack_coupling
                * sibling_deficit
                * (activities[i] > SLACK_PICKUP_GATE)
            )
            adjusted[i] = np.clip(
                activities[i] + pickup, 0.0, MAX_ACTIVITY
            )
        return adjusted

    def _coupled_activities(
        self, padded: Sequence[ExecutionWindow]
    ) -> np.ndarray:
        """Realized, slack-coupled activity — one (n_cores, T) matrix."""
        activities = np.stack([
            core.realize_activity(window)
            for core, window in zip(self._cores, padded)
        ])
        return self._apply_slack_coupling(activities, padded)

    def run(
        self,
        windows: Sequence[Optional[ExecutionWindow]],
        seed: SeedLike = None,
    ) -> ChipRun:
        """Run one window per core and return the chip-wide result.

        ``windows`` supplies one :class:`ExecutionWindow` per core
        (``None`` idles that core); fewer entries than cores idles the
        rest.  All windows must be the same length.  One run is a batch
        of one (see :meth:`run_batch`).
        """
        return self._run([windows], [seed])[0]

    def run_batch(
        self,
        window_groups: Sequence[Sequence[Optional[ExecutionWindow]]],
        seeds: Optional[Sequence[SeedLike]] = None,
    ) -> List[ChipRun]:
        """Run many multi-core window groups through one batched solve.

        The per-core slow-gating EMA of *every* run is computed by a
        single ``lfilter`` call over a stacked activity matrix, and all
        runs' total-current traces go through the PDN in one batched
        ``sosfilt`` (see ``TransientSimulator.simulate_batch``).  Each
        returned :class:`ChipRun` is bit-identical to a batch of one
        (:meth:`run`) for the same windows and seed — pinned by the
        batching equivalence tests.  All runs must share one window
        length.  One ``chip.run`` span covers the whole batch.
        """
        if seeds is None:
            seeds = [None] * len(window_groups)
        return self._run(window_groups, seeds)

    def _run(
        self,
        window_groups: Sequence[Sequence[Optional[ExecutionWindow]]],
        seeds: Sequence[SeedLike],
    ) -> List[ChipRun]:
        """The one chip solve: pad, couple and filter every run at once."""
        if not window_groups:
            raise SimulationError("at least one window group required")
        if len(seeds) != len(window_groups):
            raise SimulationError("one seed per window group required")
        prepared = [
            pad_windows(windows, self.n_cores) for windows in window_groups
        ]
        lengths = {n_cycles for _, n_cycles in prepared}
        if len(lengths) > 1:
            raise SimulationError(
                "all batched runs must have the same window length"
            )
        (n_cycles,) = lengths
        n_runs = len(prepared)
        batched = {"batched": n_runs} if n_runs > 1 else {}
        with obs.span(
            "chip.run", config=self._config_name, cycles=int(n_cycles),
            **batched,
        ):
            obs.increment("repro_chip_runs_total", n_runs)
            obs.increment("repro_chip_cycles_total", n_runs * int(n_cycles))
            coupled = [
                self._coupled_activities(padded) for padded, _ in prepared
            ]
            # One EMA filter over every core of every run at once.
            core = self._cores[0]
            currents = core.current_from_activity(np.vstack(coupled))
            n_cores = self.n_cores
            executions = [
                tuple(core.finalize_batch(
                    padded,
                    coupled[index],
                    currents=currents[index * n_cores:(index + 1) * n_cores],
                ))
                for index, (padded, _) in enumerate(prepared)
            ]
            # numpy adds the cores of each run in index order, the
            # summation order the golden fixtures were recorded with.
            totals = self._uncore_amps + currents.reshape(
                n_runs, n_cores, n_cycles
            ).sum(axis=1)
            ripple_rngs = [
                derive_generator(seed, "vrm", self._config_name)
                for seed in seeds
            ]
            voltages = self._simulator.simulate_batch(
                totals, seeds=ripple_rngs
            )
        return [
            ChipRun(
                voltage=voltages[index],
                cores=executions[index],
                total_current_amps=totals[index],
                config_name=self._config_name,
            )
            for index in range(n_runs)
        ]
