"""Split (per-core) power supplies vs the connected shared rail.

The paper studies the widespread shared-supply design, and notes (footnote
3) why: IBM's POWER6 team compared split- versus connected-core supplies
and found voltage swings *much larger* when cores operate independently,
and Kim et al. (HPCA'07) showed per-core on-chip regulators can likewise
worsen noise.  Splitting the rail halves the decoupling available to each
core and forfeits cross-core averaging — one core's steady draw no longer
absorbs part of the other's transient.

:class:`SplitSupplyChip` models that alternative: each core gets its own
PDN with half of every capacitor bank, and the chip-level result reports
per-rail voltage traces.  Comparing it against the shared-rail
:class:`~repro.uarch.chip.Chip` on identical windows reproduces the
POWER6 observation and justifies the paper's focus on global (chip-wide)
emergencies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.pdn import platform
from repro.pdn.simulate import TransientSimulator, VoltageTrace
from repro.random_utils import SeedLike, derive_generator
from repro.uarch.chip import DEFAULT_UNCORE_AMPS, pad_windows
from repro.uarch.core import Core, CoreExecution, CoreParameters
from repro.uarch.window import ExecutionWindow


@dataclass(frozen=True)
class SplitSupplyRun:
    """The outcome of running windows on per-core rails."""

    rails: Tuple[VoltageTrace, ...]
    cores: Tuple[CoreExecution, ...]
    config_name: str

    @property
    def n_cycles(self) -> int:
        return len(self.rails[0])

    def worst_droop_fraction(self) -> float:
        """Deepest droop across all rails (an emergency on any rail is an
        emergency for the chip)."""
        return max(rail.max_droop_fraction() for rail in self.rails)

    def worst_peak_to_peak_fraction(self) -> float:
        return max(rail.peak_to_peak_fraction() for rail in self.rails)


#: Splitting the socket's power pins between two rails leaves each rail a
#: higher-inductance delivery path (roughly the pin count's inverse, with
#: some shared-plane relief).
SPLIT_INDUCTANCE_FACTOR = 1.8


def _per_rail_parameters(
    base: platform.PlatformParameters,
) -> platform.PlatformParameters:
    """Each rail owns half the capacitance and a leaner pin allocation."""
    return replace(
        base,
        bulk_capacitance=base.bulk_capacitance / 2.0,
        die_capacitance=base.die_capacitance / 2.0,
        bulk_inductance=base.bulk_inductance * SPLIT_INDUCTANCE_FACTOR,
        package_inductance=base.package_inductance * SPLIT_INDUCTANCE_FACTOR,
    )


class SplitSupplyChip:
    """A processor whose cores sit on independent power rails.

    Parameters mirror :class:`~repro.uarch.chip.Chip`; the package decap
    inventory is split evenly between the rails, and the uncore draw is
    shared equally.
    """

    def __init__(
        self,
        config: str = "Proc100",
        n_cores: int = 2,
        core_parameters: Optional[CoreParameters] = None,
        platform_parameters: platform.PlatformParameters = platform.DEFAULT_PARAMETERS,
        uncore_amps: float = DEFAULT_UNCORE_AMPS,
        with_ripple: bool = True,
    ) -> None:
        if n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        if uncore_amps < 0:
            raise ConfigurationError("uncore_amps must be non-negative")
        self._config_name = config
        rail_parameters = _per_rail_parameters(platform_parameters)
        network = platform.build_network(config, rail_parameters)
        # Each rail keeps 1/n of the land-side package capacitors.
        network = network.with_decap_fraction(1.0 / n_cores, "package")
        vrm = rail_parameters.vrm if with_ripple else None
        self._simulators = tuple(
            TransientSimulator(network, platform.CLOCK_PERIOD_S, vrm=vrm)
            for _ in range(n_cores)
        )
        self._cores = tuple(
            Core(core_parameters, core_id=i) for i in range(n_cores)
        )
        self._uncore_share = float(uncore_amps) / n_cores

    @property
    def n_cores(self) -> int:
        return len(self._cores)

    @property
    def config_name(self) -> str:
        return self._config_name

    def run(
        self,
        windows: Sequence[Optional[ExecutionWindow]],
        seed: SeedLike = None,
    ) -> SplitSupplyRun:
        """Run one window per core, each on its own rail."""
        padded, _ = pad_windows(windows, self.n_cores)
        activities = np.stack([
            core.realize_activity(window)
            for core, window in zip(self._cores, padded)
        ])
        executions = self._cores[0].finalize_batch(padded, activities)
        rail_currents = np.stack([
            execution.current_amps for execution in executions
        ]) + self._uncore_share
        # Every rail shares one discretized network, so all rails go
        # through a single batched sosfilt call (bit-identical per rail
        # to the per-simulator path this replaced).
        rails = self._simulators[0].simulate_batch(
            rail_currents,
            seeds=[
                derive_generator(seed, "rail", i, self._config_name)
                for i in range(self.n_cores)
            ],
        )
        return SplitSupplyRun(
            rails=tuple(rails),
            cores=tuple(executions),
            config_name=self._config_name,
        )
