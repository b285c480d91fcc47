"""The typical-case (resilient) design performance model of Sec. III-B.

A resilient processor relaxes its operating voltage margin below the
worst-case guardband and recovers from the (rare) voltage emergencies that
result.  Three quantities govern the outcome:

* **margin → frequency**: Bowman et al. report that removing a 10 % margin
  buys ~15 % clock frequency; the paper adopts this 1.5x scaling.
* **emergency rate**: how often a workload's droops exceed the margin
  (from measurement, extrapolated by the droop-tail model).
* **recovery cost**: cycles lost per emergency — from ~1 (Razor), tens
  (DeCoR), ~100 (signature-based prediction with checkpointing) up to
  thousands-to-100k (production checkpoint/rollback hardware).

The net improvement over the worst-case design is

    speedup = (1 + 1.5 * (margin_wc - margin)) / (1 + rate * cost) - 1

:class:`ResilientDesignModel` evaluates this over workload populations,
finds optimal margins (Fig. 8), produces the margin x cost heat maps
(Fig. 10), and reports per-run pass/fail against an expected-improvement
target (Tab. I, Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.measurement.tail import DroopTailModel

#: The paper's canonical recovery-cost sweep (cycles per emergency).
RECOVERY_COSTS: Tuple[int, ...] = (1, 10, 100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class ResilienceParameters:
    """Machine-level constants of the performance model."""

    #: The conservative guardband of the baseline design (Core 2: 14 %).
    worst_case_margin: float = 0.14
    #: Clock-frequency gain per unit of margin reduction (Bowman: 1.5).
    frequency_gain_per_margin: float = 1.5
    #: The smallest margin the sweep considers; below the VRM ripple the
    #: "emergency" notion stops being meaningful.
    min_margin: float = 0.020

    def __post_init__(self) -> None:
        if not 0 < self.worst_case_margin < 0.5:
            raise ConfigurationError("worst_case_margin must be in (0, 0.5)")
        if self.frequency_gain_per_margin <= 0:
            raise ConfigurationError(
                "frequency_gain_per_margin must be positive"
            )
        if not 0 < self.min_margin < self.worst_case_margin:
            raise ConfigurationError(
                "min_margin must be in (0, worst_case_margin)"
            )

    def frequency_gain(self, margin: float) -> float:
        """Clock-speed factor of running at ``margin`` vs the guardband."""
        if not 0 < margin <= self.worst_case_margin:
            raise ConfigurationError(
                f"margin must be in (0, {self.worst_case_margin}]"
            )
        return 1.0 + self.frequency_gain_per_margin * (
            self.worst_case_margin - margin
        )


def performance_improvement(
    margin: float,
    recovery_cost: float,
    emergency_rate_per_cycle: float | np.ndarray,
    parameters: ResilienceParameters = ResilienceParameters(),
) -> float | np.ndarray:
    """Net speedup (fraction) of a resilient design over worst-case.

    Emergencies add ``rate * cost`` recovery cycles per useful cycle; the
    aggressive margin multiplies clock frequency.  Values below 0 are the
    paper's "dead zone": worse than the conservative baseline.

    ``emergency_rate_per_cycle`` may be a scalar (a float is returned) or
    a vector of per-run rates (an array of per-run improvements is
    returned, each element equal to the scalar call for that rate).
    """
    if recovery_cost < 0:
        raise ConfigurationError("recovery_cost must be non-negative")
    rates = np.asarray(emergency_rate_per_cycle, dtype=float)
    if np.any(rates < 0):
        raise ConfigurationError("emergency_rate must be non-negative")
    gain = parameters.frequency_gain(margin)
    improvement = gain / (1.0 + rates * recovery_cost) - 1.0
    return float(improvement) if improvement.ndim == 0 else improvement


@dataclass(frozen=True)
class OptimalMargin:
    """Result of an optimal-margin search for one recovery cost."""

    recovery_cost: float
    margin: float
    improvement: float


class ResilientDesignModel:
    """Evaluates typical-case design over a population of measured runs.

    Parameters
    ----------
    tail_models:
        One droop-tail model per workload run (e.g. from a
        :class:`~repro.measurement.campaign.MeasurementCampaign`).
    parameters:
        Machine constants.
    """

    def __init__(
        self,
        tail_models: Iterable[DroopTailModel],
        parameters: ResilienceParameters = ResilienceParameters(),
    ) -> None:
        self._tails = list(tail_models)
        if not self._tails:
            raise ConfigurationError("need at least one tail model")
        self._parameters = parameters
        #: margin -> per-run emergency rates; a rate depends only on the
        #: run and the margin, so every recovery cost reuses one vector.
        self._rates_by_margin: Dict[float, np.ndarray] = {}

    @property
    def parameters(self) -> ResilienceParameters:
        return self._parameters

    @property
    def n_runs(self) -> int:
        return len(self._tails)

    # ------------------------------------------------------------------
    # Per-run vectors
    # ------------------------------------------------------------------
    def _rates(self, margin: float) -> np.ndarray:
        """Every run's emergency rate at one margin (memoized)."""
        margin = float(margin)
        rates = self._rates_by_margin.get(margin)
        if rates is None:
            rates = np.array([tail.rate(margin) for tail in self._tails])
            self._rates_by_margin[margin] = rates
        return rates

    def _improvements(self, margin: float, recovery_cost: float) -> np.ndarray:
        """Every run's improvement at one design point — the one place
        the model evaluates per-run improvement."""
        return np.asarray(performance_improvement(
            margin, recovery_cost, self._rates(margin), self._parameters
        ))

    # ------------------------------------------------------------------
    # Aggregate sweeps
    # ------------------------------------------------------------------
    def mean_improvement(self, margin: float, recovery_cost: float) -> float:
        """Average improvement across all runs at one design point."""
        return float(np.mean(self._improvements(margin, recovery_cost)))

    def mean_emergency_rate(self, margin: float) -> float:
        """Average per-cycle emergency rate across all runs at a margin.

        This is the rate of margin crossings a rollback-style recovery
        mechanism would actually service — the telemetry layer exports
        it (scaled to events per 1K cycles) per evaluated mechanism.
        """
        return float(np.mean(self._rates(margin)))

    def margin_grid(self, n_points: int = 60) -> np.ndarray:
        """The margin axis used by sweeps (min_margin … worst case)."""
        return np.linspace(
            self._parameters.min_margin,
            self._parameters.worst_case_margin,
            n_points,
        )

    def margin_sweep(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(margins, mean improvement) — one line of Fig. 8."""
        if margins is None:
            margins = self.margin_grid()
        improvements = np.array([
            self.mean_improvement(float(m), recovery_cost) for m in margins
        ])
        return margins, improvements

    def optimal_margin(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> OptimalMargin:
        """The single static margin maximizing mean improvement (Fig. 8)."""
        margins, improvements = self.margin_sweep(recovery_cost, margins)
        best = int(np.argmax(improvements))
        return OptimalMargin(
            recovery_cost=recovery_cost,
            margin=float(margins[best]),
            improvement=float(improvements[best]),
        )

    def heatmap(
        self,
        recovery_costs: Sequence[float] = RECOVERY_COSTS,
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(margins, costs, improvement[cost, margin]) — one Fig. 10 panel."""
        if margins is None:
            margins = self.margin_grid()
        grid = np.empty((len(recovery_costs), margins.size))
        for i, cost in enumerate(recovery_costs):
            _, grid[i] = self.margin_sweep(cost, margins)
        return margins, np.asarray(recovery_costs, dtype=float), grid

    # ------------------------------------------------------------------
    # Per-run pass/fail (Tab. I / Fig. 19)
    # ------------------------------------------------------------------
    def run_improvement(
        self, run_index: int, margin: float, recovery_cost: float
    ) -> float:
        return float(self._improvements(margin, recovery_cost)[run_index])

    def _per_run_optima(
        self, recovery_cost: float, margins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each run's optimal margin on ``margins`` and its improvement."""
        grid = np.column_stack([
            self._improvements(float(m), recovery_cost) for m in margins
        ])
        best = np.argmax(grid, axis=1)
        optima = np.asarray(margins, dtype=float)[best]
        return optima, grid[np.arange(grid.shape[0]), best]

    def per_run_optimal_margins(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Each run's individually optimal margin for one recovery cost.

        Sec. III-B: "each benchmark can have a unique optimal voltage
        margin.  However, we found that the range of optimal margins is
        small across all executions" — which is what justifies the
        one-design-fits-all static margin.  This method quantifies that
        spread for the simulated population.
        """
        if margins is None:
            margins = self.margin_grid()
        optima, _ = self._per_run_optima(recovery_cost, margins)
        return optima

    def one_design_fits_all_gap(self, recovery_cost: float) -> float:
        """Mean improvement lost by using the single static optimal margin
        instead of each run's own optimum.  The paper argues this gap is
        negligible; returns the absolute improvement difference."""
        margins = self.margin_grid()
        static = self.optimal_margin(recovery_cost, margins)
        _, individual = self._per_run_optima(recovery_cost, margins)
        return float(np.mean(individual)) - static.improvement

    def passing_runs(
        self,
        recovery_cost: float,
        margin: float,
        expected_improvement: float,
        tolerance: float = 0.0,
    ) -> List[int]:
        """Indices of runs meeting the expected improvement at a margin."""
        improvements = self._improvements(margin, recovery_cost)
        passing = improvements >= expected_improvement - tolerance
        return [int(i) for i in np.flatnonzero(passing)]
