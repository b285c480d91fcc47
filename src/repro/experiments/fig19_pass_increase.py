"""Fig. 19 — increase in passing schedules from noise-aware scheduling.

Paper: re-pairing each benchmark by policy (instead of SPECrate's
self-pairing) raises the number of schedules meeting the typical-case
target by up to ~60 % at 10-cycle recovery for both policies; IPC
scheduling's benefit *decays* with recovery cost (cache-stall awareness
alone cannot suppress cross-core interference), while Droop scheduling
consistently matches or beats it, with the gap emerging from 1000-cycle
recovery upwards.
"""

from __future__ import annotations

from typing import Dict

from repro.core.policies import DroopPolicy, IPCPolicy
from repro.core.resilience import (
    RECOVERY_COSTS,
    ResilientDesignModel,
    performance_improvement,
)
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.experiments.common import ExperimentResult
from repro.experiments.context import (
    get_campaign,
    parsec_names,
    spec_names,
    window_cycles,
)
from repro.experiments.tab1_specrate_pass import PASS_FRACTION


def run(quick: bool = False, config: str = "Proc3") -> ExperimentResult:
    campaign = get_campaign(config, n_cycles=window_cycles(quick))
    names = spec_names(quick)
    all_runs = campaign.all_runs(names, parsec_names(quick))
    model = ResilientDesignModel([r.tail_model() for r in all_runs])

    oracle = GroupOracle(campaign)
    scheduler = BatchScheduler(oracle, programs=names)
    policies = {"Droop": DroopPolicy(), "IPC": IPCPolicy()}
    partner_maps = {
        name: scheduler.partner_map(policy, seed=17)
        for name, policy in policies.items()
    }

    result = ExperimentResult(
        experiment_id="Fig. 19",
        title=f"Increase in passing schedules over SPECrate ({config})",
        columns=("recovery cost (cycles)", "SPECrate passing",
                 "IPC passing", "Droop passing",
                 "IPC increase (%)", "Droop increase (%)"),
    )

    def passes(run_measurement, cost, optimum) -> bool:
        improvement = performance_improvement(
            optimum.margin,
            cost,
            run_measurement.tail_model().rate(optimum.margin),
            model.parameters,
        )
        return improvement >= PASS_FRACTION * optimum.improvement

    series: Dict[str, list] = {"SPECrate": [], "IPC": [], "Droop": []}
    for cost in RECOVERY_COSTS:
        optimum = model.optimal_margin(cost)
        base_pass = sum(
            passes(campaign.measure(a, a, kind="multiprogram"), cost, optimum)
            for a in names
        )
        counts = {"SPECrate": base_pass}
        for policy_name, partners in partner_maps.items():
            counts[policy_name] = sum(
                passes(
                    campaign.measure(a, partners[a], kind="multiprogram"),
                    cost,
                    optimum,
                )
                for a in names
            )
        for key in series:
            series[key].append(counts[key])

        def increase(n: int) -> float:
            if base_pass == 0:
                return 100.0 if n > 0 else 0.0
            return 100.0 * (n - base_pass) / base_pass

        result.add_row(
            cost,
            base_pass,
            counts["IPC"],
            counts["Droop"],
            increase(counts["IPC"]),
            increase(counts["Droop"]),
        )
    result.series["passing"] = series
    result.series["recovery_costs"] = list(RECOVERY_COSTS)
    result.notes.append(
        "paper: both policies ~+60% at 10-cycle recovery; IPC's benefit "
        "decays with cost while Droop stays at least as good, pulling "
        "ahead from 1000 cycles"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(quick=True).format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
