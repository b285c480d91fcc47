"""Tab. I — SPECrate typical-case design analysis at optimal margins (Proc3).

Paper: for each recovery cost the suite-wide optimal margin grows
(5.3 % → 8.6 %) while the expected improvement shrinks (15.7 % → 9.7 %),
and the number of SPECrate schedules actually meeting the expected
improvement collapses from 28/29 (1-cycle recovery) to 9/29 (100 k):
growing voltage swings make coarse recovery miss its targets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.resilience import RECOVERY_COSTS, ResilientDesignModel
from repro.experiments.common import ExperimentResult
from repro.experiments.context import (
    get_campaign,
    parsec_names,
    spec_names,
    window_cycles,
)

#: Slack applied to the pass criterion: a schedule passes when it achieves
#: at least this fraction of the suite-wide expected improvement.
PASS_FRACTION = 0.95


def specrate_pass_analysis(
    quick: bool = False,
    config: str = "Proc3",
) -> Tuple[ExperimentResult, Dict[int, List[str]]]:
    campaign = get_campaign(config, n_cycles=window_cycles(quick))
    names = spec_names(quick)
    all_runs = campaign.all_runs(names, parsec_names(quick))
    model = ResilientDesignModel([r.tail_model() for r in all_runs])

    specrate_runs = campaign.specrate_runs(names)
    specrate = ResilientDesignModel(
        [r.tail_model() for r in specrate_runs], model.parameters
    )

    result = ExperimentResult(
        experiment_id="Tab. I",
        title=f"SPECrate typical-case analysis at optimal margins ({config})",
        columns=("recovery cost (cycles)", "optimal margin (%)",
                 "expected improvement (%)",
                 f"schedules passing (of {len(names)})"),
    )
    passing_by_cost: Dict[int, List[str]] = {}
    optima = {}
    for cost in RECOVERY_COSTS:
        optimum = model.optimal_margin(cost)
        optima[cost] = optimum
        passing = [
            specrate_runs[i].spec.workloads[0]
            for i in specrate.passing_runs(
                cost, optimum.margin, PASS_FRACTION * optimum.improvement
            )
        ]
        passing_by_cost[cost] = passing
        result.add_row(
            cost,
            100 * optimum.margin,
            100 * optimum.improvement,
            len(passing),
        )
    result.series["optima"] = optima
    result.series["passing_by_cost"] = passing_by_cost
    result.notes.append(
        "paper: margins 5.3->8.6%, improvements 15.7->9.7%, passing "
        "schedules 28,28,15,12,9,9 of 29 — the monotone trends are the "
        "reproduction target"
    )
    return result, passing_by_cost


def run(quick: bool = False, config: str = "Proc3") -> ExperimentResult:
    result, _ = specrate_pass_analysis(quick, config)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(quick=True).format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
