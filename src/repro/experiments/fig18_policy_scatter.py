"""Fig. 18 — scheduling-policy scatter: droops vs performance vs SPECrate.

Paper: normalized to SPECrate at (1, 1) — random schedules cluster at the
centre; IPC scheduling improves performance but sits at the random
schedules' droop level; Droop scheduling minimizes droops (Q1, with even a
slight performance gain); the IPC/Droop^n hybrids trace a Pareto frontier
between the two.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.policies import (
    DroopPolicy,
    HybridPolicy,
    IPCPolicy,
    RandomPolicy,
)
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.experiments.common import ExperimentResult
from repro.experiments.context import get_campaign, spec_names, window_cycles

N_RANDOM_SCHEDULES_FULL = 100
N_RANDOM_SCHEDULES_QUICK = 15


def run(quick: bool = False, config: str = "Proc3") -> ExperimentResult:
    campaign = get_campaign(config, n_cycles=window_cycles(quick))
    names = spec_names(quick)
    oracle = GroupOracle(campaign)
    oracle.prefetch(names)  # one parallel fan-out; scoring hits the memo
    scheduler = BatchScheduler(oracle, programs=names)
    n_pairs = 20 if quick else 50

    baseline = scheduler.evaluate(
        scheduler.specrate_schedule(), policy_name="SPECrate"
    )

    points: Dict[str, Tuple[float, float]] = {}
    for policy in (DroopPolicy(), IPCPolicy(), HybridPolicy(1.0)):
        evaluation = scheduler.run_policy(policy, n_pairs=n_pairs, seed=13)
        points[policy.name] = evaluation.normalized_to(baseline)

    n_random = N_RANDOM_SCHEDULES_QUICK if quick else N_RANDOM_SCHEDULES_FULL
    random_points: List[Tuple[float, float]] = []
    for i in range(n_random):
        evaluation = scheduler.run_policy(
            RandomPolicy(seed=1000 + i), n_pairs=n_pairs, seed=1000 + i
        )
        random_points.append(evaluation.normalized_to(baseline))

    result = ExperimentResult(
        experiment_id="Fig. 18",
        title=f"Policy impact: droops vs performance relative to SPECrate ({config})",
        columns=("policy", "droops (rel.)", "performance (rel.)"),
    )
    for name, (droops, perf) in points.items():
        result.add_row(name, droops, perf)
    import numpy as np

    random_mean = (
        float(np.mean([p[0] for p in random_points])),
        float(np.mean([p[1] for p in random_points])),
    )
    result.add_row("Random (mean of %d)" % n_random, *random_mean)
    result.series["points"] = points
    result.series["random_points"] = random_points
    result.series["random_mean"] = random_mean
    result.notes.append(
        "paper: Random ~ centre, IPC better perf at random-level droops, "
        "Droop in Q1 (fewest droops, slight perf gain)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(quick=True).format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
