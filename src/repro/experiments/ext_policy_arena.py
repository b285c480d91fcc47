"""Extension — the policy arena: N-core schedulers head-to-head.

ROADMAP item 3: the paper's droop-aware pair policy is one point in a
policy space.  This harness runs every arena policy (the paper's five
pair policies plus RandomN, IPC-packing and DVFS-margin) over a
named suite on dual- and quad-core shared-rail chips, reporting each
policy's droop overhead, throughput, energy proxy and regret against
the exhaustive oracle optimum.

Expected shape (the Fig. 18 story, now with regret made explicit): the
droop policy sits at or near zero regret, pure IPC and the random
controls pay measurably more droop overhead, and the gap is what
software-guided placement is worth on that suite.
"""

from __future__ import annotations

from repro.arena.harness import DEFAULT_CONFIG, run_arena
from repro.experiments.common import ExperimentResult

#: Core counts compared per suite.
CORE_COUNTS = (2, 4)


def run(quick: bool = False, config: str = DEFAULT_CONFIG) -> ExperimentResult:
    suite = "micro" if quick else "noise"
    result = ExperimentResult(
        experiment_id="Ext. E",
        title=f"Policy arena on suite '{suite}' ({config})",
        columns=("cores", "policy", "droops/1k", "overhead",
                 "mean IPC", "energy proxy", "regret"),
    )
    for n_cores in CORE_COUNTS:
        arena = run_arena(suite=suite, n_cores=n_cores, config=config)
        result.series[f"cores{n_cores}"] = arena
        for card in arena.scorecards:
            result.add_row(
                n_cores,
                card.name,
                card.droops_per_1k,
                card.recovery_overhead,
                card.mean_ipc,
                card.energy_proxy,
                "n/a" if card.oracle_regret is None else card.oracle_regret,
            )
        droop = arena.scorecard("droop")
        others = [c for c in arena.scorecards if c.policy != "droop"]
        beaten = sum(
            1 for c in others if droop.droops_per_1k <= c.droops_per_1k
        )
        result.notes.append(
            f"{n_cores} cores: droop policy at or below "
            f"{beaten}/{len(others)} competitors on droop overhead "
            f"(regret {droop.oracle_regret if droop.oracle_regret is not None else 'n/a'})"
        )
    return result
