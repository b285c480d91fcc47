"""Ablation: oracle droop knowledge vs counter-proxy vs none.

Design choice under test: the paper's limit study assumes oracle droop
counts.  The stall-ratio proxy (deployable from commodity counters, per
the Fig. 15 correlation) should recover much of the oracle's droop
reduction; random pairing recovers none.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.policies import DroopPolicy, RandomPolicy, StallRatioPolicy
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.experiments.context import QUICK_SPEC_SUBSET, get_campaign

N_PAIRS = 20


def test_ablation_scheduler_knowledge(benchmark, quick):
    def experiment():
        campaign = get_campaign("Proc3", n_cycles=25_000)
        oracle = GroupOracle(campaign)
        scheduler = BatchScheduler(oracle, programs=QUICK_SPEC_SUBSET)
        droops = {}
        droops["oracle"] = scheduler.run_policy(
            DroopPolicy(), n_pairs=N_PAIRS, seed=31
        ).mean_droops
        droops["stall-proxy"] = scheduler.run_policy(
            StallRatioPolicy(), n_pairs=N_PAIRS, seed=31
        ).mean_droops
        random_values = [
            scheduler.run_policy(
                RandomPolicy(seed=400 + i), n_pairs=N_PAIRS, seed=400 + i
            ).mean_droops
            for i in range(8)
        ]
        droops["random"] = float(np.mean(random_values))
        return droops

    droops = run_once(benchmark, experiment)
    # Full oracle knowledge gives the fewest droops by a clear margin.
    assert droops["oracle"] < 0.95 * droops["random"]
    assert droops["oracle"] <= droops["stall-proxy"]
    # The counter proxy does no worse than noise-oblivious scheduling —
    # but (ablation finding) in this simulator it recovers only a small
    # part of the oracle's benefit: most of the droop reduction comes
    # from pair-level interaction that solo counters cannot see.
    assert droops["stall-proxy"] <= droops["random"] * 1.03
