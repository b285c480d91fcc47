"""Ablation: the IPC/Droop^n exponent across recovery costs.

Design choice under test: the paper proposes weighing droops more heavily
(larger n) on platforms with coarser recovery.  We score each exponent's
schedule by its modeled throughput including recovery overhead and check
that the best exponent shifts upward as recovery cost grows.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.policies import HybridPolicy
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.experiments.context import QUICK_SPEC_SUBSET, get_campaign

EXPONENTS = (0.0, 0.5, 1.0, 2.0, 4.0)
FINE_COST = 10
COARSE_COST = 100_000
MARGIN = 0.023
N_PAIRS = 20


def schedule_value(scheduler, oracle, pairs, recovery_cost):
    """Mean modeled throughput of a schedule, net of recovery overhead."""
    values = []
    for a, b in pairs:
        run = oracle.run(a, b)
        rate = run.droops.event_rate(MARGIN)
        overhead = rate * recovery_cost
        values.append(run.throughput_ipc / (1.0 + overhead))
    return float(np.mean(values))


def test_ablation_hybrid_exponent(benchmark, quick):
    def experiment():
        campaign = get_campaign("Proc3", n_cycles=25_000)
        oracle = GroupOracle(campaign)
        scheduler = BatchScheduler(oracle, programs=QUICK_SPEC_SUBSET)
        results = {}
        for cost in (FINE_COST, COARSE_COST):
            scores = []
            for n in EXPONENTS:
                pairs = scheduler.build_schedule(
                    HybridPolicy(n), n_pairs=N_PAIRS, seed=21
                )
                scores.append(schedule_value(scheduler, oracle, pairs, cost))
            results[cost] = scores
        return results

    results = run_once(benchmark, experiment)
    fine = np.array(results[FINE_COST])
    coarse = np.array(results[COARSE_COST])

    # With cheap recovery, droop-avoidance buys little: small exponents
    # are at least as good as the most aggressive one.
    assert fine[:3].max() >= fine[-1] * 0.995
    # With expensive recovery, droop-heavy exponents win clearly over
    # pure IPC (n = 0).
    assert coarse[2:].max() > coarse[0]
    # The optimal exponent does not decrease as recovery coarsens.
    assert int(np.argmax(coarse)) >= int(np.argmax(fine))

    # The builder honours n as a knob at all (schedules differ).
    assert not np.allclose(fine, fine[0])
