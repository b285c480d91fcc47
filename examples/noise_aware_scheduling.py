#!/usr/bin/env python
"""Noise-aware thread scheduling (Sec. IV of the paper).

Builds the pairing oracle on the noisy Proc3 processor, lets each policy
construct a batch schedule from a CPU2006 job pool, and compares the
resulting droop/performance trade-off against the SPECrate baseline —
the Fig. 18 experiment — plus each benchmark's preferred partner under
the Droop policy.

Run:  python examples/noise_aware_scheduling.py
"""

from repro import (
    BatchScheduler,
    DroopPolicy,
    GroupOracle,
    HybridPolicy,
    IPCPolicy,
    MeasurementCampaign,
)
from repro.core.policies import RandomPolicy

POOL = (
    "astar", "gamess", "lbm", "libquantum", "mcf",
    "namd", "povray", "sjeng", "sphinx", "tonto",
)
N_PAIRS = 20


def main() -> None:
    campaign = MeasurementCampaign("Proc3", n_cycles=30_000, seed=0)
    oracle = GroupOracle(campaign)
    scheduler = BatchScheduler(oracle, programs=POOL)

    baseline = scheduler.evaluate(
        scheduler.specrate_schedule(), policy_name="SPECrate"
    )
    print(f"SPECrate baseline: {baseline.mean_droops:.2f} droop events/1K, "
          f"{baseline.mean_ipc:.2f} IPC")
    print()
    print("== Policy comparison (Fig. 18 coordinates; SPECrate = 1.0/1.0) ==")
    policies = [
        DroopPolicy(),
        IPCPolicy(),
        HybridPolicy(1.0),
        HybridPolicy.for_recovery_cost(100_000),
        RandomPolicy(seed=7),
    ]
    for policy in policies:
        evaluation = scheduler.run_policy(policy, n_pairs=N_PAIRS, seed=3)
        droops, perf = evaluation.normalized_to(baseline)
        print(f"  {policy.name:18s} droops {droops:5.2f}x   perf {perf:5.2f}x")
    print()

    print("== Droop policy's preferred partners ==")
    partners = scheduler.partner_map(DroopPolicy(), seed=5)
    for program in POOL:
        partner = partners[program]
        rate = oracle.droop_metric(program, partner)
        self_rate = oracle.droop_metric(program, program)
        print(f"  {program:11s} -> {partner:11s} "
              f"({rate:5.2f} vs {self_rate:5.2f} events/1K self-paired)")
    print()
    print("Droop-aware pairing exploits destructive interference that the")
    print("IPC-only scheduler cannot see (paper: Fig. 18, Q1).")


if __name__ == "__main__":
    main()
