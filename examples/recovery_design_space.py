#!/usr/bin/env python
"""Pick a recovery mechanism — and see what software buys you.

Walks the recovery-mechanism catalog (Razor → DeCoR → prediction →
production checkpointing) through the resilience model on the noisy Proc3
node, then shows how the two software assists shift the picture:

1. the closed-loop voltage-guided throttle cuts the emergency rate
   directly (fewer recoveries at any margin);
2. droop-aware co-scheduling lets a coarse, non-intrusive mechanism meet
   targets that otherwise need intrusive fine-grained hardware.

Run:  python examples/recovery_design_space.py
"""

import numpy as np

from repro import MeasurementCampaign, ResilientDesignModel
from repro.core.recovery import (
    MECHANISMS,
    evaluate_mechanisms,
    non_intrusive_mechanisms,
)
from repro.core.predictor import VoltageGuidedThrottle
from repro.measurement.droops import CHARACTERIZATION_MARGIN, detect_droops
from repro.pdn.platform import CLOCK_PERIOD_S, DEFAULT_PARAMETERS
from repro.pdn.simulate import VoltageTrace
from repro.uarch.chip import Chip
from repro.uarch.core import Core
from repro.workloads.microbenchmarks import IdleLoop
from repro.workloads.spec import spec_benchmark

SUBSET = ("gamess", "lbm", "libquantum", "mcf", "namd",
          "povray", "sphinx", "tonto")


def main() -> None:
    campaign = MeasurementCampaign("Proc3", n_cycles=30_000, seed=0)
    runs = campaign.all_runs(SUBSET, ("canneal", "streamcluster"))
    model = ResilientDesignModel([r.tail_model() for r in runs])

    print("== Recovery-mechanism catalog on Proc3 ==")
    results = evaluate_mechanisms(model)
    for mechanism in MECHANISMS:
        optimum = results[mechanism.name]
        tag = "intrusive" if mechanism.intrusive else "shipping "
        print(f"  [{tag}] {mechanism.name:34s} "
              f"cost {mechanism.cost_cycles:>7.0f} cy  "
              f"margin {optimum.margin:5.1%}  "
              f"improvement {optimum.improvement:+6.1%}")
    print()
    viable = [m for m in non_intrusive_mechanisms()
              if results[m.name].improvement > 0.05]
    print(f"non-intrusive mechanisms clearing +5%: "
          f"{[m.name for m in viable] or 'none'}")
    print()

    # --- software assist 1: the voltage-guided throttle ----------------
    print("== Closed-loop throttling on the noisiest benchmark ==")
    chip = Chip("Proc3", with_ripple=True, slack_coupling=0.0)
    core = Core()
    idle = IdleLoop()
    n = 30_000
    activity = core.realize_activity(
        spec_benchmark("mcf").sample_window(n, rng=1)
    )
    other = core.current_from_activity(
        core.realize_activity(idle.sample_window(n, rng=2))
    ) + 2.0
    ripple = DEFAULT_PARAMETERS.vrm.ripple(
        n, CLOCK_PERIOD_S, chip.nominal_voltage, seed=3
    )
    raw = VoltageGuidedThrottle(
        chip, arm_margin=0.5, slew_per_cycle=1.0, hold_cycles=1
    ).run(activity, other, ripple=ripple)
    guided = VoltageGuidedThrottle(chip).run(activity, other, ripple=ripple)

    def rate(voltage):
        trace = VoltageTrace(voltage, CLOCK_PERIOD_S, chip.nominal_voltage)
        return detect_droops(trace).event_rate(CHARACTERIZATION_MARGIN)

    print(f"  emergency rate: {rate(raw.voltage):.2e} -> "
          f"{rate(guided.voltage):.2e} per cycle")
    print(f"  throughput cost: "
          f"{guided.throughput_loss_fraction(activity):.1%}, "
          f"throttle duty {guided.engaged_fraction:.1%}")
    print()

    # --- software assist 2: what scheduling buys the coarse schemes ----
    print("== Coarse recovery + droop-aware scheduling ==")
    from repro.core import BatchScheduler, DroopPolicy, GroupOracle

    oracle = GroupOracle(campaign)
    scheduler = BatchScheduler(oracle, programs=SUBSET)
    baseline = scheduler.evaluate(scheduler.specrate_schedule(), "SPECrate")
    droop_eval = scheduler.run_policy(DroopPolicy(), n_pairs=16, seed=5)
    droops_rel, perf_rel = droop_eval.normalized_to(baseline)
    coarse = MECHANISMS[-1]
    print(f"  Droop scheduling: {droops_rel:.2f}x emergencies at "
          f"{perf_rel:.2f}x throughput vs SPECrate")
    print(f"  -> with '{coarse.name}' ({coarse.cost_cycles:.0f} cy), "
          f"recovery overhead scales by the same {droops_rel:.2f}x factor")
    print()
    print("Software assists make the cheap shipping mechanisms usable —")
    print("the paper's thesis, end to end.")


if __name__ == "__main__":
    main()
