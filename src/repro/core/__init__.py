"""The paper's primary contribution: typical-case design + noise-aware scheduling.

* :mod:`repro.core.resilience` — the performance model of Sec. III-B: how
  much a resilient (typical-case) design gains as a function of operating
  margin, error-recovery cost and workload emergency rates (Figs. 8-10,
  Tab. I).
* :mod:`repro.core.stall_ratio` — the stall-ratio metric and its
  correlation with droop activity (Fig. 15).
* :mod:`repro.core.phases` — voltage-noise phases over program execution
  (Fig. 14) and phase-change detection.
* :mod:`repro.core.interference` — single-core event swings (Fig. 12),
  the cross-core event interference matrix (Fig. 13) and the sliding-window
  co-schedule experiment (Fig. 16).
* :mod:`repro.core.scheduler` — the pairing oracle, the batch
  co-scheduling experiment with its SPECrate baseline, the pass/fail
  analysis of Figs. 18-19 and Tab. I, and the arena's partition schedules.
* :mod:`repro.core.policies` — scheduling policies: the paper's Droop,
  IPC, IPC/Droop^n and Random, the stall-ratio proxy, and the arena's
  RandomN, IPC-packing and DVFS-margin placements, keyed for
  :func:`~repro.core.policies.build_policies`.
"""

from repro.core.resilience import (
    OptimalMargin,
    RECOVERY_COSTS,
    ResilienceParameters,
    ResilientDesignModel,
    performance_improvement,
)
from repro.core.stall_ratio import StallCorrelationResult, stall_droop_correlation
from repro.core.phases import (
    NoiseTimeline,
    count_phase_changes,
    measure_noise_timeline,
    oscillation_period_intervals,
)
from repro.core.interference import (
    SlidingWindowResult,
    event_interference_matrix,
    idle_baseline_pkpk,
    single_core_event_swings,
    sliding_window_experiment,
)
from repro.core.scheduler import (
    BatchScheduler,
    Group,
    GroupOracle,
    Schedule,
    ScheduleEvaluation,
    group_sizes,
    validate_cover,
)
from repro.core.policies import (
    DroopPolicy,
    DVFSMarginPolicy,
    HybridPolicy,
    IPCPackingPolicy,
    IPCPolicy,
    RandomNPolicy,
    RandomPolicy,
    SchedulingPolicy,
    StallRatioPolicy,
    build_policies,
    registered_keys,
)

__all__ = [
    "OptimalMargin",
    "RECOVERY_COSTS",
    "ResilienceParameters",
    "ResilientDesignModel",
    "performance_improvement",
    "StallCorrelationResult",
    "stall_droop_correlation",
    "NoiseTimeline",
    "count_phase_changes",
    "measure_noise_timeline",
    "oscillation_period_intervals",
    "SlidingWindowResult",
    "event_interference_matrix",
    "idle_baseline_pkpk",
    "single_core_event_swings",
    "sliding_window_experiment",
    "BatchScheduler",
    "Group",
    "GroupOracle",
    "Schedule",
    "ScheduleEvaluation",
    "group_sizes",
    "validate_cover",
    "DroopPolicy",
    "DVFSMarginPolicy",
    "HybridPolicy",
    "IPCPackingPolicy",
    "IPCPolicy",
    "RandomNPolicy",
    "RandomPolicy",
    "SchedulingPolicy",
    "StallRatioPolicy",
    "build_policies",
    "registered_keys",
]
