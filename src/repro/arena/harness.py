"""The arena harness: every policy, one suite, one scorecard each.

One :func:`run_arena` call measures a named workload suite on an N-core
campaign, asks every requested policy for a partition schedule, and
scores the schedules on a common footing:

* **throughput** — mean group IPC;
* **droop overhead** — droop events per 1K cycles, and the fraction of
  cycles lost to error recovery at the platform's recovery cost;
* **energy proxy** — relative dynamic energy if each group ran at its
  minimal safe supply (the deeper a group's worst droop, the higher the
  set-point it needs to clear the critical voltage);
* **oracle regret** — droop-rate distance above the exhaustive-search
  optimum (``None`` when the pool is too large to search).

Campaigns come from :mod:`repro.experiments.context` unless a test hands
one in, so arena runs inherit the cached parallel executor, tracing
spans and fault-tolerant retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import observability as obs
from repro.arena.oracle import (
    DEFAULT_SEARCH_LIMIT,
    OracleBaseline,
    exhaustive_baseline,
)
from repro.arena.suites import suite_programs
from repro.core.policies import build_policies
from repro.core.scheduler import Group, GroupOracle, Schedule, validate_cover
from repro.errors import SchedulingError
from repro.measurement.campaign import MeasurementCampaign
from repro.pdn import platform
from repro.pdn.undervolt import CRITICAL_VOLTAGE, OPERATING_MARGIN

#: Cycles one error recovery costs (the paper's mid-range rollback
#: mechanism; Tab. I / Fig. 8 sweep 1..100K around it).
DEFAULT_RECOVERY_COST = 100.0

#: Arena defaults: decap config and window length.  Proc3 is the noisy
#: future node where placement matters most; 12K cycles keeps a full
#: suite sweep interactive.
DEFAULT_CONFIG = "Proc3"
DEFAULT_CYCLES = 12_000


@dataclass(frozen=True)
class PolicyScorecard:
    """One policy's scored schedule on one suite."""

    policy: str
    name: str
    schedule: Schedule
    mean_ipc: float
    droops_per_1k: float
    recovery_overhead: float
    energy_proxy: float
    oracle_regret: Optional[float]


@dataclass(frozen=True)
class ArenaResult:
    """One full arena run: context, baseline, and the ranked scorecards."""

    suite: str
    programs: Tuple[str, ...]
    n_cores: int
    config: str
    n_cycles: int
    seed: int
    recovery_cost: float
    oracle: Optional[OracleBaseline]
    scorecards: Tuple[PolicyScorecard, ...]

    def scorecard(self, policy: str) -> PolicyScorecard:
        """Look one policy's scorecard up by registry key."""
        for card in self.scorecards:
            if card.policy == policy:
                return card
        raise SchedulingError(f"no scorecard for policy {policy!r}")


def _prefetch_pool(
    oracle: GroupOracle, pool: Tuple[str, ...], n_cores: int
) -> None:
    """Warm every measurement the policies and baseline may query.

    Solo runs (stall/packing knowledge) plus all sorted groupings of
    each size the greedy builders touch — one executor fan-out, so
    ``--jobs N`` parallelizes the whole arena's measurement load.
    """
    groups: List[Group] = [(name,) for name in pool]
    for size in range(2, min(n_cores, len(pool)) + 1):
        groups.extend(combinations(pool, size))
    oracle.prefetch_groups(groups)


def _energy_proxy(max_droops: Sequence[float]) -> float:
    """Relative dynamic energy at each group's minimal safe set-point.

    A group whose worst droop is ``d`` (fraction of its supply) needs a
    set-point of at least ``V_crit / (1 - d)`` to stay above the
    critical voltage; dynamic energy scales with the square of supply.
    1.0 ≈ every group running at the full worst-case guardband.
    """
    nominal_floor = CRITICAL_VOLTAGE / platform.NOMINAL_VOLTAGE
    levels = [nominal_floor / (1.0 - d) for d in max_droops]
    reference = nominal_floor / (1.0 - OPERATING_MARGIN)
    return float(np.mean([(v / reference) ** 2 for v in levels]))


def score_schedule(
    schedule: Schedule,
    oracle: GroupOracle,
    name: str,
    recovery_cost: float,
    baseline: Optional[OracleBaseline],
) -> PolicyScorecard:
    """Score one validated, canonical schedule against the oracle."""
    droops = [oracle.droop_metric(*g) for g in schedule.groups]
    ipcs = [oracle.ipc_metric(*g) for g in schedule.groups]
    max_droops = [oracle.max_droop_metric(*g) for g in schedule.groups]
    droops_per_1k = float(np.mean(droops))
    regret = (
        None
        if baseline is None
        else max(0.0, droops_per_1k - baseline.droops_per_1k)
    )
    return PolicyScorecard(
        policy=schedule.policy,
        name=name,
        schedule=schedule,
        mean_ipc=float(np.mean(ipcs)),
        droops_per_1k=droops_per_1k,
        recovery_overhead=droops_per_1k * recovery_cost / 1000.0,
        energy_proxy=_energy_proxy(max_droops),
        oracle_regret=regret,
    )


def rank(
    scorecards: Sequence[PolicyScorecard],
) -> Tuple[PolicyScorecard, ...]:
    """Deterministic ranking: least droop overhead first.

    Ties break toward higher throughput, then the stable policy key —
    never arrival order.
    """
    return tuple(
        sorted(
            scorecards,
            key=lambda card: (
                card.droops_per_1k,
                -card.mean_ipc,
                card.policy,
            ),
        )
    )


def run_arena(
    suite: str = "micro",
    n_cores: int = 2,
    policies: Optional[Sequence[str]] = None,
    config: str = DEFAULT_CONFIG,
    n_cycles: int = DEFAULT_CYCLES,
    seed: int = 0,
    recovery_cost: float = DEFAULT_RECOVERY_COST,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
    campaign: Optional[MeasurementCampaign] = None,
) -> ArenaResult:
    """Benchmark every requested policy head-to-head on one suite.

    ``policies=None`` runs the whole registry.  ``campaign=None`` builds
    (or reuses) the shared context campaign for ``config``/``n_cores`` —
    the normal CLI path; tests pass a hermetic campaign instead.  The
    result is bit-identical for equal arguments, whatever the executor's
    job count or cache state.
    """
    pool = suite_programs(suite)
    if n_cores < 2:
        raise SchedulingError("arena needs n_cores >= 2")
    if campaign is None:
        from repro.experiments.context import get_campaign

        campaign = get_campaign(
            config, n_cycles=n_cycles, seed=seed, n_cores=n_cores
        )
    elif campaign.chip.n_cores < n_cores:
        raise SchedulingError(
            f"campaign chip has {campaign.chip.n_cores} cores; "
            f"arena wants {n_cores}"
        )
    arena_policies = build_policies(policies)
    with obs.span(
        "arena.run",
        suite=suite,
        cores=n_cores,
        policies=len(arena_policies),
    ):
        obs.increment("repro_arena_runs_total")
        oracle = GroupOracle(campaign)
        _prefetch_pool(oracle, pool, n_cores)
        baseline = exhaustive_baseline(
            pool, n_cores, oracle, limit=search_limit
        )
        scorecards: List[PolicyScorecard] = []
        for policy in arena_policies:
            schedule = validate_cover(
                policy.propose(pool, n_cores, oracle, seed).canonical(),
                pool,
            )
            obs.increment("repro_arena_policies_total")
            obs.increment(
                "repro_arena_groups_total", len(schedule.groups)
            )
            scorecards.append(
                score_schedule(
                    schedule, oracle, policy.name, recovery_cost, baseline
                )
            )
    return ArenaResult(
        suite=suite,
        programs=pool,
        n_cores=n_cores,
        config=campaign.config,
        n_cycles=campaign.n_cycles,
        seed=seed,
        recovery_cost=float(recovery_cost),
        oracle=baseline,
        scorecards=rank(scorecards),
    )
