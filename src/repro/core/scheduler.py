"""The oracle-based batch co-scheduling experiment (Sec. IV-C/D).

The paper's limit study: gather droop and IPC data for all 29x29 CPU2006
pairings a priori (the *oracle*), then let each policy build batch
schedules from a job pool and compare the resulting droop/performance
trade-off against the SPECrate baseline (Fig. 18), and the number of
schedules that still meet the typical-case design target as recovery costs
grow (Tab. I, Fig. 19).

The machinery is N-core: :class:`GroupOracle` measures any co-running
group the campaign's chip can host, :class:`BatchScheduler` places
groups of ``group_size`` programs, and :class:`Schedule` is the arena's
partition of a job pool over N-core supplies.  The paper's dual-core
limit study is the ``group_size=2`` special case, and its behavior — the
exact random streams, candidate orders and scores — is bit-identical to
the historical pair-only implementation (pinned by
``tests/arena/test_pair_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import observability as obs
from repro.errors import SchedulingError
from repro.measurement.campaign import MeasurementCampaign, RunMeasurement
from repro.measurement.droops import CHARACTERIZATION_MARGIN
from repro.random_utils import SeedLike, as_generator

Pair = Tuple[str, str]
#: An N-core co-running group (2-tuples are the paper's pairs).
Group = Tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    """One policy's placement of a job pool onto N-core supplies.

    A partition cover: every program of the pool sits in exactly one
    co-running group.  This is the batch-window view of scheduling (one
    pass over the pool), as opposed to :class:`BatchScheduler`'s
    job-stream view where programs repeat; partitions make policies
    directly comparable — every policy spends the same core-cycles on the
    same work, so throughput, droop overhead and energy differences are
    attributable to *placement* alone.
    """

    #: Registry key of the policy that proposed it.
    policy: str
    #: Cores per shared supply (max group size).
    n_cores: int
    #: The co-running groups; together they cover the pool.
    groups: Tuple[Group, ...]

    @property
    def programs(self) -> Tuple[str, ...]:
        """Every placed program, in group order."""
        return tuple(name for group in self.groups for name in group)

    def canonical(self) -> "Schedule":
        """Sort members within groups and groups among themselves.

        Group-member order is simulation-relevant (core 0 vs core 1 draw
        different derived streams), so the harness always evaluates the
        canonical form — making every score invariant under the member
        orderings a symmetric policy might emit.
        """
        groups = tuple(sorted(tuple(sorted(g)) for g in self.groups))
        return replace(self, groups=groups)


def validate_cover(
    schedule: Schedule, programs: Sequence[str]
) -> Schedule:
    """Check the permutation-complete-cover contract; return the schedule.

    Every program of the pool appears exactly once across the groups, no
    group is empty, and no group holds more members than the supply has
    cores.  Violations raise :class:`~repro.errors.SchedulingError`
    naming the offending policy.
    """
    for group in schedule.groups:
        if not 1 <= len(group) <= schedule.n_cores:
            raise SchedulingError(
                f"policy {schedule.policy!r} emitted a group of "
                f"{len(group)} for {schedule.n_cores} cores: {group!r}"
            )
    placed = sorted(schedule.programs)
    expected = sorted(programs)
    if placed != expected:
        raise SchedulingError(
            f"policy {schedule.policy!r} did not cover the pool exactly "
            f"once: placed {placed!r}, expected {expected!r}"
        )
    return schedule


def group_sizes(n_programs: int, n_cores: int) -> Tuple[int, ...]:
    """Canonical group sizes for a pool: full supplies plus a remainder.

    ``group_sizes(10, 4) == (4, 4, 2)`` — every supply filled, with at
    most one under-filled group soaking up the remainder (its idle cores
    run the idle loop during measurement).
    """
    if n_cores < 2:
        raise SchedulingError("n_cores must be >= 2")
    if n_programs < 1:
        raise SchedulingError("need at least one program")
    full, remainder = divmod(n_programs, n_cores)
    return (n_cores,) * full + ((remainder,) if remainder else ())


def _count_schedule(groups: Tuple[Group, ...]) -> Tuple[Group, ...]:
    """Record one built schedule in the metrics registry (pass-through)."""
    obs.increment("repro_schedules_built_total")
    obs.increment("repro_schedule_pairs_total", len(groups))
    return groups


class GroupOracle:
    """A-priori droop and IPC data for co-running workload groups.

    The paper gathers this in a pre-run phase over all 29x29 program
    combinations; here each grouping is measured (and cached) on the
    campaign's simulated chip — which may have any number of cores.  The
    droop metric counts distinct droop excursions beyond the 2.3 %
    characterization margin per 1K cycles; the IPC metric is the group's
    summed throughput.
    """

    def __init__(
        self,
        campaign: MeasurementCampaign,
        margin: float = CHARACTERIZATION_MARGIN,
    ) -> None:
        self._campaign = campaign
        self._margin = float(margin)

    @property
    def campaign(self) -> MeasurementCampaign:
        return self._campaign

    @property
    def margin(self) -> float:
        return self._margin

    def run(self, *names: str) -> RunMeasurement:
        kind = "single" if len(names) == 1 else "multiprogram"
        return self._campaign.measure(*names, kind=kind)

    def prefetch(self, names: Sequence[str]) -> None:
        """Gather the pair oracle's a-priori table in one executor fan-out.

        Batches every pairing (and each program's solo run) the policies
        can query through ``measure_specs``, so scoring afterwards is
        pure memo lookups — this is where ``--jobs N`` pays off for the
        scheduling experiments.
        """
        campaign = self._campaign
        with obs.span("oracle.prefetch", programs=len(names)):
            campaign.measure_specs(
                [campaign.run_spec(a, kind="single") for a in names]
                + [
                    campaign.run_spec(a, b, kind="multiprogram")
                    for a in names
                    for b in names
                ]
            )

    def prefetch_groups(self, groups: Sequence[Group]) -> None:
        """Gather an explicit list of group measurements in one fan-out.

        The N-core analogue of :meth:`prefetch`: enumerating every
        *ordered* group is combinatorial, so callers (the arena harness)
        hand over exactly the groups their policies may query — typically
        all sorted combinations of the job pool plus the solo runs.
        """
        campaign = self._campaign
        with obs.span("oracle.prefetch", groups=len(groups)):
            campaign.measure_specs(
                [
                    campaign.run_spec(
                        *group,
                        kind="single" if len(group) == 1 else "multiprogram",
                    )
                    for group in groups
                ]
            )

    def droop_metric(self, *names: str) -> float:
        """Droop excursions beyond the margin per 1K cycles."""
        run = self.run(*names)
        return 1000.0 * run.droops.event_rate(self._margin)

    def ipc_metric(self, *names: str) -> float:
        """Summed group throughput (instructions per cycle)."""
        return self.run(*names).throughput_ipc

    def max_droop_metric(self, *names: str) -> float:
        """Deepest droop excursion of the group (fraction of nominal).

        The margin-headroom quantity the DVFS-guardband policies consume:
        a group whose worst droop is shallow can run at a reduced
        guardband (see :mod:`repro.pdn.undervolt`).
        """
        return self.run(*names).max_droop

    def stall_metric(self, name: str) -> float:
        """One program's solo stall ratio (counter-only knowledge).

        Unlike :meth:`droop_metric` this needs no group measurements — a
        real scheduler can read it from hardware counters while the
        program runs alone, which is what makes the stall-ratio proxy
        deployable (Fig. 15).
        """
        run = self._campaign.measure(name, kind="single")
        return run.counters[0].stall_ratio

    def solo_ipc_metric(self, name: str) -> float:
        """One program's solo throughput (for packing heuristics)."""
        return self._campaign.measure(name, kind="single").throughput_ipc


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Aggregate droop/performance of one batch schedule."""

    policy_name: str
    groups: Tuple[Group, ...]
    mean_droops: float
    mean_ipc: float

    def normalized_to(self, baseline: "ScheduleEvaluation") -> Tuple[float, float]:
        """(droop ratio, performance ratio) relative to a baseline.

        These are the Fig. 18 scatter coordinates: SPECrate sits at
        (1, 1); quadrant Q1 is droops < 1 with performance > 1.
        """
        if baseline.mean_droops <= 0 or baseline.mean_ipc <= 0:
            raise SchedulingError("baseline evaluation is degenerate")
        return (
            self.mean_droops / baseline.mean_droops,
            self.mean_ipc / baseline.mean_ipc,
        )


class BatchScheduler:
    """Builds and evaluates batch schedules from a job pool.

    Parameters
    ----------
    oracle:
        Grouping data source.
    programs:
        The job pool (defaults to the whole CPU2006 suite known to the
        oracle's campaign).
    group_size:
        Programs co-scheduled per supply — the chip's core count as seen
        by the scheduler.  ``2`` reproduces the paper's dual-core study.

    The ``policy`` arguments are :class:`repro.core.policies.SchedulingPolicy`
    instances, typed ``Any`` here because that module builds on this one.
    Only group scorers fit the job-stream walk: a whole-partition policy's
    ``score_group`` raises :class:`~repro.errors.SchedulingError`.
    """

    def __init__(
        self,
        oracle: GroupOracle,
        programs: Optional[Sequence[str]] = None,
        group_size: int = 2,
    ) -> None:
        if programs is None:
            from repro.workloads.spec import SPEC_NAMES

            programs = SPEC_NAMES
        if group_size < 2:
            raise SchedulingError("group_size must be >= 2")
        if len(programs) < 2:
            raise SchedulingError("need at least two programs")
        self._oracle = oracle
        self._programs = tuple(programs)
        self._group_size = int(group_size)

    @property
    def programs(self) -> Tuple[str, ...]:
        return self._programs

    @property
    def group_size(self) -> int:
        return self._group_size

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def build_schedule(
        self,
        policy: Any,
        n_pairs: int = 50,
        max_repeats: Optional[int] = None,
        seed: SeedLike = None,
    ) -> Tuple[Group, ...]:
        """Choose ``n_pairs`` co-running groups under a repetition constraint.

        Placement walks the pool favouring the least-used program (so no
        program is starved, matching the paper's constraint on repeated
        choices) and asks the policy to score candidate group extensions
        until each group holds ``group_size`` members.
        """
        if n_pairs < 1:
            raise SchedulingError("n_pairs must be >= 1")
        if max_repeats is None:
            max_repeats = max(
                2,
                int(np.ceil(self._group_size * n_pairs / len(self._programs))),
            )
        rng = as_generator(seed)
        usage: Dict[str, int] = {name: 0 for name in self._programs}
        groups: List[Group] = []
        for _ in range(n_pairs):
            available = [p for p in self._programs if usage[p] < max_repeats]
            if len(available) < 1:
                raise SchedulingError(
                    "job pool exhausted; raise max_repeats or lower n_pairs"
                )
            # Place the least-used program first (random tie-break).
            min_usage = min(usage[p] for p in available)
            anchors = [p for p in available if usage[p] == min_usage]
            anchor = anchors[int(rng.integers(0, len(anchors)))]
            group: List[str] = [anchor]
            while len(group) < self._group_size:
                in_group: Dict[str, int] = {}
                for member in group:
                    in_group[member] = in_group.get(member, 0) + 1
                candidates = [
                    p
                    for p in self._programs
                    if usage[p] + in_group.get(p, 0) + 1 <= max_repeats
                ]
                if not candidates:
                    candidates = [anchor]
                scores = np.array([
                    policy.score_group(tuple(group) + (partner,), self._oracle)
                    for partner in candidates
                ])
                group.append(candidates[int(np.argmax(scores))])
            for member in group:
                usage[member] += 1
            groups.append(tuple(group))
        return _count_schedule(tuple(groups))

    def specrate_schedule(self, n_pairs: Optional[int] = None) -> Tuple[Group, ...]:
        """The SPECrate baseline: each program grouped with itself."""
        groups = [(name,) * self._group_size for name in self._programs]
        if n_pairs is None:
            return tuple(groups)
        repeated = (groups * (n_pairs // len(groups) + 1))[:n_pairs]
        return tuple(repeated)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        groups: Sequence[Group],
        policy_name: str = "",
    ) -> ScheduleEvaluation:
        """Mean droop and IPC metrics over one schedule's groups."""
        if not groups:
            raise SchedulingError("empty schedule")
        with obs.span(
            "scheduler.evaluate", policy=policy_name, pairs=len(groups)
        ):
            droops = [self._oracle.droop_metric(*g) for g in groups]
            ipcs = [self._oracle.ipc_metric(*g) for g in groups]
        return ScheduleEvaluation(
            policy_name=policy_name,
            groups=tuple(tuple(g) for g in groups),
            mean_droops=float(np.mean(droops)),
            mean_ipc=float(np.mean(ipcs)),
        )

    def run_policy(
        self,
        policy: Any,
        n_pairs: int = 50,
        seed: SeedLike = None,
    ) -> ScheduleEvaluation:
        """Build and evaluate one batch schedule for a policy."""
        groups = self.build_schedule(policy, n_pairs=n_pairs, seed=seed)
        return self.evaluate(groups, policy_name=policy.name)

    # ------------------------------------------------------------------
    # Pass/fail analysis (Tab. I / Fig. 19)
    # ------------------------------------------------------------------
    def partner_map(
        self,
        policy: Any,
        max_partner_load: int = 2,
        seed: SeedLike = None,
    ) -> Dict[str, str]:
        """One partner per program, chosen by the policy.

        Used by the Fig. 19 analysis: instead of SPECrate's self-pairing,
        each program gets the policy's preferred (capacity-limited)
        partner.  Pair-shaped by construction, whatever the group size.
        """
        rng = as_generator(seed)
        load: Dict[str, int] = {name: 0 for name in self._programs}
        partners: Dict[str, str] = {}
        # Assign anchors in random order so capacity limits bite fairly.
        order = list(self._programs)
        rng.shuffle(order)
        for anchor in order:
            candidates = [
                p for p in self._programs if load[p] < max_partner_load
            ]
            if not candidates:
                candidates = list(self._programs)
            scores = np.array([
                policy.score_group((anchor, partner), self._oracle)
                for partner in candidates
            ])
            partner = candidates[int(np.argmax(scores))]
            load[partner] += 1
            partners[anchor] = partner
        return partners
