"""Co-scheduling policies (Sec. IV-C) and the arena's policy table.

A policy places programs onto shared-supply core groups.  The paper
compares:

* **Droop** — minimize predicted chip-wide droops (emergency recoveries);
  the paper's proposed noise-aware policy.
* **IPC** — maximize predicted pair throughput; the classic
  contention-aware performance policy.
* **IPC/Droop^n** — the hybrid the paper proposes for balancing the two,
  with the exponent ``n`` growing with the platform's recovery cost.
* **Random** — the control; mimics SPECrate's indifference to noise.

The SPECrate baseline (every program grouped with copies of itself) is
not a policy: :meth:`repro.core.scheduler.BatchScheduler.specrate_schedule`
builds it directly.

Every policy is one :class:`SchedulingPolicy` with a stable ``key``.
Group scorers implement :meth:`SchedulingPolicy.score_group`, which
scores a whole co-running group of any size; the batch scheduler's
job-stream walk and the default :meth:`SchedulingPolicy.propose` — the
greedy partition builder the policy arena (:mod:`repro.arena`) runs —
both pick the best-scoring extension.  :class:`RandomNPolicy` and
:class:`IPCPackingPolicy` place whole partitions instead and override
``propose`` only; :class:`DVFSMarginPolicy` scores guardband headroom at
reduced margins (PAPERS.md: the dim-silicon / reduced-margin DVFS line
of work).

``propose`` is stateless: all randomness derives from its seed argument
via :func:`repro.random_utils.derive_generator`, so equal seeds give
bit-identical schedules regardless of construction order or how many
times an instance is reused.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.scheduler import Group, GroupOracle, Schedule, group_sizes
from repro.errors import ConfigurationError, SchedulingError
from repro.pdn.undervolt import OPERATING_MARGIN
from repro.random_utils import SeedLike, as_generator, derive_generator

#: Droop rates can be zero for quiet pairs; the hybrid metric floors them.
DROOP_EPSILON = 1e-7


def _pool(programs: Sequence[str]) -> List[str]:
    pool = sorted(programs)
    if len(pool) < 2:
        raise SchedulingError("arena pools need at least two programs")
    if len(set(pool)) != len(pool):
        raise SchedulingError("arena pools must not repeat programs")
    return pool


class SchedulingPolicy:
    """Places programs onto shared-supply groups; higher scores are better."""

    #: Registry key (stable, kebab-case; doubles as the seed-stream key).
    key: str = "policy"
    #: Human-readable scorecard name.
    name: str = "policy"
    #: Does the policy depend only on the *set* of group members (not
    #: their order)?  Symmetric policies may canonicalize group order
    #: before querying the oracle; the arena's property suite checks the
    #: claim dynamically.
    symmetric: bool = True

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        """Desirability of co-running ``group`` on one supply."""
        raise SchedulingError(
            f"policy {self.key!r} places whole partitions; it scores no groups"
        )

    def propose(
        self,
        programs: Sequence[str],
        n_cores: int,
        oracle: GroupOracle,
        seed: SeedLike,
    ) -> Schedule:
        """Place every program exactly once into groups of ≤ n_cores.

        The greedy partition builder: the pool is walked in sorted order,
        the smallest unplaced program leads each group and
        :meth:`score_group` picks the best extension until the group
        fills.  Candidate groups are canonicalized (sorted) before
        scoring, so deterministic scorers are order-invariant by
        construction.
        """
        remaining = _pool(programs)
        groups: List[Group] = []
        for size in group_sizes(len(remaining), n_cores):
            group = [remaining.pop(0)]
            while len(group) < size:
                scores = np.array([
                    self.score_group(
                        tuple(sorted([*group, candidate])), oracle
                    )
                    for candidate in remaining
                ])
                group.append(remaining.pop(int(np.argmax(scores))))
            groups.append(tuple(sorted(group)))
        return Schedule(
            policy=self.key, n_cores=n_cores, groups=tuple(groups)
        )

    def rng(self, seed: SeedLike) -> np.random.Generator:
        """This policy's decorrelated stream for one arena run.

        Derived from the campaign seed and the policy key, so two
        policies in the same run — or the same policy across runs —
        never share entropy.
        """
        return derive_generator(seed, "arena", "policy", self.key)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}()"


class DroopPolicy(SchedulingPolicy):
    """Minimize chip-wide droop (emergency) rates."""

    key = "droop"
    name = "Droop"

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        return -oracle.droop_metric(*group)


class IPCPolicy(SchedulingPolicy):
    """Maximize group throughput (sum of the co-running cores' IPC)."""

    key = "ipc"
    name = "IPC"

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        return oracle.ipc_metric(*group)


class HybridPolicy(SchedulingPolicy):
    """The paper's IPC/Droop^n metric.

    Small ``n`` weighs throughput (fine-grained recovery, cheap
    emergencies); large ``n`` weighs noise (coarse-grained recovery,
    expensive emergencies).
    """

    key = "hybrid"

    def __init__(self, exponent: float = 1.0) -> None:
        if exponent < 0:
            raise ConfigurationError("exponent must be non-negative")
        self.exponent = float(exponent)
        self.name = f"IPC/Droop^{exponent:g}"

    @classmethod
    def for_recovery_cost(cls, recovery_cost: float) -> "HybridPolicy":
        """Pick ``n`` from the platform's recovery cost.

        The paper argues n should be small for fine-grained schemes and
        larger for coarse-grained ones; a logarithmic ramp captures that.
        """
        if recovery_cost < 1:
            raise ConfigurationError("recovery_cost must be >= 1")
        exponent = 0.25 + 0.35 * np.log10(recovery_cost)
        return cls(exponent=float(exponent))

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        droops = max(oracle.droop_metric(*group), DROOP_EPSILON)
        return oracle.ipc_metric(*group) / droops**self.exponent


class StallRatioPolicy(SchedulingPolicy):
    """Droop avoidance from commodity counters only.

    A deployable approximation of :class:`DroopPolicy`: instead of oracle
    droop measurements per *group*, it uses each program's solo stall
    ratio — readable from performance counters on any machine, which is
    the software loop the paper's Fig. 15 correlation (droops ~ stall
    ratio, r = 0.97) licenses.  Scoring minimizes the group's *worst*
    stall ratio, which pairs stall-heavy programs with steady low-stall
    partners — the combination whose slack pickup dampens chip-wide
    current swings.
    """

    key = "stall"
    name = "StallRatio"

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        return -max(oracle.stall_metric(name) for name in group)


class RandomPolicy(SchedulingPolicy):
    """Uniformly random pairing (the paper's 100-random-schedules control).

    Scores are draws from the instance's own stream, so ordering claims
    do not hold: the policy is declared non-symmetric.  :meth:`propose`
    never touches that stream: each call scores with a fresh instance on
    :meth:`rng`'s campaign-derived stream.  Relying on the ``seed=None``
    default elsewhere makes every instance draw the same library-wide
    sequence and silently correlates "independent" random schedules.
    """

    key = "random"
    name = "Random"
    symmetric = False

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        return float(self._rng.random())

    def propose(
        self,
        programs: Sequence[str],
        n_cores: int,
        oracle: GroupOracle,
        seed: SeedLike,
    ) -> Schedule:
        # The greedy builder, scored by a fresh campaign-seeded instance.
        scorer = RandomPolicy(seed=self.rng(seed))
        return SchedulingPolicy.propose(scorer, programs, n_cores, oracle, seed)


class DVFSMarginPolicy(SchedulingPolicy):
    """Maximize margin headroom at a reduced guardband.

    Scores each group by how far its deepest droop stays inside a
    guardband *smaller* than the shipped worst case (default: half the
    14 % margin of Sec. II-C) — the placement that lets DVFS undervolt
    furthest without tripping the critical voltage
    (:mod:`repro.pdn.undervolt`).
    """

    key = "dvfs-margin"
    name = "DVFSMargin"

    def __init__(self, guardband_fraction: float = 0.5) -> None:
        if not 0 < guardband_fraction <= 1:
            raise ConfigurationError(
                "guardband_fraction must be in (0, 1]"
            )
        self.guardband_fraction = float(guardband_fraction)
        self.margin = self.guardband_fraction * OPERATING_MARGIN

    def score_group(self, group: Tuple[str, ...], oracle: GroupOracle) -> float:
        return self.margin - oracle.max_droop_metric(*group)


class RandomNPolicy(SchedulingPolicy):
    """Shuffle-and-chunk: one uniform random partition.

    Unlike :class:`RandomPolicy` (random *scores* inside the greedy
    walk), this draws a whole partition at once — the natural N-core
    null model for regret comparisons.
    """

    key = "random-n"
    name = "RandomN"
    symmetric = False

    def propose(
        self,
        programs: Sequence[str],
        n_cores: int,
        oracle: GroupOracle,
        seed: SeedLike,
    ) -> Schedule:
        pool = _pool(programs)
        permutation = self.rng(seed).permutation(len(pool))
        order = [pool[int(i)] for i in permutation]
        groups: List[Group] = []
        start = 0
        for size in group_sizes(len(order), n_cores):
            groups.append(tuple(sorted(order[start:start + size])))
            start += size
        return Schedule(
            policy=self.key, n_cores=n_cores, groups=tuple(groups)
        )


class IPCPackingPolicy(SchedulingPolicy):
    """Balance solo IPC across groups (serpentine load packing).

    Orders the pool by solo throughput and deals it boustrophedon over
    the groups, so every supply carries a comparable current load —
    the classic cluster bin-packing heuristic, using only per-program
    knowledge (no group measurements).
    """

    key = "ipc-packing"
    name = "IPCPacking"

    def propose(
        self,
        programs: Sequence[str],
        n_cores: int,
        oracle: GroupOracle,
        seed: SeedLike,
    ) -> Schedule:
        pool = _pool(programs)
        order = sorted(
            pool, key=lambda name: (-oracle.solo_ipc_metric(name), name)
        )
        n_groups = len(group_sizes(len(pool), n_cores))
        bins: List[List[str]] = [[] for _ in range(n_groups)]
        forward = True
        for start in range(0, len(order), n_groups):
            deal = range(n_groups) if forward else range(n_groups - 1, -1, -1)
            chunk = order[start:start + n_groups]
            for program, index in zip(chunk, deal):
                bins[index].append(program)
            forward = not forward
        groups = tuple(sorted(tuple(sorted(b)) for b in bins if b))
        return Schedule(policy=self.key, n_cores=n_cores, groups=groups)


#: The arena's policies by stable key.
_POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.key: cls
    for cls in (
        DroopPolicy,
        DVFSMarginPolicy,
        HybridPolicy,
        IPCPolicy,
        IPCPackingPolicy,
        RandomPolicy,
        RandomNPolicy,
        StallRatioPolicy,
    )
}


def registered_keys() -> Tuple[str, ...]:
    """Every arena policy key, sorted."""
    return tuple(sorted(_POLICIES))


def build_policies(
    keys: Optional[Sequence[str]] = None,
) -> Tuple[SchedulingPolicy, ...]:
    """Instantiate the requested policies (all of them by default).

    ``keys=None`` (or the CLI's ``--policies all``) builds every policy
    in sorted-key order — a fixed iteration order, so an arena run's
    policy list never depends on dict order.  Explicit keys keep their
    given order; unknown keys raise with the available choices.
    """
    if keys is None:
        keys = registered_keys()
    policies: List[SchedulingPolicy] = []
    for key in keys:
        cls = _POLICIES.get(key)
        if cls is None:
            known = ", ".join(registered_keys())
            raise ConfigurationError(
                f"unknown policy {key!r}; choose from: {known}"
            )
        policies.append(cls())
    return tuple(policies)
