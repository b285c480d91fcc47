"""Exhaustive oracle baseline: the best partition the oracle can see.

The paper's policies are heuristics over oracle data; this module
computes the actual optimum — the partition of the pool minimizing mean
droop rate — by enumerating every partition (small pools only), so each
arena scorecard can report *regret*: how far the heuristic's droop
overhead sits above the best achievable placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import Group, GroupOracle, Schedule, group_sizes
from repro.errors import SchedulingError

#: Registry key reserved for the exhaustive baseline (not a policy).
ORACLE_KEY = "oracle-exhaustive"

#: Partitions examined before the search gives up and regret is reported
#: as unavailable.  945 covers 10 programs on 2 cores; 11!/… pools larger
#: than ~12 programs blow past any sensible budget.
DEFAULT_SEARCH_LIMIT = 50_000


@dataclass(frozen=True)
class OracleBaseline:
    """Outcome of one exhaustive partition search."""

    schedule: Schedule
    droops_per_1k: float
    partitions_searched: int


def iter_partitions(
    programs: Sequence[str], n_cores: int
) -> Iterator[Tuple[Group, ...]]:
    """Every partition of the pool into canonical group sizes.

    Each partition is emitted exactly once, groups sorted: the smallest
    unplaced program always leads the next group, so no permutation of
    groups or members is ever revisited.
    """
    pool = tuple(sorted(programs))
    if len(set(pool)) != len(pool):
        raise SchedulingError("partition pools must not repeat programs")
    sizes: Dict[int, int] = {}
    for size in group_sizes(len(pool), n_cores):
        sizes[size] = sizes.get(size, 0) + 1
    yield from _partitions(pool, sizes)


def _partitions(
    remaining: Tuple[str, ...], sizes: Dict[int, int]
) -> Iterator[Tuple[Group, ...]]:
    if not remaining:
        yield ()
        return
    leader, rest = remaining[0], remaining[1:]
    for size in sorted(sizes):
        if sizes[size] == 0:
            continue
        sizes[size] -= 1
        for members in combinations(range(len(rest)), size - 1):
            group = (leader,) + tuple(rest[i] for i in members)
            chosen = set(members)
            left = tuple(
                rest[i] for i in range(len(rest)) if i not in chosen
            )
            for tail in _partitions(left, sizes):
                yield (group,) + tail
        sizes[size] += 1


def exhaustive_baseline(
    programs: Sequence[str],
    n_cores: int,
    oracle: GroupOracle,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> Optional[OracleBaseline]:
    """The droop-minimal partition, or ``None`` past the search budget.

    Minimizes the mean droop rate over the partition's groups; ties keep
    the enumeration-order first (lexicographically smallest) partition,
    so the baseline is deterministic.  Distinct groups across partitions
    are few (sorted combinations), so the campaign memo makes the sweep
    cheap even though partitions number in the hundreds.
    """
    best_groups: Optional[Tuple[Group, ...]] = None
    best_droops = float("inf")
    searched = 0
    for partition in iter_partitions(programs, n_cores):
        searched += 1
        if searched > limit:
            return None
        droops: List[float] = [
            oracle.droop_metric(*group) for group in partition
        ]
        mean = float(np.mean(droops))
        if mean < best_droops:
            best_droops = mean
            best_groups = partition
    if best_groups is None:  # pragma: no cover - pools are validated
        raise SchedulingError("no partitions to search")
    schedule = Schedule(
        policy=ORACLE_KEY, n_cores=n_cores, groups=best_groups
    ).canonical()
    return OracleBaseline(
        schedule=schedule,
        droops_per_1k=best_droops,
        partitions_searched=searched,
    )
