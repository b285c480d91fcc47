"""The policy arena: N-core scheduling policies benchmarked head-to-head.

Layered on the generalized N-core oracle/scheduler in
:mod:`repro.core.scheduler` (which also defines the partition
:class:`~repro.core.scheduler.Schedule` and its cover contract) and on
the policies of :mod:`repro.core.policies`, each of which answers
``propose(programs, n_cores, oracle, seed)`` under a stable key:

* :mod:`repro.arena.oracle` — exhaustive-search baseline for regret;
* :mod:`repro.arena.suites` — named workload suites;
* :mod:`repro.arena.harness` — the head-to-head runner and scorecards;
* :mod:`repro.arena.report` — deterministic JSON/markdown comparisons.

See ``docs/arena.md`` for the interface contract and scorecard schema.
"""

from repro.arena.harness import (
    DEFAULT_CONFIG,
    DEFAULT_CYCLES,
    DEFAULT_RECOVERY_COST,
    ArenaResult,
    PolicyScorecard,
    run_arena,
    score_schedule,
)
from repro.arena.oracle import (
    DEFAULT_SEARCH_LIMIT,
    OracleBaseline,
    exhaustive_baseline,
    iter_partitions,
)
from repro.arena.report import json_payload, json_report, markdown_report
from repro.arena.suites import SUITES, suite_names, suite_programs
from repro.core.policies import build_policies, registered_keys
from repro.core.scheduler import Schedule, group_sizes, validate_cover

__all__ = [
    "ArenaResult",
    "DEFAULT_CONFIG",
    "DEFAULT_CYCLES",
    "DEFAULT_RECOVERY_COST",
    "DEFAULT_SEARCH_LIMIT",
    "OracleBaseline",
    "PolicyScorecard",
    "SUITES",
    "Schedule",
    "build_policies",
    "exhaustive_baseline",
    "group_sizes",
    "iter_partitions",
    "json_payload",
    "json_report",
    "markdown_report",
    "registered_keys",
    "run_arena",
    "score_schedule",
    "suite_names",
    "suite_programs",
    "validate_cover",
]
