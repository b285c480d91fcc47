"""Dual-core equivalence: the N-core scheduler reproduces pair goldens.

The tentpole refactor generalized :class:`repro.core.scheduler` from
pairs to N-core groups.  The regression net is byte-for-byte: at
``group_size=2`` the generalized greedy builder must reproduce the
pre-refactor pair scheduler exactly — same RNG draw sequence, same
candidate filter, same schedules, same evaluation numbers.  The
constants below were captured from the pair-only implementation
(Proc3, 12 000-cycle windows, campaign seed 2, the five-program subset
of tests/core/test_scheduler.py) immediately before the refactor; any
drift here means dual-core results across the repo silently changed.
"""

import pytest

from repro.arena import build_policies
from repro.core.policies import (
    DroopPolicy,
    HybridPolicy,
    IPCPolicy,
    RandomPolicy,
    StallRatioPolicy,
)
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.measurement.campaign import MeasurementCampaign

SUBSET = ("gamess", "lbm", "mcf", "namd", "sphinx")
N_PAIRS = 8

#: label -> (policy factory, build seed, expected pairs, mean droops/1k,
#: mean IPC) — captured from the pre-refactor pair scheduler.
CAPTURED = {
    "droop": (
        lambda: DroopPolicy(),
        1,
        (
            ("mcf", "namd"), ("lbm", "sphinx"), ("gamess", "gamess"),
            ("sphinx", "namd"), ("mcf", "namd"), ("lbm", "sphinx"),
            ("gamess", "gamess"), ("lbm", "sphinx"),
        ),
        0.40625,
        1.4398177960772873,
    ),
    "ipc": (
        lambda: IPCPolicy(),
        1,
        (
            ("mcf", "namd"), ("lbm", "namd"), ("sphinx", "namd"),
            ("gamess", "namd"), ("sphinx", "gamess"), ("lbm", "gamess"),
            ("mcf", "gamess"), ("lbm", "sphinx"),
        ),
        0.4791666666666667,
        1.8028577957913177,
    ),
    "hybrid": (
        lambda: HybridPolicy(1.0),
        7,
        (
            ("sphinx", "namd"), ("lbm", "namd"), ("mcf", "namd"),
            ("gamess", "namd"), ("sphinx", "gamess"), ("mcf", "gamess"),
            ("lbm", "gamess"), ("sphinx", "lbm"),
        ),
        0.48958333333333337,
        1.8018386879854562,
    ),
    "stall": (
        lambda: StallRatioPolicy(),
        3,
        (
            ("sphinx", "gamess"), ("lbm", "gamess"), ("mcf", "gamess"),
            ("namd", "namd"), ("lbm", "gamess"), ("mcf", "lbm"),
            ("sphinx", "namd"), ("sphinx", "namd"),
        ),
        0.44791666666666663,
        1.8057441078117242,
    ),
    "random": (
        lambda: RandomPolicy(seed=5),
        5,
        (
            ("namd", "lbm"), ("sphinx", "sphinx"), ("gamess", "namd"),
            ("mcf", "gamess"), ("mcf", "mcf"), ("lbm", "mcf"),
            ("lbm", "gamess"), ("sphinx", "namd"),
        ),
        0.5416666666666666,
        1.4498789133018166,
    ),
}


@pytest.fixture(scope="module")
def scheduler():
    campaign = MeasurementCampaign("Proc3", n_cycles=12_000, seed=2)
    return BatchScheduler(GroupOracle(campaign), programs=SUBSET)


def _assert_captured(evaluation, label):
    _, _, pairs, mean_droops, mean_ipc = CAPTURED[label]
    assert evaluation.groups == pairs
    assert evaluation.mean_droops == mean_droops  # simlint: disable=HYG001 (byte-for-byte contract)
    assert evaluation.mean_ipc == mean_ipc  # simlint: disable=HYG001 (byte-for-byte contract)


class TestPairEquivalence:
    @pytest.mark.parametrize("label", sorted(CAPTURED))
    def test_reproduces_pre_refactor_schedule(self, scheduler, label):
        factory, seed = CAPTURED[label][:2]
        evaluation = scheduler.run_policy(
            factory(), n_pairs=N_PAIRS, seed=seed
        )
        _assert_captured(evaluation, label)

    @pytest.mark.parametrize("label", ["droop", "hybrid", "ipc", "stall"])
    def test_arena_policy_reproduces_pre_refactor_schedule(
        self, scheduler, label
    ):
        """The arena's instance, built by key, is the same scorer."""
        evaluation = scheduler.run_policy(
            build_policies([label])[0], n_pairs=N_PAIRS, seed=CAPTURED[label][1]
        )
        _assert_captured(evaluation, label)
