"""Unit tests for the batch scheduler and pairing oracle."""

import collections

import pytest

from repro.core.policies import (
    DroopPolicy,
    IPCPolicy,
    IPCPackingPolicy,
    RandomNPolicy,
    RandomPolicy,
)
from repro.core.scheduler import BatchScheduler, GroupOracle
from repro.errors import SchedulingError
from repro.measurement.campaign import MeasurementCampaign

SUBSET = ("gamess", "lbm", "mcf", "namd", "sphinx")


@pytest.fixture(scope="module")
def scheduler():
    campaign = MeasurementCampaign("Proc3", n_cycles=12_000, seed=2)
    return BatchScheduler(GroupOracle(campaign), programs=SUBSET)


class TestPairOracle:
    def test_metrics_positive(self, scheduler):
        oracle = scheduler._oracle
        assert oracle.droop_metric("mcf", "lbm") >= 0
        assert oracle.ipc_metric("mcf", "lbm") > 0

    def test_oracle_caches_through_campaign(self, scheduler):
        oracle = scheduler._oracle
        a = oracle.run("mcf", "lbm")
        b = oracle.run("mcf", "lbm")
        assert a is b


class TestBuildSchedule:
    def test_pair_count(self, scheduler):
        pairs = scheduler.build_schedule(DroopPolicy(), n_pairs=10, seed=1)
        assert len(pairs) == 10

    def test_repeat_constraint(self, scheduler):
        pairs = scheduler.build_schedule(
            DroopPolicy(), n_pairs=5, max_repeats=2, seed=1
        )
        usage = collections.Counter()
        for a, b in pairs:
            usage[a] += 1
            usage[b] += 1
        assert max(usage.values()) <= 2

    def test_all_programs_get_scheduled(self, scheduler):
        pairs = scheduler.build_schedule(RandomPolicy(seed=3), n_pairs=10, seed=3)
        used = {p for pair in pairs for p in pair}
        assert used == set(SUBSET)

    def test_specrate_schedule(self, scheduler):
        pairs = scheduler.specrate_schedule()
        assert pairs == tuple((name, name) for name in SUBSET)
        repeated = scheduler.specrate_schedule(7)
        assert len(repeated) == 7

    @pytest.mark.parametrize("policy", [RandomNPolicy(), IPCPackingPolicy()])
    def test_whole_partition_policy_rejected(self, scheduler, policy):
        """Policies that only propose partitions score no groups."""
        with pytest.raises(SchedulingError, match="whole partitions"):
            scheduler.run_policy(policy, n_pairs=5, seed=1)

    def test_exhaustion_raises(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.build_schedule(
                DroopPolicy(), n_pairs=100, max_repeats=1, seed=1
            )

    def test_needs_two_programs(self, scheduler):
        with pytest.raises(SchedulingError):
            BatchScheduler(scheduler._oracle, programs=("mcf",))


class TestEvaluate:
    def test_droop_policy_beats_ipc_on_droops(self, scheduler):
        droop_eval = scheduler.run_policy(DroopPolicy(), n_pairs=10, seed=4)
        ipc_eval = scheduler.run_policy(IPCPolicy(), n_pairs=10, seed=4)
        assert droop_eval.mean_droops <= ipc_eval.mean_droops
        assert ipc_eval.mean_ipc >= droop_eval.mean_ipc

    def test_normalization(self, scheduler):
        base = scheduler.evaluate(scheduler.specrate_schedule(), "SPECrate")
        droops, perf = base.normalized_to(base)
        assert droops == pytest.approx(1.0)
        assert perf == pytest.approx(1.0)

    def test_empty_schedule_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.evaluate([])


class TestPartnerMap:
    def test_every_program_assigned(self, scheduler):
        partners = scheduler.partner_map(DroopPolicy(), seed=5)
        assert set(partners) == set(SUBSET)
        assert all(p in SUBSET for p in partners.values())

    def test_partner_load_respected(self, scheduler):
        partners = scheduler.partner_map(
            DroopPolicy(), max_partner_load=1, seed=5
        )
        loads = collections.Counter(partners.values())
        assert max(loads.values()) <= 1
