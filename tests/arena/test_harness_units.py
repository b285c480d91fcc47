"""Arena harness units: scoring arithmetic, ranking, baseline, reports.

Everything here runs against the fake oracle — these are contracts of
the harness itself (docs/arena.md), independent of the simulator.
"""

import numpy as np
import pytest

from repro.arena import (
    ArenaResult,
    OracleBaseline,
    Schedule,
    exhaustive_baseline,
    iter_partitions,
    json_payload,
    json_report,
    markdown_report,
    score_schedule,
)
from repro.arena.harness import rank
from repro.arena.oracle import ORACLE_KEY
from repro.errors import SchedulingError
from repro.pdn.undervolt import OPERATING_MARGIN

from tests.arena.conftest import FakeOracle

POOL = ("gamess", "lbm", "mcf", "namd", "povray", "sphinx")


def _schedule(policy="droop", n_cores=2, groups=None):
    if groups is None:
        groups = (("gamess", "lbm"), ("mcf", "namd"), ("povray", "sphinx"))
    return Schedule(policy=policy, n_cores=n_cores, groups=groups)


class TestScoreSchedule:
    def test_metric_arithmetic(self):
        oracle = FakeOracle()
        schedule = _schedule()
        card = score_schedule(
            schedule, oracle, "Droop", recovery_cost=100.0, baseline=None
        )
        droops = [oracle.droop_metric(*g) for g in schedule.groups]
        assert card.droops_per_1k == pytest.approx(float(np.mean(droops)))
        assert card.recovery_overhead == pytest.approx(
            card.droops_per_1k * 100.0 / 1000.0
        )
        assert card.mean_ipc == pytest.approx(
            float(np.mean([oracle.ipc_metric(*g) for g in schedule.groups]))
        )
        assert card.oracle_regret is None

    def test_energy_proxy_below_worst_case_guardband(self):
        """Fake max droops stay inside the 14 % margin, so every group
        could undervolt below the shipped set-point: proxy < 1."""
        card = score_schedule(
            _schedule(), FakeOracle(), "Droop", 100.0, baseline=None
        )
        assert 0.0 < card.energy_proxy < 1.0
        assert max(
            FakeOracle().max_droop_metric(*g) for g in _schedule().groups
        ) < OPERATING_MARGIN

    def test_regret_clamped_at_zero(self):
        """A policy may legitimately beat the canonical-shape oracle
        (balanced bins); regret never goes negative."""
        oracle = FakeOracle()
        schedule = _schedule()
        generous = OracleBaseline(
            schedule=_schedule(policy=ORACLE_KEY),
            droops_per_1k=1e9,
            partitions_searched=1,
        )
        card = score_schedule(schedule, oracle, "Droop", 100.0, generous)
        assert card.oracle_regret == 0.0  # simlint: disable=HYG001 (clamped exact zero)
        stingy = OracleBaseline(
            schedule=_schedule(policy=ORACLE_KEY),
            droops_per_1k=0.0,
            partitions_searched=1,
        )
        card = score_schedule(schedule, oracle, "Droop", 100.0, stingy)
        assert card.oracle_regret == pytest.approx(card.droops_per_1k)


class TestRank:
    def test_orders_by_droop_then_ipc_then_key(self):
        oracle = FakeOracle()

        def card(policy, droops, ipc):
            base = score_schedule(
                _schedule(policy=policy), oracle, policy, 100.0, None
            )
            return type(base)(
                policy=policy,
                name=policy,
                schedule=base.schedule,
                mean_ipc=ipc,
                droops_per_1k=droops,
                recovery_overhead=base.recovery_overhead,
                energy_proxy=base.energy_proxy,
                oracle_regret=None,
            )

        ranked = rank([
            card("c", 1.0, 2.0),
            card("b", 1.0, 3.0),
            card("a", 0.5, 1.0),
            card("d", 1.0, 3.0),
        ])
        assert [c.policy for c in ranked] == ["a", "b", "d", "c"]


class TestExhaustiveBaseline:
    def test_finds_the_minimum_over_all_partitions(self):
        oracle = FakeOracle()
        baseline = exhaustive_baseline(POOL, 2, oracle)
        assert baseline is not None
        assert baseline.partitions_searched == 15
        means = [
            float(np.mean([oracle.droop_metric(*g) for g in partition]))
            for partition in iter_partitions(POOL, 2)
        ]
        assert baseline.droops_per_1k == pytest.approx(min(means))
        assert baseline.schedule.policy == ORACLE_KEY
        assert baseline.schedule.canonical() == baseline.schedule

    def test_budget_exhaustion_returns_none(self):
        assert exhaustive_baseline(POOL, 2, FakeOracle(), limit=3) is None


class TestReports:
    @pytest.fixture
    def result(self):
        oracle = FakeOracle()
        cards = [
            score_schedule(
                _schedule(policy=key), oracle, key.title(), 100.0, None
            )
            for key in ("droop", "ipc")
        ]
        return ArenaResult(
            suite="micro",
            programs=POOL,
            n_cores=2,
            config="Proc3",
            n_cycles=12_000,
            seed=0,
            recovery_cost=100.0,
            oracle=None,
            scorecards=rank(cards),
        )

    def test_json_report_is_byte_stable(self, result):
        text = json_report(result)
        assert text == json_report(result)
        assert text.endswith("\n")
        payload = json_payload(result)
        assert payload["schema_version"] == 1
        assert payload["oracle"] is None
        assert [c["policy"] for c in payload["scorecards"]] == [
            card.policy for card in result.scorecards
        ]

    def test_markdown_report_has_required_columns(self, result):
        text = markdown_report(result)
        for column in (
            "droops/1k", "recovery overhead", "mean IPC",
            "energy proxy", "oracle regret",
        ):
            assert column in text
        assert "| 1 |" in text and "| 2 |" in text
        assert "n/a" in text  # regret without an oracle baseline

    def test_scorecard_lookup(self, result):
        assert result.scorecard("droop").policy == "droop"
        with pytest.raises(SchedulingError):
            result.scorecard("nope")
