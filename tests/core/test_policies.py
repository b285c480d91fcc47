"""Unit tests for scheduling policies."""

import pytest

from repro.core.policies import (
    DroopPolicy,
    DVFSMarginPolicy,
    HybridPolicy,
    IPCPolicy,
    RandomPolicy,
)
from repro.errors import ConfigurationError


class FakeOracle:
    """Deterministic oracle for policy unit tests."""

    def __init__(self):
        self.droops = {("a", "b"): 1.0, ("a", "c"): 4.0}
        self.ipcs = {("a", "b"): 2.0, ("a", "c"): 3.0}

    def droop_metric(self, a, b):
        return self.droops[(a, b)]

    def ipc_metric(self, a, b):
        return self.ipcs[(a, b)]


class TestDroopPolicy:
    def test_prefers_fewer_droops(self):
        oracle = FakeOracle()
        policy = DroopPolicy()
        assert policy.score_group(("a", "b"), oracle) > policy.score_group(
            ("a", "c"), oracle
        )


class TestIPCPolicy:
    def test_prefers_throughput(self):
        oracle = FakeOracle()
        policy = IPCPolicy()
        assert policy.score_group(("a", "c"), oracle) > policy.score_group(
            ("a", "b"), oracle
        )


class TestHybridPolicy:
    def test_zero_exponent_is_pure_ipc(self):
        oracle = FakeOracle()
        policy = HybridPolicy(0.0)
        assert policy.score_group(("a", "c"), oracle) > policy.score_group(
            ("a", "b"), oracle
        )

    def test_large_exponent_weighs_droops(self):
        oracle = FakeOracle()
        policy = HybridPolicy(4.0)
        assert policy.score_group(("a", "b"), oracle) > policy.score_group(
            ("a", "c"), oracle
        )

    def test_exponent_grows_with_recovery_cost(self):
        fine = HybridPolicy.for_recovery_cost(1)
        coarse = HybridPolicy.for_recovery_cost(100_000)
        assert coarse.exponent > fine.exponent

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HybridPolicy(-1.0)
        with pytest.raises(ConfigurationError):
            HybridPolicy.for_recovery_cost(0)
        with pytest.raises(ConfigurationError):
            DVFSMarginPolicy(2.0)
        with pytest.raises(ConfigurationError):
            DVFSMarginPolicy(0.0)


class TestRandomPolicy:
    def test_deterministic_with_seed(self):
        oracle = FakeOracle()
        a = RandomPolicy(seed=1)
        b = RandomPolicy(seed=1)
        assert [a.score_group(("a", "b"), oracle) for _ in range(5)] == [
            b.score_group(("a", "b"), oracle) for _ in range(5)
        ]

