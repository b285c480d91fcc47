"""Property battery for the arena scheduling contract.

Hypothesis-driven checks of the interface every arena policy must honor
(docs/arena.md):

* every ``propose()`` result is a **permutation-complete cover** — each
  program of the pool placed exactly once, no group beyond ``n_cores``;
* proposals are **bit-identical for equal seeds**, whether the instance
  is fresh or reused, and **independent of input iteration order**
  (lists, shuffles, even ``set`` views — the TNT003 contract, tested
  dynamically instead of statically);
* policy **scores are invariant under group-member reordering** wherever
  the policy claims ``symmetric``;
* the partition helpers (`group_sizes`, `iter_partitions`) emit exactly
  the canonical shapes the policies rely on.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arena import (
    Schedule,
    build_policies,
    group_sizes,
    iter_partitions,
    registered_keys,
    validate_cover,
)
from repro.core.policies import (
    DroopPolicy,
    DVFSMarginPolicy,
    HybridPolicy,
    IPCPolicy,
    RandomPolicy,
    StallRatioPolicy,
)
from repro.errors import SchedulingError

from tests.arena.conftest import FakeOracle

#: Program-name universe for generated pools (names are opaque to the
#: fake oracle; real SPEC names keep failures readable).
UNIVERSE = (
    "astar", "bzip2", "gamess", "gcc", "lbm", "libquantum",
    "mcf", "milc", "namd", "povray", "sjeng", "sphinx",
)

pools = st.lists(
    st.sampled_from(UNIVERSE), min_size=2, max_size=8, unique=True
).map(tuple)
core_counts = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
policy_keys = st.sampled_from(registered_keys())


class TestCoverContract:
    @settings(max_examples=60, deadline=None)
    @given(key=policy_keys, pool=pools, n_cores=core_counts, seed=seeds)
    def test_propose_is_permutation_complete_cover(
        self, key, pool, n_cores, seed
    ):
        policy = build_policies([key])[0]
        schedule = policy.propose(pool, n_cores, FakeOracle(), seed)
        validate_cover(schedule, pool)
        assert schedule.policy == key
        assert schedule.n_cores == n_cores
        # Same number of supplies as the canonical shape; sizes may be
        # balanced differently (IPC packing levels its bins) but never
        # beyond the core count — validate_cover enforces the rest.
        assert len(schedule.groups) == len(group_sizes(len(pool), n_cores))
        # Canonicalization must preserve the cover.
        validate_cover(schedule.canonical(), pool)

    @settings(max_examples=30, deadline=None)
    @given(key=policy_keys, n_cores=core_counts, seed=seeds)
    def test_degenerate_pools_rejected(self, key, n_cores, seed):
        policy = build_policies([key])[0]
        with pytest.raises(SchedulingError):
            policy.propose(("mcf",), n_cores, FakeOracle(), seed)
        with pytest.raises(SchedulingError):
            policy.propose(("mcf", "mcf"), n_cores, FakeOracle(), seed)


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(key=policy_keys, pool=pools, n_cores=core_counts, seed=seeds)
    def test_propose_bit_identical_for_equal_seeds(
        self, key, pool, n_cores, seed
    ):
        """Same seed, same schedule — fresh or reused instance alike."""
        reused = build_policies([key])[0]
        fresh = build_policies([key])[0]
        first = reused.propose(pool, n_cores, FakeOracle(), seed)
        again = reused.propose(pool, n_cores, FakeOracle(), seed)
        other = fresh.propose(pool, n_cores, FakeOracle(), seed)
        assert first == again == other

    @settings(max_examples=40, deadline=None)
    @given(
        key=policy_keys,
        pool=pools,
        n_cores=core_counts,
        seed=seeds,
        data=st.data(),
    )
    def test_propose_independent_of_input_order(
        self, key, pool, n_cores, seed, data
    ):
        """The dynamic TNT003 check: iteration order never leaks in."""
        policy = build_policies([key])[0]
        baseline = policy.propose(pool, n_cores, FakeOracle(), seed)
        shuffled = data.draw(st.permutations(list(pool)))
        assert (
            policy.propose(tuple(shuffled), n_cores, FakeOracle(), seed)
            == baseline
        )
        # A set's iteration order varies with PYTHONHASHSEED; the
        # proposal must not.
        assert (
            policy.propose(set(pool), n_cores, FakeOracle(), seed)
            == baseline
        )


#: Core scorers claiming symmetry (RandomPolicy claims the opposite and
#: is exercised by tests/arena/test_random_seeds.py instead).
SYMMETRIC_SCORERS = (
    DroopPolicy(),
    IPCPolicy(),
    HybridPolicy(1.0),
    StallRatioPolicy(),
    DVFSMarginPolicy(0.5),
)


class TestSymmetryClaims:
    def test_flags_match_registry(self):
        claims = {
            key: build_policies([key])[0].symmetric
            for key in registered_keys()
        }
        assert claims == {
            "droop": True,
            "dvfs-margin": True,
            "hybrid": True,
            "ipc": True,
            "ipc-packing": True,
            "random": False,
            "random-n": False,
            "stall": True,
        }
        assert not RandomPolicy().symmetric

    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.lists(
            st.sampled_from(UNIVERSE), min_size=2, max_size=4, unique=True
        ),
        data=st.data(),
    )
    def test_symmetric_scores_invariant_under_reordering(self, pool, data):
        """Where a policy claims symmetry, member order must not move
        its score (given a symmetric oracle — the harness guarantees
        one by canonicalizing every query)."""
        oracle = FakeOracle()
        group = tuple(pool)
        permuted = tuple(data.draw(st.permutations(list(group))))
        for scorer in SYMMETRIC_SCORERS:
            assert scorer.symmetric
            assert scorer.score_group(permuted, oracle) == scorer.score_group(
                group, oracle
            )


class TestGroupSizes:
    @settings(max_examples=80, deadline=None)
    @given(
        n_programs=st.integers(min_value=1, max_value=48),
        n_cores=st.integers(min_value=2, max_value=6),
    )
    def test_shapes(self, n_programs, n_cores):
        sizes = group_sizes(n_programs, n_cores)
        assert sum(sizes) == n_programs
        assert all(1 <= size <= n_cores for size in sizes)
        assert sum(1 for size in sizes if size < n_cores) <= 1
        assert len(sizes) == math.ceil(n_programs / n_cores)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            group_sizes(4, 1)
        with pytest.raises(SchedulingError):
            group_sizes(0, 2)


class TestPartitionEnumeration:
    @settings(max_examples=30, deadline=None)
    @given(
        pool=st.lists(
            st.sampled_from(UNIVERSE), min_size=2, max_size=7, unique=True
        ).map(tuple),
        n_cores=st.integers(min_value=2, max_value=4),
    )
    def test_partitions_are_unique_canonical_covers(self, pool, n_cores):
        partitions = list(iter_partitions(pool, n_cores))
        assert len(set(partitions)) == len(partitions)
        expected_sizes = sorted(group_sizes(len(pool), n_cores))
        for groups in partitions:
            schedule = Schedule(policy="x", n_cores=n_cores, groups=groups)
            validate_cover(schedule, pool)
            assert sorted(len(g) for g in groups) == expected_sizes
            # Emitted already canonical: no permutation is revisited.
            assert schedule.canonical() == schedule

    @pytest.mark.parametrize(
        "n_programs, expected",
        [(2, 1), (4, 3), (6, 15), (8, 105)],
    )
    def test_pair_partition_count_is_double_factorial(
        self, n_programs, expected
    ):
        """(n-1)!! perfect matchings of an even pool on 2 cores."""
        pool = UNIVERSE[:n_programs]
        assert sum(1 for _ in iter_partitions(pool, 2)) == expected

    def test_repeated_programs_rejected(self):
        with pytest.raises(SchedulingError):
            list(iter_partitions(("mcf", "mcf", "lbm", "lbm"), 2))


class TestCanonicalForm:
    @settings(max_examples=40, deadline=None)
    @given(
        key=policy_keys, pool=pools, n_cores=core_counts, seed=seeds
    )
    def test_canonical_is_idempotent_and_sorted(
        self, key, pool, n_cores, seed
    ):
        policy = build_policies([key])[0]
        schedule = policy.propose(pool, n_cores, FakeOracle(), seed)
        canonical = schedule.canonical()
        assert canonical.canonical() == canonical
        assert list(canonical.groups) == sorted(
            tuple(sorted(g)) for g in schedule.groups
        )
