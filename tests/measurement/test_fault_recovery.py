"""Executor fault paths: every injected fault recovers bit-identically.

The contract under test (docs/robustness.md): a campaign run under any
seeded fault plan must produce measurement content bit-identical to the
fault-free run — the injector may cost retries, pool rebuilds and
re-simulations, but never change a result.  Recovery *effort* counters
are asserted alongside to pin that each scenario actually exercised the
path it claims to.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.measurement.cache import ResultCache
from repro.measurement.campaign import MeasurementCampaign
from repro.measurement.executor import (
    BATCH_CHUNK_RUNS,
    MAX_BACKOFF_SECONDS,
    MAX_RETRIES_ENV,
    RUN_TIMEOUT_ENV,
    RetryPolicy,
    RunFailure,
)
from repro.measurement.record import diff_measurements

SUBSET = ("mcf", "lbm", "namd")

#: Tiny windows and backoff keep each scenario fast; the recovery logic
#: is identical at any scale.
FAST = RetryPolicy(max_retries=2, backoff_base=0.0)


def _campaign(injector=None, cache=None, jobs=1, retry=FAST, **kwargs):
    kwargs.setdefault("n_cycles", 2000)
    kwargs.setdefault("seed", 3)
    return MeasurementCampaign(
        "Proc100", jobs=jobs, cache=cache, retry=retry,
        injector=injector, **kwargs
    )


def _measure(campaign):
    specs = [campaign.run_spec(name) for name in SUBSET]
    return campaign.measure_specs(specs)


@pytest.fixture(scope="module")
def clean():
    """Fault-free golden measurements for the test subset."""
    return _measure(_campaign())


def _assert_identical(clean_runs, recovered_runs):
    for a, b in zip(clean_runs, recovered_runs):
        assert diff_measurements(a, b) == [], a.spec.label


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.run_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"run_timeout": 0.0},
            {"run_timeout": -2.0},
            {"backoff_base": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.5)
        assert policy.backoff_seconds(1) == 0.5  # simlint: disable=HYG001 (exact by construction)
        assert policy.backoff_seconds(2) == 1.0  # simlint: disable=HYG001 (exact by construction)
        assert policy.backoff_seconds(10) == MAX_BACKOFF_SECONDS

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        monkeypatch.setenv(RUN_TIMEOUT_ENV, "7.5")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.run_timeout == 7.5  # simlint: disable=HYG001 (exact by construction)

    def test_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        assert RetryPolicy.from_env(max_retries=1).max_retries == 1

    @pytest.mark.parametrize("env,value", [
        (MAX_RETRIES_ENV, "many"), (RUN_TIMEOUT_ENV, "soon"),
    ])
    def test_malformed_env_raises(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_env()


class TestSerialRecovery:
    def test_transient_exceptions_retried_to_identical_result(self, clean):
        campaign = _campaign(injector=FaultInjector("exception:0.5,seed=1"))
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert stats.retries > 0
        assert all(f.site == "simulate" for f in stats.failures)
        assert all(f.action == "retried" for f in stats.failures)

    def test_always_failing_injection_converges_via_final_clean_attempt(
        self, clean
    ):
        campaign = _campaign(injector=FaultInjector("exception:1.0"))
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        # Every injected attempt failed; the final clean attempt saved
        # each run: max_retries+1 faulting attempts + 1 clean, per run.
        assert stats.retries == len(SUBSET) * (FAST.max_retries + 1)
        assert stats.attempts == len(SUBSET) * (FAST.max_retries + 2)

    def test_real_persistent_errors_still_propagate(self):
        campaign = _campaign()
        campaign.executor._campaign = None  # force AttributeError inside
        with pytest.raises(AttributeError):
            _measure(campaign)


class TestNoDoubleCounting:
    """Regression: retried/replayed runs must count as simulated once."""

    def test_simulated_counts_runs_not_attempts(self):
        campaign = _campaign(injector=FaultInjector("exception:1.0"))
        _measure(campaign)
        stats = campaign.executor.stats
        assert stats.simulated == len(SUBSET)
        assert stats.attempts > stats.simulated

    def test_parallel_requeues_do_not_inflate_simulated(self):
        campaign = _campaign(
            injector=FaultInjector("crash:1.0"), jobs=2
        )
        _measure(campaign)
        stats = campaign.executor.stats
        assert stats.simulated == len(SUBSET)
        assert stats.requeued > 0

    def test_memo_replay_after_recovery_counts_as_memory_hit(self):
        campaign = _campaign(injector=FaultInjector("exception:1.0"))
        first = _measure(campaign)
        again = _measure(campaign)
        assert [a is b for a, b in zip(first, again)] == [True] * len(SUBSET)
        stats = campaign.executor.stats
        assert stats.simulated == len(SUBSET)
        assert stats.memory_hits == len(SUBSET)


class TestParallelRecovery:
    def test_crash_mid_batch_recovers_identical(self, clean):
        campaign = _campaign(
            injector=FaultInjector("crash:0.5,seed=2"), jobs=2
        )
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert stats.pool_rebuilds > 0
        assert stats.requeued > 0

    def test_total_pool_breakage_degrades_to_serial(self, clean):
        campaign = _campaign(injector=FaultInjector("crash:1.0"), jobs=2)
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert stats.serial_fallbacks == len(SUBSET)
        assert any(f.action == "serial-fallback" for f in stats.failures)
        assert {f.site for f in stats.failures} <= {"pool", "timeout"}

    def test_hung_workers_hit_the_timeout_path(self, clean):
        campaign = _campaign(
            injector=FaultInjector("hang:1.0,hang-seconds=5.0"),
            jobs=2,
            retry=RetryPolicy(
                max_retries=1, run_timeout=0.2, backoff_base=0.0
            ),
        )
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert stats.timeouts > 0
        assert stats.pool_rebuilds > 0
        assert any(f.site == "timeout" for f in stats.failures)

    def test_worker_exceptions_requeue_without_pool_rebuild(self, clean):
        campaign = _campaign(
            injector=FaultInjector("exception:0.5,seed=1"), jobs=2
        )
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert stats.pool_rebuilds == 0
        assert any(f.site == "worker" for f in stats.failures)


class TestFaultsInsideAChunk:
    """A fault fired for one run of a chunk costs that run alone."""

    #: Fires ``simulate.exception`` for lbm (the middle run of the one
    #: chunk) at attempt 0 only; the test re-checks that premise.
    PLAN = "exception:0.3,seed=0"

    @pytest.mark.parametrize("jobs,site", [(1, "simulate"), (2, "worker")])
    def test_one_faulted_run_is_retried_alone(self, clean, jobs, site):
        probe = FaultInjector(self.PLAN)
        labels = [f"{name}@Proc100" for name in SUBSET]
        fired = [
            label for label in labels
            if probe.fires("simulate.exception", label, 0)
        ]
        assert fired == ["lbm@Proc100"]
        assert not probe.fires("simulate.exception", "lbm@Proc100", 1)
        assert len(SUBSET) <= BATCH_CHUNK_RUNS

        campaign = _campaign(injector=FaultInjector(self.PLAN), jobs=jobs)
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)
        stats = campaign.executor.stats
        assert [(f.run, f.site, f.attempt) for f in stats.failures] == [
            ("lbm@Proc100", site, 1)
        ]
        assert stats.attempts == len(SUBSET) + 1
        assert stats.simulated == len(SUBSET)


class TestCacheCorruptionRecovery:
    def test_corrupted_stores_are_resimulated_identically(
        self, clean, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        chaotic = _campaign(
            injector=FaultInjector("corrupt:1.0"), cache=cache
        )
        _measure(chaotic)  # every stored record is garbled on disk
        assert cache.entry_count() == len(SUBSET)

        warm = _campaign(cache=ResultCache(tmp_path / "cache"))
        recovered = _measure(warm)
        _assert_identical(clean, recovered)
        stats = warm.executor.stats
        assert stats.cache.corrupt == len(SUBSET)
        assert stats.simulated == len(SUBSET)

    def test_transient_read_corruption_falls_back_to_simulation(
        self, clean, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        _measure(_campaign(cache=cache))  # populate, clean

        chaotic = _campaign(
            injector=FaultInjector("corrupt-read:1.0"),
            cache=ResultCache(tmp_path / "cache"),
        )
        recovered = _measure(chaotic)
        _assert_identical(clean, recovered)
        stats = chaotic.executor.stats
        assert stats.cache.corrupt == len(SUBSET)
        assert stats.simulated == len(SUBSET)

        # corrupt-read never touches the disk: a clean reader still hits.
        fresh = _campaign(cache=ResultCache(tmp_path / "cache"))
        _measure(fresh)
        assert fresh.executor.stats.cache.hits == len(SUBSET)


class TestDefaultChaosPlan:
    def test_full_default_plan_end_to_end(self, clean, tmp_path):
        campaign = _campaign(
            injector=FaultInjector("default"),
            cache=ResultCache(tmp_path / "cache"),
            jobs=2,
        )
        recovered = _measure(campaign)
        _assert_identical(clean, recovered)


class TestStats:
    def test_failures_merge_into_global(self):
        from repro.measurement.executor import ExecutorStats

        a, b = ExecutorStats(), ExecutorStats()
        a.retries = 2
        a.failures.append(
            RunFailure("mcf@Proc100", "simulate", "boom", 1, "retried")
        )
        a.merged_into(b)
        assert b.retries == 2
        assert len(b.failures) == 1

    def test_summary_mentions_recovery_only_when_active(self):
        from repro.measurement.executor import ExecutorStats

        stats = ExecutorStats()
        assert "recovery" not in stats.summary()
        stats.timeouts = 1
        assert "recovery" in stats.summary()
        assert stats.recovery_active

    def test_failure_summary_format(self):
        failure = RunFailure(
            "mcf@Proc100", "timeout", "no result within 0.2s", 2, "requeued"
        )
        assert failure.summary() == (
            "mcf@Proc100: attempt 2 failed at timeout "
            "(no result within 0.2s) -> requeued"
        )
