"""Campaign execution engine: parallel fan-out, persistent cache, recovery.

The 881-run characterization protocol is embarrassingly parallel: every
run derives its random stream *directly from the campaign's base seed and
its own spec* (see :meth:`MeasurementCampaign.simulate`), so no run
depends on any other's execution.  :class:`CampaignExecutor` exploits
that twice over:

* **fan-out** — cache misses are dispatched to a
  :class:`~concurrent.futures.ProcessPoolExecutor`; because each worker
  re-derives the identical per-run stream from ``(seed, spec)``, parallel
  and serial execution produce *bit-identical* measurements (enforced by
  the equivalence test battery);
* **persistence** — every simulated run is written to a
  :class:`~repro.measurement.cache.ResultCache`, so later processes (and
  the full Fig. 7–19 + Tab. I pipeline) replay warm runs without
  re-simulating.

And — mirroring the paper's typical-case-design argument — it assumes
the infrastructure *will* fail and recovers instead of margining:

* every run attempt is bounded by :attr:`RetryPolicy.run_timeout` and
  retried up to :attr:`RetryPolicy.max_retries` times with deterministic
  exponential backoff;
* a broken process pool (worker crash) is rebuilt and only the
  *incomplete* runs are requeued — completed results are never redone;
* a run that keeps failing in the pool degrades to serial in-process
  re-simulation, whose final attempt runs with fault injection
  suppressed, so an injected chaos plan can never change campaign
  content — only how hard the executor had to work for it;
* every failed attempt is recorded as a structured :class:`RunFailure`
  in :attr:`ExecutorStats.failures` and surfaced by the CLI and the
  report's execution-statistics section.

Fault injection itself lives in :mod:`repro.faults`; the executor hosts
the ``worker.crash`` / ``worker.hang`` / ``simulate.exception`` /
``vmin.biterror`` hook points (the cache hosts ``cache.store`` /
``cache.load``).

Seeds that are live :class:`numpy.random.Generator` objects have state
rather than identity; for those the executor degrades gracefully to
serial, uncached simulation (results then depend on call order, exactly
as they always did).

Module-level aggregate statistics (:func:`global_stats`) power the cache
hit/miss and wall-time lines in :mod:`repro.reporting`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import observability as obs
from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.measurement.cache import CacheStats, ResultCache, cache_key
from repro.measurement.campaign import (
    HISTOGRAM_BINS,
    HISTOGRAM_HI,
    HISTOGRAM_LO,
    MeasurementCampaign,
    RunMeasurement,
    RunSpec,
)
from repro.measurement.record import decode_measurement
from repro.pdn.decap import proc_config
from repro.random_utils import seed_fingerprint

#: Environment override for the default worker count (read by
#: :func:`default_jobs`; the CI matrix sets ``REPRO_JOBS=2`` so the
#: parallel path is exercised on every push).
JOBS_ENV = "REPRO_JOBS"

#: Environment overrides for the retry policy (see :class:`RetryPolicy`).
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"
RUN_TIMEOUT_ENV = "REPRO_RUN_TIMEOUT"

#: Default bounded-retry budget per run (attempts = retries + 1).
DEFAULT_MAX_RETRIES = 2

#: Runs per batched chip/PDN solve on the serial fast path.  Chunking
#: bounds the stacked current matrix (chunk * n_cores * n_cycles floats)
#: while keeping the filter calls large enough to amortize their setup.
BATCH_CHUNK_RUNS = 16

#: First backoff step; doubles per retry, capped at the ceiling.  The
#: sequence is a pure function of the attempt number — no jitter — so
#: recovery behavior is as reproducible as the fault plan that forced it.
DEFAULT_BACKOFF_SECONDS = 0.02
MAX_BACKOFF_SECONDS = 1.0


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (defaults to 1 = serial)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOBS_ENV} must be an integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ConfigurationError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights for each run before degrading.

    ``max_retries`` bounds *faulting* attempts per run per stage (pool
    and serial count separately); ``run_timeout`` bounds one attempt's
    wall time in the pool (``None`` = wait forever — hung workers then
    surface only through pool breakage); backoff between retries is
    deterministic exponential: ``base * 2**(attempt-1)``, capped at
    :data:`MAX_BACKOFF_SECONDS`.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    run_timeout: Optional[float] = None
    backoff_base: float = DEFAULT_BACKOFF_SECONDS

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.run_timeout is not None and not self.run_timeout > 0:
            raise ConfigurationError(
                f"run_timeout must be positive, got {self.run_timeout}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )

    @staticmethod
    def from_env(
        max_retries: Optional[int] = None,
        run_timeout: Optional[float] = None,
    ) -> "RetryPolicy":
        """Policy from ``$REPRO_MAX_RETRIES`` / ``$REPRO_RUN_TIMEOUT``,
        with explicit arguments (CLI flags) taking precedence."""
        if max_retries is None:
            raw = os.environ.get(MAX_RETRIES_ENV, "").strip()
            if raw:
                try:
                    max_retries = int(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{MAX_RETRIES_ENV} must be an integer, got {raw!r}"
                    ) from None
        if run_timeout is None:
            raw = os.environ.get(RUN_TIMEOUT_ENV, "").strip()
            if raw:
                try:
                    run_timeout = float(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{RUN_TIMEOUT_ENV} must be a number of seconds, "
                        f"got {raw!r}"
                    ) from None
        return RetryPolicy(
            max_retries=(
                DEFAULT_MAX_RETRIES if max_retries is None else max_retries
            ),
            run_timeout=run_timeout,
        )

    def backoff_seconds(self, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_base * (2 ** max(attempt - 1, 0)),
            MAX_BACKOFF_SECONDS,
        )


@dataclass(frozen=True)
class RunFailure:
    """One failed run attempt, and what the executor did about it.

    ``site`` names where the failure surfaced: ``"pool"`` (worker crash /
    broken pool), ``"timeout"`` (attempt exceeded ``run_timeout``),
    ``"worker"`` (exception raised inside a pool worker) or
    ``"simulate"`` (exception in a serial in-process attempt).
    ``action`` is the recovery taken: ``"retried"`` (same stage, next
    attempt), ``"requeued"`` (pool rebuilt, run redispatched) or
    ``"serial-fallback"`` (degraded to in-process re-simulation).
    """

    run: str
    site: str
    error: str
    attempt: int
    action: str

    def summary(self) -> str:
        return (
            f"{self.run}: attempt {self.attempt} failed at {self.site} "
            f"({self.error}) -> {self.action}"
        )


class ExecutorStats:
    """Counters for one executor: cache traffic, simulations, recovery."""

    __slots__ = (
        "cache", "memory_hits", "simulated", "parallel_batches",
        "wall_seconds", "attempts", "retries", "timeouts",
        "pool_rebuilds", "requeued", "serial_fallbacks", "failures",
    )

    def __init__(self) -> None:
        self.cache = CacheStats()
        self.memory_hits = 0
        self.simulated = 0
        self.parallel_batches = 0
        self.wall_seconds = 0.0
        #: Simulation attempts dispatched (>= ``simulated`` under faults;
        #: ``simulated`` itself counts each run exactly once no matter
        #: how many retries, requeues or pool rebuilds it took).
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0
        self.pool_rebuilds = 0
        self.requeued = 0
        self.serial_fallbacks = 0
        self.failures: List[RunFailure] = []

    def merged_into(self, other: "ExecutorStats") -> None:
        self.cache.merged_into(other.cache)
        other.memory_hits += self.memory_hits
        other.simulated += self.simulated
        other.parallel_batches += self.parallel_batches
        other.wall_seconds += self.wall_seconds
        other.attempts += self.attempts
        other.retries += self.retries
        other.timeouts += self.timeouts
        other.pool_rebuilds += self.pool_rebuilds
        other.requeued += self.requeued
        other.serial_fallbacks += self.serial_fallbacks
        other.failures.extend(self.failures)

    @property
    def recovery_active(self) -> bool:
        """Did any fault-recovery machinery engage?"""
        return bool(
            self.retries or self.timeouts or self.pool_rebuilds
            or self.requeued or self.serial_fallbacks or self.failures
        )

    def recovery_summary(self) -> str:
        return (
            f"{self.retries} retries, {self.timeouts} timeouts, "
            f"{self.pool_rebuilds} pool rebuilds, {self.requeued} "
            f"requeued, {self.serial_fallbacks} serial fallbacks "
            f"({len(self.failures)} failed attempts recovered)"
        )

    def summary(self) -> str:
        text = (
            f"cache: {self.cache.summary()}; {self.memory_hits} in-memory "
            f"hits; {self.simulated} runs simulated "
            f"({self.parallel_batches} parallel batches); "
            f"{self.wall_seconds:.1f} s execution wall time"
        )
        if self.recovery_active:
            text += f"; recovery: {self.recovery_summary()}"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ExecutorStats({self.summary()})"


#: Process-wide aggregate, updated by every executor batch; the report
#: generator resets it, runs the suites, then renders the totals.
_GLOBAL_STATS = ExecutorStats()


def global_stats() -> ExecutorStats:
    """The process-wide aggregate executor statistics."""
    return _GLOBAL_STATS


def reset_global_stats() -> None:
    """Zero the process-wide aggregate (start of a report run)."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = ExecutorStats()


def config_fingerprint(config: str, n_cores: int) -> Dict[str, Any]:
    """Simulation-relevant parameters folded into every cache key.

    Captures what, besides the run spec / window / seed, determines a
    measurement: the decap configuration's electrical identity, the core
    count, and the campaign's histogram binning.
    """
    decap = proc_config(config)
    return {
        "config": decap.name,
        "decap_fraction": decap.fraction,
        "effective_fraction": decap.effective_fraction,
        "n_cores": int(n_cores),
        "with_ripple": True,
        "histogram": [HISTOGRAM_LO, HISTOGRAM_HI, HISTOGRAM_BINS],
    }


def _record_batch_telemetry(
    measurements: Sequence[RunMeasurement], batch: ExecutorStats
) -> None:
    """Record one batch's metric samples (observability enabled only).

    Content metrics (runs, cycles, droop/overshoot events by depth
    bucket, the droops-per-1K histogram) are derived from the returned
    measurements — whether they came from memo, cache, or simulation —
    so their values depend only on the requested specs, never on cache
    temperature, worker count, or injected faults.  Traffic, wall-time
    and recovery samples come from the batch statistics and describe
    this execution.
    """
    obs.increment("repro_runs_total", len(measurements))
    for measurement in measurements:
        obs.increment("repro_run_cycles_total", measurement.n_cycles)
        for depth in measurement.droops.depths:
            obs.increment(
                "repro_droop_events_total",
                depth=obs.depth_bucket(float(depth)),
            )
        for depth in measurement.overshoots.depths:
            obs.increment(
                "repro_overshoot_events_total",
                depth=obs.depth_bucket(float(depth)),
            )
        obs.observe(
            "repro_run_droops_per_1k", measurement.droop_samples_per_1k
        )
    obs.increment("repro_memo_hits_total", batch.memory_hits)
    obs.increment("repro_cache_hits_total", batch.cache.hits)
    obs.increment("repro_cache_misses_total", batch.cache.misses)
    obs.increment("repro_cache_stores_total", batch.cache.stores)
    obs.increment("repro_cache_corrupt_total", batch.cache.corrupt)
    obs.increment("repro_runs_simulated_total", batch.simulated)
    obs.increment(
        "repro_parallel_batches_total", batch.parallel_batches
    )
    obs.increment(
        "repro_batch_wall_seconds_total", batch.wall_seconds
    )
    obs.increment("repro_run_attempts_total", batch.attempts)
    obs.increment("repro_run_retries_total", batch.retries)
    obs.increment("repro_run_timeouts_total", batch.timeouts)
    obs.increment("repro_pool_rebuilds_total", batch.pool_rebuilds)
    obs.increment("repro_runs_requeued_total", batch.requeued)
    obs.increment(
        "repro_serial_fallbacks_total", batch.serial_fallbacks
    )
    obs.increment("repro_run_failures_total", len(batch.failures))


def _simulate_record(
    config: str,
    n_cycles: int,
    seed: int,
    spec_fields: Tuple[str, Tuple[str, ...], str],
    telemetry: bool = False,
    plan_spec: Optional[str] = None,
    attempt: int = 0,
    n_cores: int = 2,
) -> Dict[str, Any]:
    """Worker entry point: simulate one run, return its encoded record.

    Must stay a module-level function (pickled by name into pool
    workers).  Builds a throwaway serial campaign so the derived stream
    is exactly what the parent's campaign would have used.

    With ``telemetry=True`` the run executes under a fresh
    worker-local observability session whose spans and metric samples
    travel back alongside the record (``{"record": ..., "telemetry":
    ...}``); the parent grafts them into its own session in spec order,
    so a parallel campaign produces one merged, deterministic trace.

    ``plan_spec``/``attempt`` carry the chaos contract into the worker:
    the worker rebuilds the :class:`~repro.faults.FaultInjector` from
    the plan string and consults the ``worker.crash``, ``worker.hang``
    and ``simulate.exception`` hook points, keyed by this run's label
    and attempt number — so whether this attempt faults is decided by
    the plan alone, not by which worker process drew the task.
    """
    from repro.measurement.record import encode_measurement

    kind, workloads, spec_config = spec_fields
    campaign = MeasurementCampaign(
        config, n_cycles=n_cycles, seed=seed, n_cores=n_cores
    )
    spec = RunSpec(kind=kind, workloads=tuple(workloads), config=spec_config)
    injector = FaultInjector(plan_spec) if plan_spec is not None else None
    if not telemetry:
        _inject_worker_faults(injector, spec.label, attempt)
        return encode_measurement(campaign.simulate(spec))
    with obs.capture() as session:
        obs.increment("repro_worker_runs_total", worker=os.getpid())
        _inject_worker_faults(injector, spec.label, attempt)
        record = encode_measurement(campaign.simulate(spec))
    return {"record": record, "telemetry": session.worker_payload()}


def _inject_worker_faults(
    injector: Optional[FaultInjector], label: str, attempt: int
) -> None:
    """Consult the worker-side hook points, in severity order."""
    if injector is None:
        return
    injector.crash_worker(label, attempt)
    injector.hang_worker(label, attempt)
    injector.raise_transient(label, attempt)
    injector.bit_error(label, attempt)


class CampaignExecutor:
    """Runs batches of :class:`RunSpec` for one campaign.

    Resolution order per spec: in-memory memo → persistent cache →
    simulation (fanned out over processes when ``jobs > 1``).  Results
    are returned in input order and every simulated run is persisted.

    Parameters
    ----------
    campaign:
        The owning campaign (supplies config, window, seed and the
        serial simulation primitive).
    jobs:
        Worker processes for cache-miss simulation.  ``1`` = serial
        in-process; ``None`` = :func:`default_jobs` (``$REPRO_JOBS``).
    cache:
        Persistent result cache, or ``None`` to keep runs process-local.
    retry:
        Recovery budget; ``None`` = :meth:`RetryPolicy.from_env`
        (``$REPRO_MAX_RETRIES`` / ``$REPRO_RUN_TIMEOUT``).
    injector:
        Optional :class:`~repro.faults.FaultInjector` (chaos testing).
        Attached to ``cache`` as well so the ``cache.store`` /
        ``cache.load`` hook points see the same plan.
    """

    def __init__(
        self,
        campaign: MeasurementCampaign,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self._campaign = campaign
        self._jobs = int(jobs)
        self._seed = seed_fingerprint(campaign.seed)
        # A stateful Generator seed has no stable identity: no persistent
        # cache entries could ever be valid and workers could not re-derive
        # the stream, so degrade to serial, uncached execution.
        self._cache = cache if self._seed is not None else None
        self._retry = retry if retry is not None else RetryPolicy.from_env()
        self._injector = injector
        if injector is not None and self._cache is not None:
            if self._cache.injector is None:
                self._cache.injector = injector
        self._fingerprint = config_fingerprint(
            campaign.config, campaign.chip.n_cores
        )
        self._memory: Dict[RunSpec, RunMeasurement] = {}
        self.stats = ExecutorStats()

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def retry(self) -> RetryPolicy:
        return self._retry

    @property
    def injector(self) -> Optional[FaultInjector]:
        return self._injector

    def key_for(self, spec: RunSpec) -> Optional[str]:
        """Persistent-cache key for one spec (``None`` if uncacheable)."""
        if self._seed is None:
            return None
        return cache_key(
            spec, self._fingerprint, self._campaign.n_cycles, self._seed
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, spec: RunSpec) -> RunMeasurement:
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunMeasurement]:
        """Measure every spec, reusing memo/cache, in input order."""
        with obs.span("campaign.batch", runs=len(specs)):
            return self._run_many_impl(specs)

    def _run_many_impl(
        self, specs: Sequence[RunSpec]
    ) -> List[RunMeasurement]:
        started = obs.monotonic_seconds()
        batch = ExecutorStats()
        results: Dict[RunSpec, RunMeasurement] = {}
        missing: List[RunSpec] = []
        seen: set = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            memo = self._memory.get(spec)
            if memo is not None:
                batch.memory_hits += 1
                results[spec] = memo
                continue
            cached = self._load_cached(spec, batch)
            if cached is not None:
                results[spec] = self._remember(spec, cached, batch)
            else:
                missing.append(spec)
        if missing:
            for spec, measurement in self._simulate_missing(missing, batch):
                results[spec] = self._remember(
                    spec, measurement, batch, store=True
                )
        batch.wall_seconds = obs.monotonic_seconds() - started
        batch.merged_into(self.stats)
        batch.merged_into(_GLOBAL_STATS)
        ordered = [results[spec] for spec in specs]
        if obs.enabled():
            _record_batch_telemetry(ordered, batch)
        return ordered

    def _load_cached(
        self, spec: RunSpec, batch: ExecutorStats
    ) -> Optional[RunMeasurement]:
        if self._cache is None:
            return None
        key = self.key_for(spec)
        assert key is not None
        corrupt_before = self._cache.stats.corrupt
        measurement = self._cache.load(key)
        if measurement is None:
            batch.cache.misses += 1
            batch.cache.corrupt += self._cache.stats.corrupt - corrupt_before
            return None
        batch.cache.hits += 1
        return measurement

    def _remember(
        self,
        spec: RunSpec,
        measurement: RunMeasurement,
        batch: ExecutorStats,
        store: bool = False,
    ) -> RunMeasurement:
        self._memory[spec] = measurement
        if store and self._cache is not None:
            key = self.key_for(spec)
            assert key is not None
            self._cache.store(key, measurement)
            batch.cache.stores += 1
        return measurement

    def _simulate_missing(
        self, specs: List[RunSpec], batch: ExecutorStats
    ) -> List[Tuple[RunSpec, RunMeasurement]]:
        # Each missing spec is counted as simulated exactly once, here,
        # regardless of how many attempts, requeues or pool rebuilds the
        # recovery machinery spends on it (pinned by the stats
        # regression tests: retried runs must not double-count).
        batch.simulated += len(specs)
        if self._jobs > 1 and len(specs) > 1 and self._seed is not None:
            return self._simulate_parallel(specs, batch)
        if (
            len(specs) > 1
            and self._injector is None
            and not obs.enabled()
        ):
            return self._simulate_batched(specs, batch)
        return [
            (spec, self._simulate_serial(spec, batch)) for spec in specs
        ]

    # -- batched serial fast path ----------------------------------------
    def _simulate_batched(
        self, specs: List[RunSpec], batch: ExecutorStats
    ) -> List[Tuple[RunSpec, RunMeasurement]]:
        """Simulate serial cache misses in chunks of the batched solve.

        Runs :data:`BATCH_CHUNK_RUNS`-sized chunks through
        :meth:`MeasurementCampaign.simulate_batch`, the same solve a
        single run takes as a batch of one.  Only taken when
        observability is off and no fault injector is attached: the
        per-spec route keeps one ``run.simulate`` span per run and
        consults the fault hooks per attempt.  A chunk that fails for
        any reason degrades to the per-spec serial route, which retries
        and propagates.
        """
        results: List[Tuple[RunSpec, RunMeasurement]] = []
        for start in range(0, len(specs), BATCH_CHUNK_RUNS):
            chunk = specs[start:start + BATCH_CHUNK_RUNS]
            batch.attempts += len(chunk)
            try:
                measurements = self._campaign.simulate_batch(chunk)
            except Exception as error:  # simlint: disable=HYG003
                batch.retries += 1
                batch.failures.append(
                    RunFailure(
                        run=f"batch[{chunk[0].label}..+{len(chunk) - 1}]",
                        site="simulate",
                        error=_describe_error(error),
                        attempt=1,
                        action="serial-fallback",
                    )
                )
                batch.serial_fallbacks += 1
                results.extend(
                    (spec, self._simulate_serial(spec, batch))
                    for spec in chunk
                )
                continue
            results.extend(zip(chunk, measurements))
        return results

    # -- serial path (and parallel fallback) ----------------------------
    def _simulate_serial(
        self, spec: RunSpec, batch: ExecutorStats
    ) -> RunMeasurement:
        """Simulate in-process with bounded retries and backoff.

        Attempts ``0..max_retries`` run under fault injection (and
        absorb *any* exception, injected or real); the final attempt
        runs clean and uncaught, so persistent real errors still
        propagate while injected chaos always converges to the
        fault-free result.
        """
        label = spec.label
        for attempt in range(self._retry.max_retries + 1):
            batch.attempts += 1
            try:
                if self._injector is not None:
                    self._injector.raise_transient(label, attempt)
                    self._injector.bit_error(label, attempt)
                if attempt == 0:
                    return self._campaign.simulate(spec)
                with obs.span("run.retry", run=label, attempt=attempt):
                    return self._campaign.simulate(spec)
            except Exception as error:  # simlint: disable=HYG003
                batch.retries += 1
                batch.failures.append(
                    RunFailure(
                        run=label,
                        site="simulate",
                        error=_describe_error(error),
                        attempt=attempt + 1,
                        action="retried",
                    )
                )
                time.sleep(self._retry.backoff_seconds(attempt + 1))
        batch.attempts += 1
        with obs.span("run.retry", run=label, attempt="final"):
            return self._campaign.simulate(spec)

    # -- parallel path ---------------------------------------------------
    def _simulate_parallel(
        self, specs: List[RunSpec], batch: ExecutorStats
    ) -> List[Tuple[RunSpec, RunMeasurement]]:
        """Fan specs over a process pool, surviving crashes and hangs.

        Each round submits every pending spec; a broken pool or a timed
        out attempt abandons the round, tears the pool down, and
        requeues exactly the runs that have no result yet.  A run that
        exhausts its pool attempts is handed to the serial path, whose
        final attempt is injection-free — so this method always returns
        a complete, bit-identical result set.
        """
        assert self._seed is not None
        batch.parallel_batches += 1
        config = self._campaign.config
        n_cycles = self._campaign.n_cycles
        telemetry = obs.enabled()
        plan_spec = (
            self._injector.plan.spec if self._injector is not None else None
        )
        max_attempts = self._retry.max_retries + 1
        attempts: Dict[RunSpec, int] = {spec: 0 for spec in specs}
        payloads: Dict[RunSpec, Any] = {}
        fallback: List[RunSpec] = []
        pending: List[RunSpec] = list(specs)
        pool: Optional[ProcessPoolExecutor] = None
        rounds = 0
        try:
            while pending:
                rounds += 1
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self._jobs, len(pending))
                    )
                futures = {}
                requeue: List[RunSpec] = []
                abandoned = False
                for spec in pending:
                    try:
                        futures[spec] = pool.submit(
                            _simulate_record,
                            config,
                            n_cycles,
                            self._seed,
                            (spec.kind, spec.workloads, spec.config),
                            telemetry,
                            plan_spec,
                            attempts[spec],
                            self._campaign.chip.n_cores,
                        )
                    except BrokenProcessPool as error:
                        # The pool died while we were still submitting;
                        # everything not yet submitted joins the requeue.
                        abandoned = True
                        self._parallel_failure(
                            batch, spec, "pool", _describe_error(error),
                            attempts, max_attempts, requeue, fallback,
                        )
                batch.attempts += len(futures)
                for spec in pending:
                    future = futures.get(spec)
                    if future is None:
                        continue
                    if abandoned and not future.done():
                        # Casualty of this round's crash/hang: no result,
                        # but nothing to wait for either — requeue it.
                        self._parallel_failure(
                            batch, spec, "pool",
                            "round abandoned (pool torn down)",
                            attempts, max_attempts, requeue, fallback,
                        )
                        continue
                    try:
                        payloads[spec] = future.result(
                            timeout=(
                                None if abandoned
                                else self._retry.run_timeout
                            )
                        )
                    except FuturesTimeoutError:
                        batch.timeouts += 1
                        abandoned = True
                        self._parallel_failure(
                            batch, spec, "timeout",
                            f"no result within {self._retry.run_timeout}s",
                            attempts, max_attempts, requeue, fallback,
                        )
                    except BrokenProcessPool as error:
                        abandoned = True
                        self._parallel_failure(
                            batch, spec, "pool", _describe_error(error),
                            attempts, max_attempts, requeue, fallback,
                        )
                    except Exception as error:  # simlint: disable=HYG003
                        self._parallel_failure(
                            batch, spec, "worker", _describe_error(error),
                            attempts, max_attempts, requeue, fallback,
                        )
                if abandoned:
                    batch.pool_rebuilds += 1
                    with obs.span("pool.rebuild", round=rounds):
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    time.sleep(self._retry.backoff_seconds(rounds))
                pending = requeue
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        session = obs.active_session()
        results: List[Tuple[RunSpec, RunMeasurement]] = []
        for spec in specs:
            payload = payloads.get(spec)
            if payload is None:
                with obs.span("run.fallback", run=spec.label):
                    results.append(
                        (spec, self._simulate_serial(spec, batch))
                    )
                continue
            if telemetry:
                record = dict(payload["record"])
                if session is not None:
                    session.absorb_worker(payload["telemetry"])
            else:
                record = payload
            results.append((spec, decode_measurement(record)))
        return results

    def _parallel_failure(
        self,
        batch: ExecutorStats,
        spec: RunSpec,
        site: str,
        error: str,
        attempts: Dict[RunSpec, int],
        max_attempts: int,
        requeue: List[RunSpec],
        fallback: List[RunSpec],
    ) -> None:
        """Book one failed pool attempt and route the spec onward."""
        attempts[spec] += 1
        exhausted = attempts[spec] >= max_attempts
        action = "serial-fallback" if exhausted else "requeued"
        batch.failures.append(
            RunFailure(
                run=spec.label,
                site=site,
                error=error,
                attempt=attempts[spec],
                action=action,
            )
        )
        if exhausted:
            batch.serial_fallbacks += 1
            fallback.append(spec)
        else:
            batch.retries += 1
            batch.requeued += 1
            requeue.append(spec)


def _describe_error(error: BaseException) -> str:
    """One-line error description for :class:`RunFailure` records."""
    text = str(error).strip().splitlines()
    detail = text[0] if text else ""
    name = type(error).__name__
    return f"{name}: {detail}" if detail else name


def _describe_cache(cache: Optional[ResultCache]) -> str:
    if cache is None:
        return "disabled"
    return str(cache.directory)


def format_stats(
    stats: ExecutorStats, cache: Optional[ResultCache] = None
) -> str:
    """One-line execution summary for CLI / report output."""
    return f"[executor] {stats.summary()} (cache dir: {_describe_cache(cache)})"
