"""Campaign execution engine: parallel fan-out, persistent cache, recovery.

The 881-run characterization protocol is embarrassingly parallel: every
run derives its random stream *directly from the campaign's base seed and
its own spec* (see :meth:`MeasurementCampaign.simulate`), so no run
depends on any other's execution.  :class:`CampaignExecutor` exploits
that twice over:

* **fan-out** — cache misses are solved in chunks of
  :data:`BATCH_CHUNK_RUNS` consecutive runs, in process or as one
  :class:`~concurrent.futures.ProcessPoolExecutor` future per chunk;
  because each run re-derives the identical stream from ``(seed,
  spec)``, parallel and serial execution produce *bit-identical*
  measurements (enforced by the equivalence test battery);
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
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import observability as obs
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, InjectedFault
from repro.measurement.cache import CacheStats, ResultCache, cache_key
from repro.measurement.campaign import (
    HISTOGRAM_BINS,
    HISTOGRAM_HI,
    HISTOGRAM_LO,
    MeasurementCampaign,
    RunMeasurement,
    RunSpec,
    batch_label,
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

#: Runs per batched chip/PDN solve.  Every cache miss is first solved in
#: a chunk of this many consecutive specs, in process or as one pool
#: future.  Chunking bounds the stacked current matrix (chunk * n_cores *
#: n_cycles floats) while keeping the filter calls large enough to
#: amortize their setup.
BATCH_CHUNK_RUNS = 4

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
    and serial count separately); ``run_timeout`` bounds one run
    attempt's wall time in the pool, so a chunk's future waits
    ``run_timeout * len(chunk)`` (``None`` = wait forever — hung workers
    then surface only through pool breakage); backoff between retries is
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
    broken pool), ``"timeout"`` (the chunk's future exceeded its
    ``run_timeout`` budget), ``"worker"`` (exception or injected fault
    inside a pool worker) or
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


def _chunks(specs: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Consecutive :data:`BATCH_CHUNK_RUNS`-run chunks of ``specs``."""
    step = BATCH_CHUNK_RUNS
    return [list(specs[i:i + step]) for i in range(0, len(specs), step)]


def _inject_faults(
    injector: Optional[FaultInjector],
    label: str,
    attempt: int,
    in_worker: bool = False,
) -> None:
    """Consult one run attempt's hook points, in severity order
    (``worker.crash``/``worker.hang`` only in a pool worker)."""
    if injector is None:
        return
    if in_worker:
        injector.crash_worker(label, attempt)
        injector.hang_worker(label, attempt)
    injector.raise_transient(label, attempt)
    injector.bit_error(label, attempt)


def _solve_chunk(
    campaign: MeasurementCampaign,
    specs: Sequence[RunSpec],
    attempts: Sequence[int],
    injector: Optional[FaultInjector],
    in_worker: bool = False,
) -> List[Union[RunMeasurement, str]]:
    """Solve one chunk: per-run fault hooks, then one batched solve.

    Each run's hooks see that run's attempt number, so whether it
    faults never depends on its chunk.  A faulted run comes back as its
    error description; the rest go through one
    :meth:`MeasurementCampaign.simulate_batch`, whose exceptions
    propagate.
    """
    faults: Dict[RunSpec, str] = {}
    for spec, attempt in zip(specs, attempts):
        try:
            _inject_faults(injector, spec.label, attempt, in_worker)
        except InjectedFault as error:
            faults[spec] = _describe_error(error)
    solved = iter(campaign.simulate_batch([s for s in specs if s not in faults]))
    return [faults.get(spec) or next(solved) for spec in specs]


def _simulate_record(
    config: str,
    n_cycles: int,
    seed: int,
    chunk: Sequence[RunSpec],
    attempts: Sequence[int],
    telemetry: bool = False,
    plan_spec: Optional[str] = None,
    n_cores: int = 2,
) -> Dict[str, Any]:
    """Worker entry point: :func:`_solve_chunk` on a throwaway campaign.

    Must stay a module-level function (pickled by name into pool
    workers).  The throwaway serial campaign derives exactly the streams
    the parent's would, and ``plan_spec`` rebuilds the chaos injector.
    Returns per run its encoded record or fault description
    (``"runs"``), plus, with ``telemetry=True``, the worker-local
    session's spans and metric samples, which the parent grafts into
    its own session in chunk order (``"telemetry"``).
    """
    from repro.measurement.record import encode_measurement

    campaign = MeasurementCampaign(
        config, n_cycles=n_cycles, seed=seed, n_cores=n_cores
    )
    injector = FaultInjector(plan_spec) if plan_spec is not None else None
    with obs.capture() if telemetry else nullcontext() as session:
        outcomes = _solve_chunk(
            campaign, chunk, attempts, injector, in_worker=True
        )
        runs = [o if isinstance(o, str) else encode_measurement(o) for o in outcomes]
        solved = sum(not isinstance(run, str) for run in runs)
        obs.increment("repro_worker_runs_total", solved, worker=os.getpid())
    telemetry_payload = session.worker_payload() if session else None
    return {"runs": runs, "telemetry": telemetry_payload}


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
        results: List[Tuple[RunSpec, RunMeasurement]] = []
        for chunk in _chunks(specs):
            results.extend(self._simulate_chunk(chunk, batch))
        return results

    # -- in-process path -------------------------------------------------
    def _simulate_chunk(
        self, chunk: List[RunSpec], batch: ExecutorStats
    ) -> List[Tuple[RunSpec, RunMeasurement]]:
        """Solve one chunk in process with :func:`_solve_chunk`.

        A faulted run is booked as a failed serial attempt and retried
        from attempt 1; a chunk whose solve raises is booked as one
        ``batch[...]`` failure and re-simulated run by run.
        """
        batch.attempts += len(chunk)
        try:
            outcomes = _solve_chunk(
                self._campaign, chunk, [0] * len(chunk), self._injector
            )
        except Exception as error:  # simlint: disable=HYG003
            batch.retries += 1
            batch.serial_fallbacks += 1
            batch.failures.append(RunFailure(
                f"batch[{batch_label(chunk)}]", "simulate",
                _describe_error(error), 1, "serial-fallback",
            ))
            return [
                (spec, self._simulate_serial(spec, batch)) for spec in chunk
            ]
        results: List[Tuple[RunSpec, RunMeasurement]] = []
        for spec, outcome in zip(chunk, outcomes):
            if isinstance(outcome, str):
                self._book_retry(batch, spec.label, outcome, 0)
                outcome = self._simulate_serial(spec, batch, first_attempt=1)
            results.append((spec, outcome))
        return results

    def _simulate_serial(
        self, spec: RunSpec, batch: ExecutorStats, first_attempt: int = 0
    ) -> RunMeasurement:
        """Simulate in-process with bounded retries and backoff.

        Attempts ``first_attempt..max_retries`` run under fault
        injection (and absorb *any* exception, injected or real); the
        final attempt runs clean and uncaught, so persistent real errors
        still propagate while injected chaos always converges to the
        fault-free result.
        """
        label = spec.label
        for attempt in range(first_attempt, self._retry.max_retries + 1):
            batch.attempts += 1
            try:
                _inject_faults(self._injector, label, attempt)
                with (
                    obs.span("run.retry", run=label, attempt=attempt)
                    if attempt else nullcontext()
                ):
                    return self._campaign.simulate(spec)
            except Exception as error:  # simlint: disable=HYG003
                self._book_retry(batch, label, _describe_error(error), attempt)
        batch.attempts += 1
        with obs.span("run.retry", run=label, attempt="final"):
            return self._campaign.simulate(spec)

    def _book_retry(
        self, batch: ExecutorStats, label: str, error: str, attempt: int
    ) -> None:
        """Book failed serial ``attempt`` and back off before the next."""
        batch.retries += 1
        batch.failures.append(
            RunFailure(label, "simulate", error, attempt + 1, "retried")
        )
        time.sleep(self._retry.backoff_seconds(attempt + 1))

    # -- parallel path ---------------------------------------------------
    def _simulate_parallel(
        self, specs: List[RunSpec], batch: ExecutorStats
    ) -> List[Tuple[RunSpec, RunMeasurement]]:
        """Fan chunks over a process pool, surviving crashes and hangs.

        Each round submits one future per chunk of the pending runs.  A
        run faulted in its worker is requeued alone; a broken pool or a
        timed-out future abandons the round, tears the pool down, and
        requeues exactly the runs that have no result yet.  A run that
        exhausts its pool attempts is handed to the serial path, whose
        final attempt is injection-free.
        """
        assert self._seed is not None
        batch.parallel_batches += 1
        plan_spec = (
            self._injector.plan.spec if self._injector is not None else None
        )
        attempts: Dict[RunSpec, int] = {spec: 0 for spec in specs}
        records: Dict[RunSpec, Dict[str, Any]] = {}
        pending: List[RunSpec] = list(specs)
        pool: Optional[ProcessPoolExecutor] = None
        rounds = 0
        try:
            while pending:
                rounds += 1
                chunks = _chunks(pending)
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self._jobs, len(chunks))
                    )
                futures = []
                requeue: Set[RunSpec] = set()
                abandoned = False
                for chunk in chunks:
                    try:
                        futures.append((chunk, pool.submit(
                            _simulate_record,
                            self._campaign.config,
                            self._campaign.n_cycles,
                            self._seed,
                            chunk,
                            [attempts[spec] for spec in chunk],
                            obs.enabled(),
                            plan_spec,
                            self._campaign.chip.n_cores,
                        )))
                        batch.attempts += len(chunk)
                    except BrokenProcessPool as error:
                        # The pool died while we were still submitting;
                        # everything not yet submitted joins the requeue.
                        abandoned = True
                        outcomes = [_describe_error(error)] * len(chunk)
                        self._route(batch, chunk, "pool", outcomes,
                                    attempts, requeue, records)
                for chunk, future in futures:
                    site, outcomes, abandoned = self._collect(
                        batch, chunk, future, abandoned
                    )
                    self._route(batch, chunk, site, outcomes,
                                attempts, requeue, records)
                if abandoned:
                    batch.pool_rebuilds += 1
                    with obs.span("pool.rebuild", round=rounds):
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    time.sleep(self._retry.backoff_seconds(rounds))
                pending = [spec for spec in pending if spec in requeue]
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        results: List[Tuple[RunSpec, RunMeasurement]] = []
        for spec in specs:
            record = records.get(spec)
            if record is None:
                with obs.span("run.fallback", run=spec.label):
                    results.append(
                        (spec, self._simulate_serial(spec, batch))
                    )
            else:
                results.append((spec, decode_measurement(record)))
        return results

    def _collect(
        self, batch: ExecutorStats, chunk: List[RunSpec],
        future: Future[Dict[str, Any]], abandoned: bool,
    ) -> Tuple[str, List[Any], bool]:
        """One chunk future's failure site, per-run outcomes (encoded
        record or error) and whether the round is now abandoned."""
        if abandoned and not future.done():
            # Casualty of this round's crash/hang: no result, but
            # nothing to wait for either — requeue its runs.
            return "pool", ["round abandoned (pool torn down)"] * len(chunk), True
        timeout = self._retry.run_timeout
        budget = None if abandoned or timeout is None else timeout * len(chunk)
        try:
            payload = future.result(timeout=budget)
        except FuturesTimeoutError:
            batch.timeouts += 1
            return "timeout", [f"no result within {budget:g}s"] * len(chunk), True
        except BrokenProcessPool as error:
            return "pool", [_describe_error(error)] * len(chunk), True
        except Exception as error:  # simlint: disable=HYG003
            return "worker", [_describe_error(error)] * len(chunk), abandoned
        session = obs.active_session()
        if session is not None:
            session.absorb_worker(payload["telemetry"])
        return "worker", payload["runs"], abandoned

    def _route(
        self, batch: ExecutorStats, chunk: List[RunSpec], site: str,
        outcomes: List[Any], attempts: Dict[RunSpec, int],
        requeue: Set[RunSpec], records: Dict[RunSpec, Dict[str, Any]],
    ) -> None:
        """Keep each run's record, or book its failed pool attempt and
        requeue it (left to the serial fallback once exhausted)."""
        for spec, outcome in zip(chunk, outcomes):
            if not isinstance(outcome, str):
                records[spec] = outcome
                continue
            attempts[spec] += 1
            exhausted = attempts[spec] > self._retry.max_retries
            action = "serial-fallback" if exhausted else "requeued"
            batch.failures.append(
                RunFailure(spec.label, site, outcome, attempts[spec], action)
            )
            if exhausted:
                batch.serial_fallbacks += 1
            else:
                batch.retries += 1
                batch.requeued += 1
                requeue.add(spec)


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
