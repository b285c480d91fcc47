"""Batch measurement campaigns — the paper's 881 benchmarking runs.

Sec. III-A draws its conclusions from 881 runs on the instrumented
machine: 29 single-threaded SPEC CPU2006 programs, 11 multi-threaded
PARSEC programs, and the full 29x29 multi-program CPU2006 pairing sweep.
:class:`MeasurementCampaign` reproduces that protocol against the
simulated chip: each run samples representative execution windows (at a
random point of program time), executes them on both cores, and records
counters, droop/overshoot excursions and the sample histogram.

Runs are cached by (workloads, configuration), so experiment harnesses can
share one campaign instance without re-simulating.  All measurement goes
through a :class:`~repro.measurement.executor.CampaignExecutor`, which
adds two cross-process layers on top of the in-memory memo: an optional
persistent :class:`~repro.measurement.cache.ResultCache` (``cache=``) and
process fan-out for cache misses (``jobs=``).  Parallel and serial
execution are bit-identical because every run's random stream is derived
from the base seed and the run's own spec, never from shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import observability as obs
from repro.errors import ConfigurationError, WorkloadError
from repro.measurement.droops import (
    CHARACTERIZATION_MARGIN,
    DroopStatistics,
    detect_droops,
    detect_overshoots,
    droop_samples_per_1k,
)
from repro.measurement.histogram import CompressedHistogram
from repro.measurement.tail import DroopTailModel
from repro.random_utils import SeedLike, derive_generator
from repro.uarch.chip import Chip, ChipRun
from repro.uarch.counters import PerformanceCounters
from repro.uarch.window import ExecutionWindow
from repro.workloads.base import Workload
from repro.workloads.microbenchmarks import IdleLoop
from repro.workloads.parsec import PARSEC, ParsecWorkload
from repro.workloads.spec import SPEC_CPU2006

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults import FaultInjector
    from repro.measurement.cache import ResultCache
    from repro.measurement.executor import CampaignExecutor, RetryPolicy

#: Histogram binning shared by all campaign measurements.
HISTOGRAM_LO = -0.20
HISTOGRAM_HI = 0.20
HISTOGRAM_BINS = 1600


@dataclass(frozen=True)
class RunSpec:
    """Identity of one benchmarking run."""

    kind: str  # "single" | "multithread" | "multiprogram"
    workloads: Tuple[str, ...]
    config: str

    @property
    def label(self) -> str:
        return f"{'+'.join(self.workloads)}@{self.config}"


@dataclass(frozen=True)
class RunMeasurement:
    """Everything recorded about one run."""

    spec: RunSpec
    n_cycles: int
    counters: Tuple[PerformanceCounters, ...]
    droops: DroopStatistics
    overshoots: DroopStatistics
    histogram: CompressedHistogram
    droop_samples_per_1k: float

    @property
    def max_droop(self) -> float:
        """Deepest droop excursion (fraction of nominal)."""
        return self.droops.max_depth()

    @property
    def max_overshoot(self) -> float:
        return self.overshoots.max_depth()

    @property
    def throughput_ipc(self) -> float:
        """Chip throughput: the sum of per-core IPCs."""
        return float(sum(c.ipc for c in self.counters))

    @property
    def mean_stall_ratio(self) -> float:
        return float(np.mean([c.stall_ratio for c in self.counters]))

    def tail_model(self) -> DroopTailModel:
        """Tail model for emergency-rate extrapolation on this run."""
        return DroopTailModel(self.droops)


def batch_label(specs: Sequence[RunSpec]) -> str:
    """``"<first label>..+<n-1>"``: the name of a batch of runs."""
    return f"{specs[0].label}..+{len(specs) - 1}"


class MeasurementCampaign:
    """Runs and caches workload measurements on one chip configuration.

    Parameters
    ----------
    config:
        Decap configuration name (``"Proc100"``, ``"Proc25"``, ``"Proc3"`` …).
    n_cycles:
        Window length per run.  Longer windows resolve rarer events;
        40k cycles keep the full 881-run sweep tractable.
    seed:
        Base seed; every run derives an independent stream from it, so a
        campaign is fully reproducible.
    jobs:
        Worker processes for batch simulation (``1`` = serial in-process;
        ``None`` = honor ``$REPRO_JOBS``).  Parallel runs are bit-identical
        to serial ones.
    cache:
        Optional persistent :class:`~repro.measurement.cache.ResultCache`
        shared across processes; ``None`` keeps results process-local.
    retry:
        Optional :class:`~repro.measurement.executor.RetryPolicy`
        governing per-run timeouts, retry budget and backoff; ``None``
        honors ``$REPRO_MAX_RETRIES`` / ``$REPRO_RUN_TIMEOUT``.
    injector:
        Optional :class:`~repro.faults.FaultInjector` enabling seeded
        fault injection at the executor and cache hook points (chaos
        testing); ``None`` runs clean.
    n_cores:
        Cores on the simulated chip (one shared supply).  The paper's
        measurements use the dual-core default; the scheduling arena
        raises it for N-core co-scheduling studies.  Core count is part
        of the cache fingerprint, so campaigns with different core
        counts never alias.
    """

    def __init__(
        self,
        config: str = "Proc100",
        n_cycles: int = 40_000,
        seed: SeedLike = 0,
        jobs: Optional[int] = None,
        cache: Optional["ResultCache"] = None,
        retry: Optional["RetryPolicy"] = None,
        injector: Optional["FaultInjector"] = None,
        n_cores: int = 2,
    ) -> None:
        if n_cycles < 1000:
            raise ConfigurationError("n_cycles must be at least 1000")
        self._config = config
        self._n_cycles = int(n_cycles)
        self._seed = seed
        self._chip = Chip(config, n_cores=n_cores, with_ripple=True)
        self._idle = IdleLoop()
        # Imported here: the executor module imports this one at load time.
        from repro.measurement.executor import CampaignExecutor

        self._executor = CampaignExecutor(
            self, jobs=jobs, cache=cache, retry=retry, injector=injector
        )

    @property
    def config(self) -> str:
        return self._config

    @property
    def n_cycles(self) -> int:
        return self._n_cycles

    @property
    def seed(self) -> SeedLike:
        return self._seed

    @property
    def chip(self) -> Chip:
        return self._chip

    @property
    def executor(self) -> "CampaignExecutor":
        return self._executor

    # ------------------------------------------------------------------
    # Measurement primitives
    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> Workload:
        if name == "idle":
            return self._idle
        if name in SPEC_CPU2006:
            return SPEC_CPU2006[name]
        if name in PARSEC:
            return PARSEC[name]
        raise WorkloadError(f"unknown workload {name!r}")

    def simulate(self, spec: RunSpec) -> RunMeasurement:
        """Simulate one run from scratch (no caching).

        The run's random stream is derived from the campaign's base seed
        and the spec alone — **never** from shared mutable state — which
        is the contract that makes parallel fan-out and cache replay
        bit-identical to serial execution.  One run is a batch of one
        (see :meth:`simulate_batch`).
        """
        return self.simulate_batch([spec])[0]

    def _program_window(
        self, rng: np.random.Generator, index: int, name: str
    ) -> ExecutionWindow:
        """One multiprogram slot's window (consumes ``rng`` in spec order)."""
        workload = self._resolve(name)
        at_time = float(rng.uniform(0, workload.duration_seconds))
        return workload.sample_window(
            self._n_cycles,
            rng=derive_generator(rng, "win", index),
            at_time_s=at_time,
        )

    def _sample_windows(
        self, spec: RunSpec, rng: np.random.Generator
    ) -> List[ExecutionWindow]:
        """Sample one run's per-core windows from its derived stream."""
        if spec.kind == "multithread":
            workload = self._resolve(spec.workloads[0])
            assert isinstance(workload, ParsecWorkload)
            at_time = float(rng.uniform(0, workload.duration_seconds))
            return list(
                workload.sample_thread_windows(
                    self._chip.n_cores, self._n_cycles, rng=rng, at_time_s=at_time
                )
            )
        windows = [
            self._program_window(rng, i, name)
            for i, name in enumerate(spec.workloads)
        ]
        windows += [
            self._idle.sample_window(
                self._n_cycles, rng=derive_generator(rng, "idle", i)
            )
            for i in range(len(spec.workloads), self._chip.n_cores)
        ]
        return windows

    def _measure_run(self, spec: RunSpec, run: ChipRun) -> RunMeasurement:
        """Reduce one chip run to its recorded measurement."""
        histogram = CompressedHistogram(HISTOGRAM_LO, HISTOGRAM_HI, HISTOGRAM_BINS)
        histogram.add(run.voltage.deviations_fraction())
        return RunMeasurement(
            spec=spec,
            n_cycles=self._n_cycles,
            counters=tuple(e.counters for e in run.cores),
            droops=detect_droops(run.voltage),
            overshoots=detect_overshoots(run.voltage),
            histogram=histogram,
            droop_samples_per_1k=droop_samples_per_1k(
                run.voltage, CHARACTERIZATION_MARGIN
            ),
        )

    def _draw_run(
        self, spec: RunSpec
    ) -> Tuple[List[ExecutionWindow], np.random.Generator]:
        """One run's windows and chip seed, derived from ``(seed, spec)``."""
        rng = derive_generator(self._seed, spec.kind, *spec.workloads, spec.config)
        windows = self._sample_windows(spec, rng)
        return windows, derive_generator(rng, "chip")

    def simulate_batch(self, specs: Sequence[RunSpec]) -> List[RunMeasurement]:
        """Simulate several runs through one batched chip/PDN solve.

        Every run's stream is derived from ``(seed, spec)`` alone, and
        the batched EMA/PDN filters are exact per row, so each returned
        measurement is bit-identical to a batch of one
        (:meth:`simulate`) — pinned by the batching equivalence tests.
        The batch records one ``run.simulate`` span named by
        :func:`batch_label`.  An empty batch returns an empty list.
        """
        if not specs:
            return []
        with obs.span("run.simulate", runs=len(specs), run=batch_label(specs)):
            drawn = [self._draw_run(spec) for spec in specs]
            runs = self._chip.run_batch(
                [windows for windows, _ in drawn],
                seeds=[seed for _, seed in drawn],
            )
            return [
                self._measure_run(spec, run) for spec, run in zip(specs, runs)
            ]

    def run_spec(
        self, *workload_names: str, kind: Optional[str] = None
    ) -> RunSpec:
        """Validate workload names and infer the run kind.

        One name → single-threaded (the other cores idle), except PARSEC
        names which run multi-threaded; several names → multi-program
        group (a pair on the default dual-core chip).
        """
        if not 1 <= len(workload_names) <= self._chip.n_cores:
            raise ConfigurationError(
                f"need 1..{self._chip.n_cores} workloads, got {len(workload_names)}"
            )
        for name in workload_names:
            self._resolve(name)
        if kind is None:
            if len(workload_names) >= 2:
                kind = "multiprogram"
            elif workload_names[0] in PARSEC:
                kind = "multithread"
            else:
                kind = "single"
        return RunSpec(
            kind=kind, workloads=tuple(workload_names), config=self._config
        )

    def measure(self, *workload_names: str, kind: Optional[str] = None) -> RunMeasurement:
        """Measure (or fetch from memo/cache) one run."""
        return self._executor.run_one(self.run_spec(*workload_names, kind=kind))

    # ------------------------------------------------------------------
    # Suites
    # ------------------------------------------------------------------
    def measure_specs(self, specs: Sequence[RunSpec]) -> List[RunMeasurement]:
        """Measure a batch of specs through the executor (one fan-out)."""
        return self._executor.run_many(specs)

    def single_threaded_runs(
        self, names: Optional[Sequence[str]] = None
    ) -> List[RunMeasurement]:
        """The 29 single-threaded CPU2006 runs (other core idle)."""
        names = list(names) if names is not None else sorted(SPEC_CPU2006)
        return self.measure_specs(
            [self.run_spec(name, kind="single") for name in names]
        )

    def multithreaded_runs(
        self, names: Optional[Sequence[str]] = None
    ) -> List[RunMeasurement]:
        """The 11 PARSEC multi-threaded runs."""
        names = list(names) if names is not None else sorted(PARSEC)
        return self.measure_specs(
            [self.run_spec(name, kind="multithread") for name in names]
        )

    def multiprogram_runs(
        self, names: Optional[Sequence[str]] = None
    ) -> List[RunMeasurement]:
        """The 29x29 CPU2006 pairing sweep (841 runs)."""
        names = list(names) if names is not None else sorted(SPEC_CPU2006)
        return self.measure_specs([
            self.run_spec(a, b, kind="multiprogram")
            for a in names
            for b in names
        ])

    def specrate_runs(
        self, names: Optional[Sequence[str]] = None
    ) -> List[RunMeasurement]:
        """SPECrate: two copies of the same program (the diagonal)."""
        names = list(names) if names is not None else sorted(SPEC_CPU2006)
        return self.measure_specs([
            self.run_spec(name, name, kind="multiprogram") for name in names
        ])

    def all_runs(
        self,
        spec_names: Optional[Sequence[str]] = None,
        parsec_names: Optional[Sequence[str]] = None,
    ) -> List[RunMeasurement]:
        """The full 881-run protocol (29 ST + 11 MT + 841 MP).

        Pass subsets to both arguments for a scaled-down protocol (used by
        the quick benchmark variants).
        """
        return (
            self.single_threaded_runs(spec_names)
            + self.multithreaded_runs(parsec_names)
            + self.multiprogram_runs(spec_names)
        )
