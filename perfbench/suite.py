"""The benchmark's workloads and the checks on their outputs.

Each workload has the same life cycle, driven by ``run.py``:

* ``import_modules`` — the program's imports (once per process);
* ``prepare`` — the cheap per-use construction, timed several times;
* ``iterate`` — one timed iteration, checked right after its timer stops;
* ``finish`` — checks that need every iteration, outside any timer.

The simulated statistics are deterministic, so the checks pin them: a
change that only speeds the program up cannot move a digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence

#: Normalized digest of the quick-protocol report (the same whether its
#: runs were simulated or replayed from a cache).
REPORT_DIGEST = (
    "5c70660f38a52b2d1efdf8bc6cdb2d61dc81d7356d1ebed614c216f911bf0f35"
)

#: Digest of the 841-run Proc3 pairing sweep at campaign seed 0.
SWEEP_DIGEST_SEED0 = (
    "c39d81be5c92df7d8c0310202a9e725e21a086bbf9618a40695216b6efc96332"
)

SWEEP_CONFIG = "Proc3"
SWEEP_CYCLES = 40_000

#: Report sections whose content depends on timing or on cache state.
VOLATILE_SECTIONS = ("Execution statistics", "Observability")


def normalize_report(text: str) -> str:
    """The report without its timing- and cache-dependent parts.

    Drops the ", N s" elapsed time from the header line and the whole
    execution-statistics and observability sections, so a cold and a
    warm report of the same results normalize to the same text.
    """
    text = re.sub(r" protocol, \d+ s\.", " protocol.", text, count=1)
    sections = re.split(r"(?m)^(?=## )", text)
    volatile = tuple(f"## {title}\n" for title in VOLATILE_SECTIONS)
    return "".join(s for s in sections if not s.startswith(volatile))


def report_digest(text: str) -> str:
    return hashlib.sha256(normalize_report(text).encode("utf-8")).hexdigest()


def sweep_digest(measurements: Sequence[Any]) -> str:
    """SHA-256 over every run's encoded record, in spec order.

    The record's schema number is left out: it names the encoding, not
    a simulated statistic.
    """
    from repro.measurement.record import encode_measurement

    digest = hashlib.sha256()
    for measurement in measurements:
        record = encode_measurement(measurement)
        record.pop("schema", None)
        digest.update(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()


@dataclass
class Outcome:
    """One iteration: its wall time, simulated cycles and check result."""

    wall_s: float
    cycles: float = 0.0
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    name = ""
    why = ""
    jobs = 1
    #: Printed with the metrics: what the numbers leave out.
    note = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def import_modules(self) -> None:
        raise NotImplementedError

    def prepare(self) -> Any:
        raise NotImplementedError

    def iterate(self) -> Outcome:
        raise NotImplementedError

    def finish(self, outcomes: Sequence[Outcome]) -> None:
        """Checks over all iterations; they add problems to ``outcomes``."""


class ReportCold(Workload):
    """``generate_report(quick=True)`` at jobs=1 on an empty cache.

    The experiments fix their own seeds, so ``seed`` is unused here.
    ``configure_execution`` runs before every iteration with a new cache
    directory: it drops the memoized campaigns, so every iteration starts
    from an empty disk cache and an empty memory.
    """

    name = "report_cold"
    why = ("quick report on an empty cache: the headline command on first "
           "use, touching every layer")

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self._cache_dirs = 0

    def import_modules(self) -> None:
        import importlib

        import repro.reporting  # noqa: F401
        from repro.cli import EXPERIMENTS

        for module in EXPERIMENTS.values():
            importlib.import_module(f"repro.experiments.{module}")

    def prepare(self) -> Path:
        from repro.experiments.context import configure_execution

        self._cache_dirs += 1
        cache_dir = self.work_dir / f"cache-{self._cache_dirs}"
        configure_execution(jobs=1, cache_dir=str(cache_dir))
        return cache_dir

    def iterate(self) -> Outcome:
        from repro import observability as obs
        from repro import reporting
        from repro.measurement.executor import global_stats

        cache_dir = self.prepare()
        # The report always runs under an observability session (its own
        # when none is open).  Opening it here changes nothing in the
        # program and exposes its chip-cycle counter.
        with obs.capture() as session:
            started = time.perf_counter()
            text = reporting.generate_report(quick=True)
            wall_s = time.perf_counter() - started
        cycles = session.metrics.counter_value("repro_chip_cycles_total")
        stats = global_stats()
        shutil.rmtree(cache_dir, ignore_errors=True)
        outcome = Outcome(wall_s, cycles, report_digest(text))
        if outcome.digest != REPORT_DIGEST:
            outcome.problems.append(
                f"report digest {outcome.digest} != pinned {REPORT_DIGEST}"
            )
        if cycles <= 0:
            outcome.problems.append("report simulated no chip cycles")
        if stats.cache.hits or not stats.simulated:
            outcome.problems.append(f"cold report hit the cache: {stats.summary()}")
        if stats.failures:
            outcome.problems.append(f"{len(stats.failures)} failed run attempts")
        return outcome


class SweepWorkload(Workload):
    """The paper's 29x29 CPU2006 pairing sweep (841 runs) on Proc3.

    No persistent cache and no observability session, so jobs=1 takes
    the batched fast path and jobs=2 the process-pool path.  ``seed`` is
    the campaign seed; it also picks the run ``finish`` re-simulates.
    """

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self._probe: Optional[Any] = None

    def import_modules(self) -> None:
        import repro.measurement.campaign  # noqa: F401
        import repro.measurement.executor  # noqa: F401
        import repro.measurement.record  # noqa: F401

    def prepare(self, jobs: Optional[int] = None) -> Any:
        from repro.measurement.campaign import MeasurementCampaign

        return MeasurementCampaign(
            SWEEP_CONFIG,
            n_cycles=SWEEP_CYCLES,
            seed=self.seed,
            jobs=self.jobs if jobs is None else jobs,
        )

    def iterate(self) -> Outcome:
        from repro import observability as obs
        from repro.measurement.executor import global_stats, reset_global_stats

        if obs.enabled():
            raise RuntimeError("sweeps run without an observability session")
        campaign = self.prepare()
        reset_global_stats()
        started = time.perf_counter()
        measurements = campaign.multiprogram_runs()
        wall_s = time.perf_counter() - started
        stats = global_stats()
        outcome = Outcome(
            wall_s,
            float(len(measurements) * campaign.n_cycles),
            sweep_digest(measurements),
        )
        if self._probe is None:
            index = random.Random(self.seed).randrange(len(measurements))
            self._probe = measurements[index]
        if stats.simulated != len(measurements) or stats.failures:
            outcome.problems.append(f"unexpected executor stats: {stats.summary()}")
        return outcome

    def _references(self) -> List[str]:
        """Digests every iteration must match, besides the first one's."""
        return [SWEEP_DIGEST_SEED0] if self.seed == 0 else []

    def finish(self, outcomes: Sequence[Outcome]) -> None:
        from repro.measurement.record import diff_measurements

        problems: List[str] = []
        if self._probe is not None:
            fresh = self.prepare(jobs=1).simulate(self._probe.spec)
            diffs = diff_measurements(self._probe, fresh)
            if diffs:
                problems.append(
                    f"run {self._probe.spec.label} differs from "
                    f"MeasurementCampaign.simulate: {diffs[:3]}"
                )
        references = self._references()
        references.append(next((o.digest for o in outcomes if o.digest), ""))
        for outcome in outcomes:
            outcome.problems.extend(problems)
            outcome.problems.extend(
                f"sweep digest {outcome.digest} != {expected}"
                for expected in references
                if expected and outcome.digest != expected
            )


class SweepSerial(SweepWorkload):
    name = "sweep_serial"
    why = ("841-run pairing sweep at jobs=1: the batched simulation fast "
           "path, no experiment code")


class SweepJobs2(SweepWorkload):
    name = "sweep_jobs2"
    why = ("the same sweep at jobs=2: the process-pool path, one run per "
           "future; must equal the serial sweep")
    jobs = 2
    note = ("layer calls run in pool workers: the trace sees only the "
            "parent, where worker time shows as executor wait")

    def _references(self) -> List[str]:
        # The serial sweep of the same seed, simulated after the timed
        # iterations.
        serial = sweep_digest(self.prepare(jobs=1).multiprogram_runs())
        return super()._references() + [serial]


WORKLOADS = {
    cls.name: cls for cls in (ReportCold, SweepSerial, SweepJobs2)
}
