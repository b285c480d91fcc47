"""Benchmark-regression gate: timed pinned units vs a committed baseline.

CI times a pinned subset of the benchmark suite and fails when any unit
regresses by more than the tolerance (default 25%) against
``benchmarks/baseline.json``.  Raw wall times are useless across machine
generations, so every unit is *normalized*: the gate first times a fixed
numpy calibration workload on the same machine and records each unit as
``unit_seconds / calibration_seconds``.  A faster runner speeds both
numerator and denominator; genuine regressions in the simulation code
move only the numerator.

Usage::

    PYTHONPATH=src python benchmarks/gate.py --output BENCH_5.json
    PYTHONPATH=src python benchmarks/gate.py --update-baseline

The ``--output`` report (uploaded as a CI artifact) carries raw seconds,
normalized scores, the baseline and the verdict for every unit, so a
failing gate is diagnosable from the artifact alone.  ``--update-baseline``
rewrites ``benchmarks/baseline.json`` from this machine's scores — run it
deliberately when a known, accepted performance change lands.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import observability as obs

DEFAULT_TOLERANCE = 0.25
DEFAULT_REPEATS = 3
BASELINE_PATH = Path(__file__).parent / "baseline.json"

#: Units whose normalized score falls below this are too fast to gate
#: reliably (timer noise dominates); they are reported but never fail.
MIN_GATED_SCORE = 0.05


def _calibrate() -> float:
    """Seconds for a fixed numpy workload — the machine-speed yardstick.

    FFTs plus sorts over a fixed-seed array: the same mix of vectorized
    numerics that dominates the simulation, so machine-to-machine speed
    differences cancel to first order in the normalized scores.
    """
    rng = np.random.default_rng(0)
    data = rng.standard_normal(200_000)
    start = obs.monotonic_seconds()
    for _ in range(20):
        np.fft.rfft(data)
        np.sort(data)
    return obs.monotonic_seconds() - start


def _unit_scaling_trends() -> None:
    """Analytic experiment: scaling/analysis layer, no campaign.

    Run several times per timing: one pass is too quick to time stably.
    """
    from repro.experiments import fig01_scaling_trends

    for _ in range(8):
        fig01_scaling_trends.run(quick=True)


def _unit_campaign_quad() -> None:
    """Four representative runs through the full measurement pipeline."""
    from repro.measurement.campaign import MeasurementCampaign

    campaign = MeasurementCampaign("Proc25", n_cycles=30_000, seed=0, jobs=1)
    campaign.measure_specs([
        campaign.run_spec(*token.split("+"))
        for token in ("mcf", "lbm", "mcf+lbm", "namd+povray")
    ])


def _unit_campaign_throughput() -> None:
    """A 16-run quad-core mixed campaign through the serial executor.

    Exercises exactly what the vectorized hot path accelerates: window
    synthesis, activity/EMA realization, the batched PDN solve and the
    droop/histogram reduction, across all three run kinds.  The unit is
    additionally pinned by :data:`SPEEDUP_REFERENCES` — it must stay at
    least 5x faster than its measured pre-vectorization score.
    """
    from repro.measurement.campaign import MeasurementCampaign

    campaign = MeasurementCampaign(
        "Proc100", n_cycles=20_000, seed=7, jobs=1, n_cores=4
    )
    singles = [
        campaign.run_spec(name, kind="single")
        for name in ("mcf", "lbm", "milc", "sjeng")
    ]
    groups = [
        campaign.run_spec(*group, kind="multiprogram")
        for group in (
            ("mcf", "lbm", "namd", "povray"),
            ("gcc", "bzip2", "milc", "sjeng"),
            ("mcf", "milc", "lbm", "gcc"),
            ("namd", "povray", "sjeng", "bzip2"),
        )
    ]
    specrate = [
        campaign.run_spec(name, name, name, name, kind="multiprogram")
        for name in ("mcf", "lbm", "namd", "povray")
    ]
    threaded = [
        campaign.run_spec(name, kind="multithread")
        for name in ("canneal", "dedup", "ferret", "x264")
    ]
    campaign.measure_specs(singles + groups + specrate + threaded)


def _unit_pairing_sweep() -> None:
    """A 4x4 multiprogram pairing sweep (the Fig. 17-19 workhorse)."""
    from repro.measurement.campaign import MeasurementCampaign

    campaign = MeasurementCampaign("Proc3", n_cycles=10_000, seed=0, jobs=1)
    campaign.multiprogram_runs(("mcf", "namd", "lbm", "povray"))


def _unit_policy_arena() -> None:
    """The full policy arena on the micro suite, dual- and quad-core.

    Exercises the N-core campaign path, every registered policy's
    proposal, the exhaustive oracle search and the scorecard pipeline —
    the whole ISSUE-7 stack in one unit.
    """
    from repro.arena import run_arena
    from repro.measurement.campaign import MeasurementCampaign

    for n_cores in (2, 4):
        campaign = MeasurementCampaign(
            "Proc3", n_cycles=12_000, seed=0, jobs=1, n_cores=n_cores
        )
        run_arena(suite="micro", n_cores=n_cores, campaign=campaign)


def _unit_undervolt_sweep() -> None:
    """A hermetic Vmin sweep plus the below-Vmin bit-error probe.

    Times the whole ISSUE-10 stack: the per-core-count campaign
    measurements feeding the map, the critical-voltage inversion per
    frequency column, frontier extraction, and a 40 mV probe whose
    injected bit errors the executor must retry away.  Campaigns are
    built fresh inside the unit (no persistent cache) so every timing
    is a full cold characterization.
    """
    from repro.measurement.campaign import MeasurementCampaign
    from repro.undervolt import probe_below_vmin, run_sweep

    def factory(
        config: str, n_cycles: int, seed: int, n_cores: int
    ) -> MeasurementCampaign:
        return MeasurementCampaign(
            config, n_cycles=n_cycles, seed=seed, jobs=1, n_cores=n_cores
        )

    vmin_map = run_sweep(
        workloads=("lbm", "mcf", "mcf+lbm", "namd+povray"),
        core_counts=(2, 4),
        config="Proc100",
        n_cycles=10_000,
        campaign_factory=factory,
    )
    probe_below_vmin(vmin_map, 0.04)


def _unit_simlint_flow() -> None:
    """A cold-cache ``--flow`` lint of src/repro (all three flow passes).

    The flow engine's cost is dominated by the dimension/concurrency/
    taint fixpoints over the whole project, so this unit catches
    superlinear regressions in any of them.  No lint cache is passed:
    every timing is a full cold analysis.
    """
    import repro
    from repro.analysis.flow.engine import flow_paths

    flow_paths([str(Path(repro.__file__).parent)])


#: The pinned gate subset.  Add units sparingly: each must be slow
#: enough to time stably (see MIN_GATED_SCORE) and deterministic.
UNITS: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("scaling_trends", _unit_scaling_trends),
    ("campaign_quad", _unit_campaign_quad),
    ("campaign_throughput", _unit_campaign_throughput),
    ("pairing_sweep", _unit_pairing_sweep),
    ("policy_arena", _unit_policy_arena),
    ("undervolt_sweep", _unit_undervolt_sweep),
    ("simlint_flow", _unit_simlint_flow),
)

#: Absolute speed-up pins: ``name -> (reference_score, min_speedup)``.
#: Unlike the baseline (which only catches *regressions* against the
#: last accepted run), these assert that a unit stays at least
#: ``min_speedup`` times faster than a frozen historical score — here,
#: ``campaign_throughput``'s normalized score measured immediately
#: before the hot-path vectorization (best-of-3 1.847 s raw against a
#: 0.089 s calibration).  The gate fails if the score ever creeps back
#: above ``reference / min_speedup``, even when it gets there one
#: within-tolerance step at a time.
SPEEDUP_REFERENCES: Dict[str, Tuple[float, float]] = {
    "campaign_throughput": (20.7, 5.0),
}


def time_units(repeats: int = DEFAULT_REPEATS) -> Dict[str, float]:
    """Best-of-``repeats`` wall seconds per unit (min discards noise)."""
    seconds: Dict[str, float] = {}
    for name, fn in UNITS:
        best = float("inf")
        for _ in range(repeats):
            start = obs.monotonic_seconds()
            fn()
            best = min(best, obs.monotonic_seconds() - start)
        seconds[name] = best
    return seconds


def normalize(
    seconds: Dict[str, float], calibration: float
) -> Dict[str, float]:
    return {name: value / calibration for name, value in seconds.items()}


def compare(
    scores: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
) -> List[str]:
    """Failure messages for units regressing past the tolerance."""
    failures: List[str] = []
    for name, base in sorted(baseline.items()):
        got = scores.get(name)
        if got is None:
            failures.append(f"{name}: present in baseline but not timed")
            continue
        if base < MIN_GATED_SCORE and got < MIN_GATED_SCORE:
            continue  # both under the timing-noise floor
        if got > base * (1.0 + tolerance):
            failures.append(
                f"{name}: score {got:.3f} exceeds baseline {base:.3f} "
                f"by more than {tolerance:.0%}"
            )
    for name in sorted(set(scores) - set(baseline)):
        failures.append(
            f"{name}: not in the baseline — refresh it with "
            "--update-baseline"
        )
    for name, (reference, min_speedup) in sorted(SPEEDUP_REFERENCES.items()):
        got = scores.get(name)
        ceiling = reference / min_speedup
        if got is not None and got > ceiling:
            failures.append(
                f"{name}: score {got:.3f} is less than {min_speedup:g}x "
                f"faster than the pre-vectorization reference "
                f"{reference:.3f} (ceiling {ceiling:.3f})"
            )
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the full gate report as JSON (the CI artifact)",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), metavar="FILE",
        help=f"baseline scores to gate against (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None, metavar="FRACTION",
        help="allowed regression (default: the baseline's own tolerance, "
        f"else {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, metavar="N",
        help=f"timings per unit, best kept (default: {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run's scores and exit",
    )
    args = parser.parse_args(argv)

    calibration = _calibrate()
    seconds = time_units(repeats=args.repeats)
    scores = normalize(seconds, calibration)
    print(f"calibration: {calibration:.3f} s")
    for name in sorted(scores):
        print(
            f"{name}: {seconds[name]:.3f} s "
            f"(normalized score {scores[name]:.3f})"
        )

    if args.update_baseline:
        payload = {
            "version": 1,
            "tolerance": (
                DEFAULT_TOLERANCE if args.tolerance is None
                else args.tolerance
            ),
            "units": {name: round(scores[name], 4) for name in sorted(scores)},
        }
        Path(args.baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"baseline written to {args.baseline}")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.is_file():
        print(
            f"gate: no baseline at {baseline_path}; seed one with "
            "--update-baseline",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    tolerance = (
        args.tolerance if args.tolerance is not None
        else float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    )
    failures = compare(scores, baseline["units"], tolerance)

    if args.output:
        report = {
            "version": 1,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "calibration_seconds": round(calibration, 4),
            "tolerance": tolerance,
            "units": {
                name: {
                    "seconds": round(seconds[name], 4),
                    "score": round(scores[name], 4),
                    "baseline": baseline["units"].get(name),
                }
                for name in sorted(scores)
            },
            "failures": failures,
            "passed": not failures,
        }
        Path(args.output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.output}")

    if failures:
        for line in failures:
            print(f"gate: {line}", file=sys.stderr)
        return 1
    print(f"gate: all {len(scores)} units within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
