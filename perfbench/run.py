"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_cold --seed 0 --seconds 20 --trace 0

The program is driven through its public Python API from this one
process (``sweep_jobs2`` adds its pool workers).  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones (see ``harness.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run measures two iterations, then more while another one of the mean
length still fits in ``--seconds``.  A traced run measures one
untraced-and-traced pair, then more the same way.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import harness
from suite import WORKLOADS, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repetitions whose median is reported (imports can only
#: happen once per process).
PREPARE_REPEATS = 5

#: Iterations every run measures before ``--seconds`` can stop it.  One
#: report's wall time varies by about 9% from the next in the same
#: process, so a run averages at least two.
MIN_ITERATIONS = 2

#: The end-to-end metrics a ``--trace 0`` run prints, with their units.
END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycle/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

T = TypeVar("T")


def hermetic_env(work_dir: Path) -> None:
    """Ignore every ``REPRO_*`` knob and keep default caches in the run."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = str(work_dir / "xdg-cache")


def environment_line() -> str:
    import numpy
    import scipy

    load = ",".join(f"{value:.2f}" for value in os.getloadavg())
    return (
        f"env: nproc={len(os.sched_getaffinity(0))} loadavg={load} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )


def seconds_of(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def repeat_within(
    seconds: float, step: Callable[[], T], minimum: int = 1
) -> List[T]:
    """Run ``step`` ``minimum`` times, then again while one more fits."""
    started = time.perf_counter()
    results: List[T] = []
    while True:
        results.append(step())
        elapsed = time.perf_counter() - started
        if len(results) >= minimum and elapsed + elapsed / len(results) > seconds:
            return results


def checked_iteration(workload: Workload) -> Outcome:
    """One iteration; an exception counts as a failed operation.

    Pool workers are shut down without waiting, so they are joined here,
    after the timer stops, before anything reads their resource usage.
    """
    started = time.perf_counter()
    try:
        return workload.iterate()
    except Exception as error:  # noqa: BLE001 - reported, counted as failed
        return Outcome(
            time.perf_counter() - started,
            problems=[f"raised {type(error).__name__}: {error}"],
        )
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=60)
            if child.is_alive():
                child.terminate()
                child.join()


def finish_checked(workload: Workload, outcomes: List[Outcome]) -> None:
    """The workload's whole-run checks; if they raise, every iteration fails."""
    try:
        workload.finish(outcomes)
    except Exception as error:  # noqa: BLE001 - reported, counted as failed
        for outcome in outcomes:
            outcome.problems.append(
                f"final check raised {type(error).__name__}: {error}"
            )


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def setup(workload: Workload) -> Tuple[float, str]:
    imports_s = seconds_of(workload.import_modules)
    prepare_s = statistics.median(
        seconds_of(workload.prepare) for _ in range(PREPARE_REPEATS)
    )
    detail = (
        f"imports {imports_s:.3f} s + prepare {prepare_s:.4f} s "
        f"(median of {PREPARE_REPEATS})"
    )
    return imports_s + prepare_s, detail


def untraced_metrics(
    workload: Workload, seconds: float
) -> Tuple[List[Outcome], Dict[str, float], List[str]]:
    setup_s, setup_detail = setup(workload)
    rss_after: List[float] = []

    def iteration() -> Outcome:
        outcome = checked_iteration(workload)
        rss_after.append(peak_rss_mb(workload.jobs if workload.jobs > 1 else 0))
        return outcome

    outcomes = repeat_within(seconds, iteration, MIN_ITERATIONS)
    # Set-up and the first iteration only: later iterations fork their
    # workers from a parent that has grown, and their count varies.
    rss = rss_after[0]
    finish_checked(workload, outcomes)
    wall_s = statistics.median(o.wall_s for o in outcomes)
    cycles = statistics.median(o.cycles for o in outcomes)
    metrics = {
        "wall_s": wall_s,
        "sim_mcycles_per_s": cycles / 1e6 / wall_s,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    lines = [
        f"  setup_s            {setup_s:10.4f} s        {setup_detail}",
        f"  wall_s             {wall_s:10.4f} s        median of "
        f"{len(outcomes)} iteration(s): "
        + ", ".join(f"{o.wall_s:.3f}" for o in outcomes),
        f"  sim_mcycles_per_s  {metrics['sim_mcycles_per_s']:10.4f} Mcycle/s "
        f"{cycles / 1e6:.2f} Mcycles simulated per iteration",
        f"  peak_rss_mb        {rss:10.2f} MB       through set-up and the "
        "first iteration",
        f"  output digest      {outcomes[0].digest}",
    ]
    return outcomes, metrics, lines


def executor_counts() -> Dict[str, float]:
    from repro.measurement.executor import global_stats

    stats = global_stats()
    return {
        "executor.memo_hits": stats.memory_hits,
        "executor.simulated": stats.simulated,
        "executor.attempts": stats.attempts,
        "executor.retries": stats.retries,
        "executor.failures": len(stats.failures),
        "executor.useful_ratio": (
            stats.simulated / stats.attempts if stats.attempts else 1.0
        ),
        "cache.corrupt": stats.cache.corrupt,
    }


def traced_metrics(
    workload: Workload, seconds: float
) -> Tuple[List[Outcome], Dict[str, float], List[str]]:
    setup(workload)
    recorder = harness.Recorder()
    targets = list(harness.LAYERS) + harness.experiment_targets()
    per_iteration: List[Dict[str, float]] = []
    untraced: List[Outcome] = []

    def pair() -> Outcome:
        untraced.append(checked_iteration(workload))
        recorder.iteration += 1
        with harness.traced(recorder, targets):
            outcome = checked_iteration(workload)
        metrics = harness.layer_metrics(
            recorder.spans, recorder.iteration, outcome.wall_s
        )
        metrics.update(executor_counts())
        per_iteration.append(metrics)
        return outcome

    traced = repeat_within(seconds, pair)
    outcomes = untraced + traced
    finish_checked(workload, outcomes)
    metrics = {
        name: statistics.median(m.get(name, 0.0) for m in per_iteration)
        for name, _, _ in harness.METRICS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(
        o.wall_s for o in traced
    ) - statistics.median(o.wall_s for o in untraced)
    covered = harness.self_time_total(metrics)
    lines = [
        f"  {name:34s} {metrics[name]:14.6g} {unit}"
        for name, unit, _ in harness.METRICS
    ]
    lines.append(
        f"  self times sum to {covered:.4f} s = traced wall "
        f"{metrics['trace.wall_s']:.4f} s - uncovered "
        f"{metrics['trace.uncovered_s']:.4f} s; "
        f"{len(traced)} traced and {len(untraced)} untraced iteration(s)"
    )
    missing = [t.path for t in targets if not harness.sites(t)]
    if missing:
        lines.append("  entry points not found (layer reads 0): " + ", ".join(missing))
    return outcomes, metrics, lines


def result_line(outcomes: Sequence[Outcome], metrics: Dict[str, float]) -> str:
    failed = sum(not o.ok for o in outcomes)
    units = {name: unit for name, unit, _ in harness.METRICS}
    units.update(END_TO_END_UNITS)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(list(argv) or None)

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        hermetic_env(work_dir)
        sys.path.insert(0, str(ROOT / "src"))
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        measure = traced_metrics if args.trace else untraced_metrics
        outcomes, metrics, lines = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(not o.ok for o in outcomes)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("\n".join(lines))
    print(
        f"  failed_frac        {failed / len(outcomes):10.4f}          "
        f"{failed} of {len(outcomes)} iteration(s) failed"
    )
    if workload.note:
        print(f"  note: {workload.note}")
    print(environment_line())
    for index, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"iteration {index}: {problem}", file=sys.stderr)
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
