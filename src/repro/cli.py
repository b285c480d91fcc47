"""Command-line interface for the experiment harnesses.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig08
    python -m repro.cli run tab1 --full
    python -m repro.cli run all
    python -m repro.cli measure mcf lbm mcf+lbm --jobs 2
    python -m repro.cli arena --suite micro --cores 4 --policies all
    python -m repro.cli undervolt-sweep --probe-depth-mv 40
    python -m repro.cli chaos --plan default

Each experiment prints the reproduced figure/table rows plus its
paper-vs-measured notes.  ``--full`` switches from the quick subsets to
the paper's full protocol sizes (slower).  ``chaos`` is the
fault-injection self-test: it re-measures a run set under a seeded
fault plan and fails unless the recovered results are bit-identical to
a clean pass (docs/robustness.md).

Every executing subcommand accepts the observability flags ``--trace``,
``--metrics`` and ``--profile-stages`` (env: ``$REPRO_TRACE`` /
``$REPRO_METRICS``); see docs/observability.md for the span model and
metric catalog.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import Dict, Tuple

from repro import observability as obs

#: Short alias -> experiment module name.
EXPERIMENTS: Dict[str, str] = {
    "fig01": "fig01_scaling_trends",
    "fig02": "fig02_margin_frequency",
    "fig04": "fig04_impedance",
    "sec2c": "sec2c_margin_discovery",
    "fig05": "fig05_reset_droops",
    "fig06": "fig06_decap_swings",
    "fig07": "fig07_typical_case_cdf",
    "fig08": "fig08_margin_sweep",
    "fig09": "fig09_future_cdf",
    "fig10": "fig10_heatmaps",
    "fig11": "fig11_tlb_trace",
    "fig12": "fig12_event_swings",
    "fig13": "fig13_event_interference",
    "fig14": "fig14_noise_phases",
    "fig15": "fig15_stall_correlation",
    "fig16": "fig16_sliding_window",
    "fig17": "fig17_droop_variance",
    "tab1": "tab1_specrate_pass",
    "fig18": "fig18_policy_scatter",
    "fig19": "fig19_pass_increase",
    "ext-split": "ext_split_supply",
    "ext-online": "ext_online_scheduler",
    "ext-throttle": "ext_throttle",
    "ext-cores": "ext_core_count",
    "ext-arena": "ext_policy_arena",
    "ext-undervolt": "ext_undervolt",
}

#: One-line description per experiment, shown by ``list``.
DESCRIPTIONS: Dict[str, str] = {
    "fig01": "projected voltage swings across technology nodes",
    "fig02": "peak frequency vs operating margin per node",
    "fig04": "platform impedance profiles (stock vs reduced caps)",
    "sec2c": "worst-case margin discovery by undervolting",
    "fig05": "reset droop response across Proc100..Proc0",
    "fig06": "normalized pk-pk swings vs package capacitance",
    "fig07": "typical-case voltage-sample distribution (Proc100)",
    "fig08": "improvement vs margin per recovery cost (Proc100)",
    "fig09": "sample distributions on future nodes (Proc25/Proc3)",
    "fig10": "improvement heat maps per decap configuration",
    "fig11": "TLB-miss overshoot spikes on the VRM ripple",
    "fig12": "single-core stall-event swings",
    "fig13": "cross-core event interference matrix",
    "fig14": "voltage-noise phases (sphinx/gamess/tonto)",
    "fig15": "droops vs stall ratio across CPU2006",
    "fig16": "sliding-window co-schedule of astar",
    "fig17": "droop variance across co-schedules",
    "tab1": "SPECrate typical-case analysis at optimal margins",
    "fig18": "scheduling-policy scatter vs SPECrate",
    "fig19": "increase in passing schedules from scheduling",
    "ext-split": "extension: split vs connected core supplies",
    "ext-online": "extension: online learned noise-aware scheduling",
    "ext-throttle": "extension: open- vs closed-loop emergency throttling",
    "ext-cores": "extension: noise vs number of active cores",
    "ext-arena": "extension: N-core policy arena head-to-head",
    "ext-undervolt": "extension: Vmin map and energy-efficiency frontier",
}


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for campaign simulation (default: "
        "$REPRO_JOBS or 1; parallel runs are bit-identical to serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persistent result-cache directory (default: $REPRO_CACHE_DIR "
        "or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (always re-simulate)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="failed-run retries before serial fallback (default: "
        "$REPRO_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock timeout for pool workers (default: "
        "$REPRO_RUN_TIMEOUT; unlimited otherwise)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="PLAN",
        help="seeded fault plan, e.g. 'crash:0.1,corrupt:0.2,seed=7' or "
        "'default' (default: $REPRO_INJECT_FAULTS; see docs/robustness.md)",
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=os.environ.get("REPRO_TRACE") or None,
        metavar="FILE",
        help="write the hierarchical span trace as JSON "
        "(default: $REPRO_TRACE; disabled otherwise)",
    )
    parser.add_argument(
        "--metrics",
        default=os.environ.get("REPRO_METRICS") or None,
        metavar="FILE",
        help="write the metrics registry (default: $REPRO_METRICS; "
        "JSON, or Prometheus text when FILE ends in .prom)",
    )
    parser.add_argument(
        "--profile-stages",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help=(
            "print the per-stage timing table and hottest runs on exit; "
            "with FILE, also write the schema-versioned stage profile as "
            "JSON"
        ),
    )


def _observability_requested(args: argparse.Namespace) -> bool:
    return bool(args.trace or args.metrics or args.profile_stages)


def _configure_observability(args: argparse.Namespace) -> None:
    if _observability_requested(args):
        obs.start()


def _finalize_observability(args: argparse.Namespace) -> None:
    """Export trace/metrics files and print profiles, as requested."""
    if not _observability_requested(args):
        return
    session = obs.stop()
    if session is None:  # pragma: no cover - start/stop always paired
        return
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(session.trace_payload(), handle, indent=2)
            handle.write("\n")
        print(f"wrote trace to {args.trace}")
    if args.metrics:
        if args.metrics.endswith(".prom"):
            text = session.metrics.prometheus_text()
        else:
            text = json.dumps(session.metrics_payload(), indent=2) + "\n"
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote metrics to {args.metrics}")
    if args.profile_stages:
        from repro.observability import (
            format_hottest,
            format_stage_table,
            hottest_spans,
            stage_table,
        )
        from repro.observability.profiling import stage_profile_payload

        if isinstance(args.profile_stages, str):
            with open(args.profile_stages, "w", encoding="utf-8") as handle:
                json.dump(
                    stage_profile_payload(session.tracer), handle, indent=2
                )
                handle.write("\n")
            print(f"wrote stage profile to {args.profile_stages}")
        print()
        print(format_stage_table(stage_table(session.tracer)))
        hottest = hottest_spans(session.tracer)
        if hottest:
            print()
            print(format_hottest(hottest))


#: What ``measure`` runs when no runs are named: two solo runs and two
#: pairings spanning the quiet-to-loud range of the quick subset.
DEFAULT_MEASURE_RUNS: Tuple[str, ...] = (
    "mcf", "lbm", "mcf+lbm", "namd+povray",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the figures/tables of the Voltage Smoothing "
        "paper (MICRO 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    report = sub.add_parser(
        "report", help="run everything and write a markdown report"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="report file path"
    )
    report.add_argument(
        "--full", action="store_true",
        help="use the full protocol sizes instead of quick subsets",
    )
    _add_execution_arguments(report)
    _add_observability_arguments(report)
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment alias (see 'list'), or 'all'",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="use the full 881-run protocol sizes instead of quick subsets",
    )
    _add_execution_arguments(run)
    _add_observability_arguments(run)
    measure = sub.add_parser(
        "measure",
        help="measure named runs directly (e.g. 'mcf' or 'astar+lbm')",
    )
    measure.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="workload name, or 'a+b' for a co-running pair "
        f"(default: {' '.join(DEFAULT_MEASURE_RUNS)})",
    )
    measure.add_argument(
        "--config",
        default="Proc3",
        help="decap configuration to measure on (default: Proc3)",
    )
    measure.add_argument(
        "--cycles",
        type=int,
        default=20_000,
        metavar="N",
        help="window length per run in cycles (default: 20000)",
    )
    measure.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign base seed (default: 0)",
    )
    _add_execution_arguments(measure)
    _add_observability_arguments(measure)
    arena = sub.add_parser(
        "arena",
        help="benchmark N-core scheduling policies head-to-head "
        "(see docs/arena.md)",
    )
    arena.add_argument(
        "--suite",
        default="micro",
        help="named workload suite to schedule (default: micro)",
    )
    arena.add_argument(
        "--cores",
        type=int,
        default=2,
        metavar="N",
        help="cores per shared supply (default: 2)",
    )
    arena.add_argument(
        "--policies",
        default="all",
        metavar="KEYS",
        help="comma-separated policy keys, or 'all' (default: all)",
    )
    arena.add_argument(
        "--config",
        default="Proc3",
        help="decap configuration to measure on (default: Proc3)",
    )
    arena.add_argument(
        "--cycles",
        type=int,
        default=12_000,
        metavar="N",
        help="window length per run in cycles (default: 12000)",
    )
    arena.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign base seed (default: 0)",
    )
    arena.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the scorecard comparison as deterministic JSON",
    )
    arena.add_argument(
        "--markdown",
        default=None,
        metavar="FILE",
        help="write the ranked comparison as a markdown report",
    )
    _add_execution_arguments(arena)
    _add_observability_arguments(arena)
    undervolt = sub.add_parser(
        "undervolt-sweep",
        help="characterize Vmin per (workload, frequency, core-count) "
        "and extract the energy-efficiency frontier "
        "(see docs/undervolting.md)",
    )
    undervolt.add_argument(
        "--workloads",
        default="lbm,mcf,mcf+lbm",
        metavar="NAMES",
        help="comma-separated workload tokens; 'a+b' runs a "
        "multiprogram mix (default: lbm,mcf,mcf+lbm)",
    )
    undervolt.add_argument(
        "--frequencies",
        default="1.46,1.66,1.86",
        metavar="GHZ",
        help="comma-separated clock frequencies in GHz "
        "(default: 1.46,1.66,1.86)",
    )
    undervolt.add_argument(
        "--cores",
        default="2",
        metavar="N[,N...]",
        help="comma-separated core counts to sweep (default: 2)",
    )
    undervolt.add_argument(
        "--config",
        default="Proc100",
        help="decap configuration to characterize (default: Proc100)",
    )
    undervolt.add_argument(
        "--cycles",
        type=int,
        default=10_000,
        metavar="N",
        help="window length per run in cycles (default: 10000)",
    )
    undervolt.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign base seed (default: 0)",
    )
    undervolt.add_argument(
        "--probe-depth-mv",
        type=float,
        default=0.0,
        metavar="MV",
        help="also run the below-Vmin probe this many millivolts under "
        "the frontier: inject voltage-dependent bit errors and verify "
        "the executor recovers bit-identical (default: off)",
    )
    undervolt.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the Vmin map + frontier as deterministic JSON",
    )
    undervolt.add_argument(
        "--markdown",
        default=None,
        metavar="FILE",
        help="write the Vmin map + frontier as a markdown report",
    )
    _add_execution_arguments(undervolt)
    _add_observability_arguments(undervolt)
    chaos = sub.add_parser(
        "chaos",
        help="self-test: re-measure under seeded fault injection and "
        "verify the results are bit-identical to a clean run",
    )
    chaos.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="workload name, or 'a+b' for a co-running pair "
        f"(default: {' '.join(DEFAULT_MEASURE_RUNS)})",
    )
    chaos.add_argument(
        "--plan",
        default="default",
        metavar="PLAN",
        help="fault plan to inject (default: the canonical chaos plan; "
        "see docs/robustness.md)",
    )
    chaos.add_argument(
        "--config",
        default="Proc25",
        help="decap configuration to measure on (default: Proc25)",
    )
    chaos.add_argument(
        "--cycles",
        type=int,
        default=6000,
        metavar="N",
        help="window length per run in cycles (default: 6000)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign base seed (default: 0)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the faulted passes (default: 2)",
    )
    chaos.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="failed-run retries before serial fallback (default: "
        "$REPRO_MAX_RETRIES or 2)",
    )
    chaos.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run timeout for the faulted passes (default: "
        "$REPRO_RUN_TIMEOUT; unlimited otherwise)",
    )
    _add_observability_arguments(chaos)
    return parser


def _configure_execution(args: argparse.Namespace) -> None:
    from repro.experiments.context import configure_execution
    from repro.measurement.executor import reset_global_stats

    configure_execution(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=True if args.no_cache else None,
        max_retries=args.max_retries,
        run_timeout=args.run_timeout,
        inject_faults=args.inject_faults,
    )
    # Each CLI invocation reports its own campaign traffic.
    reset_global_stats()


def _print_execution_stats() -> None:
    from repro.experiments.context import shared_cache
    from repro.measurement.executor import format_stats, global_stats

    stats = global_stats()
    if stats.simulated or stats.cache.lookups or stats.memory_hits:
        print(format_stats(stats, shared_cache()))


def _run_one(alias: str, quick: bool) -> None:
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[alias]}"
    )
    with obs.span(f"experiment.{alias}", experiment=alias):
        started = obs.monotonic_seconds()
        result = module.run(quick=quick)
        elapsed = obs.monotonic_seconds() - started
        obs.set_gauge(
            "repro_experiment_seconds", elapsed, experiment=alias
        )
    print(result.format_table())
    print(f"({alias} finished in {elapsed:.1f} s)")
    print()


def _run_measure(args: argparse.Namespace) -> int:
    """Measure the named runs and print a per-run summary table."""
    from repro.errors import ReproError
    from repro.experiments.context import get_campaign

    tokens = list(args.runs) or list(DEFAULT_MEASURE_RUNS)
    campaign = get_campaign(
        args.config, n_cycles=args.cycles, seed=args.seed
    )
    try:
        specs = [
            campaign.run_spec(*token.split("+")) for token in tokens
        ]
        measurements = campaign.measure_specs(specs)
    except ReproError as error:
        print(f"measure: {error}", file=sys.stderr)
        return 2
    width = max(len(m.spec.label) for m in measurements)
    print(
        f"{'run'.ljust(width)}  droops/1k  max droop  overshoot    IPC"
    )
    for m in measurements:
        print(
            f"{m.spec.label.ljust(width)}  "
            f"{m.droop_samples_per_1k:9.2f}  "
            f"{100 * m.max_droop:8.2f}%  "
            f"{100 * m.max_overshoot:8.2f}%  "
            f"{m.throughput_ipc:5.2f}"
        )
    print()
    _print_execution_stats()
    return 0


def _run_arena(args: argparse.Namespace) -> int:
    """Run the policy arena and print/write the ranked comparison."""
    from repro.arena.harness import run_arena
    from repro.arena.report import json_report, markdown_report
    from repro.errors import ReproError

    keys = None
    if args.policies.strip().lower() != "all":
        keys = [
            key.strip() for key in args.policies.split(",") if key.strip()
        ]
    try:
        result = run_arena(
            suite=args.suite,
            n_cores=args.cores,
            policies=keys,
            config=args.config,
            n_cycles=args.cycles,
            seed=args.seed,
        )
    except ReproError as error:
        print(f"arena: {error}", file=sys.stderr)
        return 2
    print(markdown_report(result), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json_report(result))
        print(f"wrote scorecards to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown_report(result))
        print(f"wrote report to {args.markdown}")
    print()
    _print_execution_stats()
    return 0


def _split_csv(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _run_undervolt(args: argparse.Namespace) -> int:
    """Run the Vmin sweep; optionally probe below the frontier."""
    from repro import units
    from repro.errors import ReproError
    from repro.undervolt import (
        markdown_report,
        json_report,
        probe_below_vmin,
        run_sweep,
    )

    try:
        vmin_map = run_sweep(
            workloads=_split_csv(args.workloads),
            frequencies_ghz=[
                float(f) for f in _split_csv(args.frequencies)
            ],
            core_counts=[int(n) for n in _split_csv(args.cores)],
            config=args.config,
            n_cycles=args.cycles,
            seed=args.seed,
        )
    except (ReproError, ValueError) as error:
        print(f"undervolt-sweep: {error}", file=sys.stderr)
        return 2
    print(markdown_report(vmin_map), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json_report(vmin_map))
        print(f"wrote Vmin map to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown_report(vmin_map))
        print(f"wrote report to {args.markdown}")
    print()
    _print_execution_stats()
    if args.probe_depth_mv > 0:
        try:
            probe = probe_below_vmin(
                vmin_map, args.probe_depth_mv * units.MILLI_VOLT
            )
        except ReproError as error:
            print(f"undervolt-sweep: {error}", file=sys.stderr)
            return 2
        print(f"[probe] {probe.summary()}")
        if not probe.converged:
            print(
                "undervolt-sweep: below-Vmin probe diverged from the "
                "clean run",
                file=sys.stderr,
            )
            return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """Chaos self-test: clean run vs two faulted passes, bit-compared.

    Pass 1 measures with a cold persistent cache under injection
    (exercising worker crashes/hangs/exceptions and store-time
    corruption); pass 2 re-measures against the now possibly-corrupted
    warm cache with a fresh injector (exercising the corrupt-read
    recovery path).  Both must reproduce the clean measurements
    bit-for-bit or the command exits non-zero.
    """
    import tempfile

    from repro.errors import ReproError
    from repro.faults import FaultInjector, parse_plan
    from repro.measurement.cache import ResultCache
    from repro.measurement.campaign import MeasurementCampaign
    from repro.measurement.executor import RetryPolicy
    from repro.measurement.record import diff_measurements

    try:
        plan = parse_plan(args.plan)
    except ReproError as error:
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    if plan is None:
        print(
            "chaos: plan disables every fault; nothing to test",
            file=sys.stderr,
        )
        return 2
    retry = RetryPolicy.from_env(
        max_retries=args.max_retries, run_timeout=args.run_timeout
    )
    tokens = list(args.runs) or list(DEFAULT_MEASURE_RUNS)

    def measure(campaign: MeasurementCampaign) -> list:
        specs = [
            campaign.run_spec(*token.split("+")) for token in tokens
        ]
        return campaign.measure_specs(specs)

    try:
        clean = measure(
            MeasurementCampaign(
                args.config, n_cycles=args.cycles, seed=args.seed,
                jobs=1, retry=retry,
            )
        )
        failed = 0
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            for attempt in ("cold", "warm"):
                injector = FaultInjector(plan)
                campaign = MeasurementCampaign(
                    args.config, n_cycles=args.cycles, seed=args.seed,
                    jobs=args.jobs, cache=ResultCache(tmp), retry=retry,
                    injector=injector,
                )
                faulted = measure(campaign)
                diffs = [
                    f"  {m.spec.label}: {line}"
                    for m, f in zip(clean, faulted)
                    for line in diff_measurements(m, f)
                ]
                verdict = "bit-identical" if not diffs else "DIVERGED"
                stats = campaign.executor.stats
                injected = injector.summary()
                if not injector.injected and stats.recovery_active:
                    # Pool workers rebuild their own injector, so fires
                    # inside them never reach this process's counters.
                    injected = "faults injected in workers (parent saw none)"
                print(f"{attempt} pass: {injected}; {verdict}")
                print(f"  {stats.summary()}")
                if diffs:
                    failed += 1
                    print("\n".join(diffs), file=sys.stderr)
    except ReproError as error:
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    if failed:
        print(
            f"chaos: {failed} faulted pass(es) diverged from the clean "
            "run",
            file=sys.stderr,
        )
        return 1
    print(
        f"chaos: {len(tokens)} runs recovered bit-identical under plan "
        f"{plan.spec!r}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(alias) for alias in EXPERIMENTS)
        for alias in EXPERIMENTS:
            print(f"{alias.ljust(width)}  {DESCRIPTIONS[alias]}")
        return 0
    if args.command == "report":
        from repro.reporting import generate_report

        _configure_execution(args)
        _configure_observability(args)
        generate_report(path=args.output, quick=not args.full)
        _finalize_observability(args)
        print(f"wrote {args.output}")
        return 0
    if args.command == "measure":
        _configure_execution(args)
        _configure_observability(args)
        status = _run_measure(args)
        _finalize_observability(args)
        return status
    if args.command == "arena":
        _configure_execution(args)
        _configure_observability(args)
        status = _run_arena(args)
        _finalize_observability(args)
        return status
    if args.command == "undervolt-sweep":
        _configure_execution(args)
        _configure_observability(args)
        status = _run_undervolt(args)
        _finalize_observability(args)
        return status
    if args.command == "chaos":
        _configure_observability(args)
        status = _run_chaos(args)
        _finalize_observability(args)
        return status
    # command == "run"
    _configure_execution(args)
    _configure_observability(args)
    target = args.experiment.lower()
    quick = not args.full
    if target == "all":
        for alias in EXPERIMENTS:
            _run_one(alias, quick)
        _print_execution_stats()
        _finalize_observability(args)
        return 0
    if target not in EXPERIMENTS:
        print(
            f"unknown experiment {target!r}; run 'list' to see choices",
            file=sys.stderr,
        )
        return 2
    _run_one(target, quick)
    _print_execution_stats()
    _finalize_observability(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
