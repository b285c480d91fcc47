"""Command-line interface for simlint.

Usage::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --flow
    python -m repro.analysis src/repro --flow --select TNT
    python -m repro.analysis tests examples --profile tests --exclude '*/fixtures/*'
    python -m repro.analysis src/repro --format sarif > simlint.sarif
    python -m repro.analysis src/repro --write-baseline
    python -m repro.analysis effects src/repro --json
    repro-lint --list-rules

``effects`` is a subcommand: it dumps the interprocedural effect-summary
table (see :mod:`repro.analysis.flow.effects`) instead of linting.

Exit status: ``0`` when no unsuppressed, unbaselined findings remain (or
only warnings remain without ``--strict-warnings``); ``1`` when errors
were reported; ``2`` when only warnings were reported under
``--strict-warnings``; ``2`` also on usage errors (argparse convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis.engine import iter_python_files, lint_paths
from repro.analysis.findings import Severity
from repro.analysis.flow.cache import LintCache
from repro.analysis.flow.engine import flow_paths
from repro.analysis.registry import all_rules, family_of
from repro.analysis.reporters import render

#: Rule codes disabled per profile.  The ``tests`` profile accepts the
#: realities of test code: fixtures rarely carry the ``__future__``
#: import boilerplate (HYG005) and tests legitimately convert units
#: inline to state expected magnitudes (UNI002).
PROFILES: Dict[str, FrozenSet[str]] = {
    "default": frozenset(),
    "tests": frozenset({"HYG005", "UNI002"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "simlint: AST + dataflow invariant checker for determinism, "
            "unit-safety, simulation hygiene, dimensional analysis, and "
            "concurrency safety"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--flow",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "also run the project-wide dataflow engine (DIM/CON/TNT "
            "rules: interprocedural dimensional analysis, concurrency "
            "safety, and determinism-taint tracking)"
        ),
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default",
        help=(
            "rule profile; 'tests' relaxes conventions that do not apply "
            "to test code (disables HYG005, UNI002)"
        ),
    )
    parser.add_argument(
        "--exclude",
        metavar="GLOB",
        action="append",
        default=[],
        help=(
            "fnmatch pattern (against the full path) to skip; repeatable "
            "(e.g. --exclude '*/fixtures/*')"
        ),
    )
    parser.add_argument(
        "--strict-warnings",
        action="store_true",
        help="exit 2 when only warnings were found (default: exit 0)",
    )
    parser.add_argument(
        "--lint-cache",
        metavar="FILE",
        default=None,
        help=(
            "per-file result cache keyed on content hashes; warm runs "
            "skip re-analysis of unchanged files"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            f"(default: ./{baseline_mod.DEFAULT_BASELINE} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write current findings to the baseline file and exit 0 "
            "(creates ./simlint-baseline.json unless --baseline is given)"
        ),
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline entries no longer matched by any current "
            "finding, rewrite the file, report removals, and exit; runs "
            "the full rule set (including flow) regardless of --select "
            "so entries from unselected families are not misread as "
            "stale"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help=(
            "comma-separated rule codes or family prefixes to run "
            "(e.g. DET003 or TNT; default: all; selecting a "
            "DIM/CON/TNT code implies --flow)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        marker = " (flow)" if rule.flow else ""
        lines.append(
            f"{rule.code}  {rule.name:<28} [{rule.severity}]{marker} "
            f"{rule.description}"
        )
    return "\n".join(lines)


def _build_effects_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint effects",
        description=(
            "dump the interprocedural effect-summary table: one "
            "join-semilattice summary (reads-clock, rng-unseeded, "
            "rng-derived, reads-env, io, global-write, "
            "unordered-iteration) per function, plus the "
            "worker-reachable closure of every pool dispatch"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the table as JSON (default: a text listing)",
    )
    parser.add_argument(
        "--closure",
        metavar="FUNCTION",
        action="append",
        default=[],
        help=(
            "also report the reachable closure and joined effects of "
            "FUNCTION (qualname, Class.method, or unique bare name); "
            "repeatable"
        ),
    )
    parser.add_argument(
        "--exclude",
        metavar="GLOB",
        action="append",
        default=[],
        help="fnmatch pattern (against the full path) to skip; repeatable",
    )
    return parser


def _effects_main(argv: Sequence[str]) -> int:
    from repro.analysis.flow.effects import (
        compute_effects,
        effects_report,
    )
    from repro.analysis.flow.symbols import Project

    parser = _build_effects_parser()
    args = parser.parse_args(argv)
    paths = list(args.paths) or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(missing)}")

    sources: Dict[str, str] = {}
    for filename in iter_python_files(paths, exclude=args.exclude):
        with open(filename, "r", encoding="utf-8") as handle:
            sources[filename] = handle.read()
    table = compute_effects(Project.build(sources))
    try:
        report = effects_report(table, closures=tuple(args.closure))
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    lines: List[str] = []
    for qualname, effects in report["functions"].items():
        spelled = ", ".join(effects) if effects else "pure"
        lines.append(f"{qualname}: {spelled}")
    closure = report["worker_closure"]
    lines.append(
        f"worker closure: {len(closure['functions'])} function(s); "
        f"effects: {', '.join(closure['effects']) or 'pure'}"
    )
    for name, info in report.get("closures", {}).items():
        lines.append(
            f"closure({name}): {len(info['functions'])} function(s); "
            f"effects: {', '.join(info['effects']) or 'pure'}"
        )
    print("\n".join(lines))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "effects":
        return _effects_main(arguments[1:])
    parser = _build_parser()
    args = parser.parse_args(arguments)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = all_rules()
    if args.select:
        tokens = {t.strip() for t in args.select.split(",") if t.strip()}
        codes = {rule.code for rule in rules}
        families = {family_of(code) for code in codes}
        wanted = set()
        unknown = []
        for token in tokens:
            if token in codes:
                wanted.add(token)
            elif token in families:
                wanted |= {c for c in codes if c.startswith(token)}
            else:
                unknown.append(token)
        if unknown:
            parser.error(
                f"unknown rule code(s): {', '.join(sorted(unknown))}"
            )
        rules = [rule for rule in rules if rule.code in wanted]
    disabled = PROFILES[args.profile]
    rules = [rule for rule in rules if rule.code not in disabled]
    if args.prune_baseline:
        # Pruning compares the baseline against the complete current
        # finding set; a narrowed selection would misread entries from
        # unselected families as stale and silently drop them.
        rules = all_rules()

    line_rules = [rule for rule in rules if not rule.flow]
    flow_rule_set = [rule for rule in rules if rule.flow]
    run_flow = (
        args.prune_baseline
        or args.flow
        or (args.select is not None and bool(flow_rule_set))
    )

    paths = list(args.paths) or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(missing)}")

    cache = LintCache(args.lint_cache) if args.lint_cache else None
    findings = lint_paths(
        paths, rules=line_rules, cache=cache, exclude=args.exclude
    )
    if run_flow:
        findings.extend(
            flow_paths(
                paths,
                rules=flow_rule_set,
                cache=cache,
                exclude=args.exclude,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    if cache is not None:
        cache.save()
        print(
            f"(lint-cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"via {args.lint_cache})",
            file=sys.stderr,
        )

    if args.prune_baseline:
        target = args.baseline or baseline_mod.DEFAULT_BASELINE
        if not os.path.isfile(target):
            parser.error(f"no baseline file to prune at {target}")
        try:
            base = baseline_mod.load(target)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        kept, removed = base.prune(findings)
        baseline_mod.save_items(target, kept)
        print(
            f"pruned {len(removed)} stale entry(ies) from {target} "
            f"({len(kept)} kept)"
        )
        for item in removed:
            print(
                f"  {item['path']}:{item['line']} {item['code']} "
                f"{item['message']}"
            )
        return 0

    if args.write_baseline:
        target = args.baseline or baseline_mod.DEFAULT_BASELINE
        baseline_mod.save(target, findings)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0

    if args.no_baseline:
        surviving = findings
        source = None
    else:
        try:
            base, source = baseline_mod.discover(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        surviving = base.filter(findings)

    print(render(surviving, args.format))
    if source is not None and len(surviving) != len(findings):
        skipped = len(findings) - len(surviving)
        print(
            f"(+{skipped} baselined finding(s) suppressed via {source})",
            file=sys.stderr,
        )
    if any(f.severity is Severity.ERROR for f in surviving):
        return 1
    if surviving and args.strict_warnings:
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
