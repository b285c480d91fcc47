"""Orchestration for the flow analyses: files in, findings out.

:func:`flow_sources` is the in-memory core (used heavily by the test
suite); :func:`flow_paths` adds file loading and the per-file result
cache.  Both return plain :class:`~repro.analysis.findings.Finding`
lists, already suppression-filtered and sorted, so the CLI can merge
them with the line engine's output and feed any reporter or baseline.

Pass ordering matters: the dimension pass runs first because its
abstract interpretation fills in the class attribute-type tables
(``self.chip = Chip(...)``) that the other passes' shared call-graph
resolution reuses; the concurrency and taint passes then audit the
worker-reachable closure that resolution produces.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.engine import iter_python_files
from repro.analysis.findings import Finding
from repro.analysis.flow.cache import (
    LintCache,
    project_digest,
    registry_signature,
    rules_signature,
    source_digest,
)
from repro.analysis.flow.concurrency import run_concurrency_pass
from repro.analysis.flow.inference import run_dimension_pass
from repro.analysis.flow.symbols import Project
from repro.analysis.flow.taint import run_taint_pass
from repro.analysis.registry import Rule, all_rules


def flow_rules() -> List[Rule]:
    """Every registered flow rule (``DIM*``/``CON*``/``TNT*``)."""
    return [rule for rule in all_rules() if rule.flow]


def flow_sources(
    sources: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze ``{path: source}`` as one project; return flow findings."""
    active = {
        rule.code for rule in (rules if rules is not None else flow_rules())
        if rule.flow
    }
    if not active:
        return []
    project = Project.build(sources)
    findings = run_dimension_pass(project)
    findings.extend(run_concurrency_pass(project))
    findings.extend(run_taint_pass(project))
    findings = [f for f in findings if f.code in active]

    surviving = []
    seen = set()
    for finding in findings:
        module = next(
            (m for m in project.modules.values() if m.path == finding.path),
            None,
        )
        if module is not None and module.ctx.is_suppressed(finding):
            continue
        identity = (finding.path, finding.line, finding.column,
                    finding.code, finding.message)
        if identity in seen:
            continue
        seen.add(identity)
        surviving.append(finding)
    surviving.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return surviving


def flow_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    cache: Optional[LintCache] = None,
    exclude: Sequence[str] = (),
) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one project."""
    sources: Dict[str, str] = {}
    for filename in iter_python_files(paths, exclude=exclude):
        with open(filename, "r", encoding="utf-8") as handle:
            sources[filename] = handle.read()

    if cache is None:
        return flow_sources(sources, rules=rules)

    signature = rules_signature(
        rule.code for rule in (rules if rules is not None else flow_rules())
        if rule.flow
    )
    digests = {path: source_digest(text) for path, text in sources.items()}
    project_sig = project_digest(digests)
    registry_sig = registry_signature()
    keys = {
        path: (
            f"flow:{digests[path]}:{project_sig}:{signature}:{registry_sig}"
        )
        for path in sources
    }
    if all(cache.peek(key) for key in keys.values()):
        findings: List[Finding] = []
        for path in sorted(keys):
            cached = cache.get(keys[path])
            if cached is None:  # pragma: no cover - raced/corrupt entry
                break
            findings.extend(cached)
        else:
            findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
            return findings

    findings = flow_sources(sources, rules=rules)
    by_path: Dict[str, List[Finding]] = {path: [] for path in sources}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    for path, key in keys.items():
        cache.misses += 1
        cache.put(key, by_path.get(path, []))
    return findings
