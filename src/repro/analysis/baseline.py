"""Baseline files: grandfathered findings that do not fail the build.

A baseline is a committed JSON file listing findings that existed when a
rule was introduced.  Matching is by ``(path, code, fingerprint)`` — the
fingerprint hashes the offending line's *text*, so baselined findings
survive edits elsewhere in the file but expire the moment the offending
line itself changes.  Expired entries are dead weight; ``repro-lint
--prune-baseline`` rewrites the file without them.

Every entry may carry a ``justification`` string saying *why* the
finding is accepted rather than fixed.  The shipped
``simlint-baseline.json`` grandfathers only the ``OBS001`` wall-clock
comparison in ``examples/parallel_sweep.py`` (the speedup measurement
is the point of that example), and the test suite pins it to exactly
that, justifications included.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

#: Default baseline filename, looked up in the current directory.
DEFAULT_BASELINE = "simlint-baseline.json"

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Baseline:
    """An accepted set of ``(path, code, fingerprint)`` identities.

    ``items`` keeps the raw JSON entries (messages, justifications) so
    pruning can rewrite the file without losing annotations; baselines
    built in memory via :meth:`from_findings` have no items.
    """

    entries: frozenset
    items: Tuple[Dict[str, Any], ...] = ()

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries=frozenset())

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        return cls(
            entries=frozenset(
                (f.path, f.code, f.fingerprint) for f in findings
            )
        )

    def __contains__(self, finding: Finding) -> bool:
        key: Tuple[str, str, str] = (
            finding.path,
            finding.code,
            finding.fingerprint,
        )
        return key in self.entries

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """Findings not covered by this baseline."""
        return [f for f in findings if f not in self]

    def prune(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Split :attr:`items` into ``(kept, removed)`` against findings.

        An entry is stale — removed — when no current finding matches
        its ``(path, code, fingerprint)``: the offending line was fixed,
        moved files, or changed enough to expire the fingerprint.
        """
        live = {(f.path, f.code, f.fingerprint) for f in findings}
        kept: List[Dict[str, Any]] = []
        removed: List[Dict[str, Any]] = []
        for item in self.items:
            key = (item["path"], item["code"], item["fingerprint"])
            (kept if key in live else removed).append(item)
        return kept, removed


def load(path: str) -> Baseline:
    """Load a baseline file (raises ``ValueError`` on a bad format)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError(f"{path} is not a simlint baseline file")
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path} has baseline version {version!r}; "
            f"this simlint reads version {_FORMAT_VERSION}"
        )
    entries = set()
    for item in payload["findings"]:
        entries.add((item["path"], item["code"], item["fingerprint"]))
    return Baseline(
        entries=frozenset(entries), items=tuple(payload["findings"])
    )


def save_items(path: str, items: Sequence[Dict[str, Any]]) -> None:
    """Write raw baseline entries (sorted, stable output)."""
    ordered = sorted(
        items,
        key=lambda item: (item["path"], str(item["line"]), item["code"]),
    )
    payload = {"version": _FORMAT_VERSION, "findings": list(ordered)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save(
    path: str,
    findings: Sequence[Finding],
    justifications: Optional[Mapping[str, str]] = None,
) -> None:
    """Write ``findings`` as the new baseline (sorted, stable output).

    ``justifications`` maps finding fingerprints to the reason each one
    is accepted rather than fixed; entries without one omit the key.
    """
    reasons = justifications or {}
    items: List[Dict[str, Any]] = []
    for f in findings:
        item: Dict[str, Any] = {
            "path": f.path,
            "code": f.code,
            "line": f.line,
            "message": f.message,
            "fingerprint": f.fingerprint,
        }
        if f.fingerprint in reasons:
            item["justification"] = reasons[f.fingerprint]
        items.append(item)
    save_items(path, items)


def discover(explicit: str | None) -> Tuple[Baseline, str | None]:
    """Resolve the baseline to use.

    ``explicit`` wins (and must exist); otherwise ``simlint-baseline.json``
    in the current directory is used when present; otherwise the empty
    baseline.
    """
    if explicit is not None:
        return load(explicit), explicit
    if os.path.isfile(DEFAULT_BASELINE):
        return load(DEFAULT_BASELINE), DEFAULT_BASELINE
    return Baseline.empty(), None
