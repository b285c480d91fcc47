"""Profiling views over a recorded trace: stage tables and hot spots.

These are *presentation* helpers — they read a finished
:class:`~repro.observability.spans.Tracer` (or the session wrapping it)
and aggregate durations.  Everything here describes wall time, i.e. the
non-deterministic half of the telemetry; counts and structure come from
the trace itself and stay bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.observability.spans import SpanRecord, Tracer
from repro.units import MILLI

#: Format marker for the machine-readable stage-profile export.
PROFILE_SCHEMA = "repro-stage-profile"
PROFILE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StageRow:
    """Aggregate timing for every span sharing one name."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    max_seconds: float


@dataclass(frozen=True)
class HotSpan:
    """One of the slowest spans of a given name (usually a run)."""

    name: str
    label: str
    duration_seconds: float


def stage_table(tracer: Tracer) -> List[StageRow]:
    """Per-stage timing rows, sorted by total wall time (descending).

    "Stage" means span name: all ``pdn.simulate`` spans aggregate into
    one row regardless of where in the tree they sit.  Ties sort by
    name so the table is stable when timings collapse to zero.
    """
    totals: dict = {}
    for record in tracer.walk():
        entry = totals.setdefault(record.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record.duration_seconds
        entry[2] = max(entry[2], record.duration_seconds)
    rows = [
        StageRow(
            name=name,
            count=count,
            total_seconds=total,
            mean_seconds=total / count,
            max_seconds=peak,
        )
        for name, (count, total, peak) in totals.items()
    ]
    rows.sort(key=lambda row: (-row.total_seconds, row.name))
    return rows


def stage_profile_payload(tracer: Tracer) -> Dict[str, Any]:
    """JSON-ready, schema-versioned dump of :func:`stage_table`.

    This is what ``--profile-stages FILE`` writes: span names and
    counts are deterministic (jobs-invariant) structure; the
    ``*_seconds`` fields are measured wall time and vary run to run.
    """
    return {
        "schema": PROFILE_SCHEMA,
        "version": PROFILE_SCHEMA_VERSION,
        "stages": [
            {
                "name": row.name,
                "count": row.count,
                "total_seconds": row.total_seconds,
                "mean_seconds": row.mean_seconds,
                "max_seconds": row.max_seconds,
            }
            for row in stage_table(tracer)
        ],
    }


def _span_label(record: SpanRecord) -> str:
    for key in ("run", "experiment", "config", "mechanism"):
        if key in record.metadata:
            return str(record.metadata[key])
    return "-"


def hottest_spans(
    tracer: Tracer, name: str = "run.simulate", limit: int = 10
) -> List[HotSpan]:
    """The ``limit`` slowest spans named ``name`` (top-N hottest specs)."""
    matches = [r for r in tracer.walk() if r.name == name]
    matches.sort(key=lambda r: (-r.duration_seconds, _span_label(r)))
    return [
        HotSpan(
            name=record.name,
            label=_span_label(record),
            duration_seconds=record.duration_seconds,
        )
        for record in matches[:limit]
    ]


def format_stage_table(rows: List[StageRow]) -> str:
    """Fixed-width text rendering of :func:`stage_table` output."""
    if not rows:
        return "(no spans recorded)"
    headers = ("stage", "count", "total s", "mean ms", "max ms")
    cells: List[Tuple[str, ...]] = [
        (
            row.name,
            str(row.count),
            f"{row.total_seconds:.3f}",
            f"{row.mean_seconds / MILLI:.2f}",
            f"{row.max_seconds / MILLI:.2f}",
        )
        for row in rows
    ]
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in cells))
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_hottest(spans: List[HotSpan]) -> str:
    """Text rendering of :func:`hottest_spans` output."""
    if not spans:
        return "(no matching spans)"
    width = max(len(span.label) for span in spans)
    return "\n".join(
        f"{span.label.ljust(width)}  {span.duration_seconds / MILLI:8.2f} ms"
        for span in spans
    )
