"""Hierarchical tracing spans.

A span is one timed region of work with a name, optional metadata, and
child spans — ``campaign.batch`` contains one ``run.simulate`` per chunk
of cache misses, which contains ``chip.run``, which contains
``pdn.simulate``.  The tree mirrors the call structure of the pipeline,
so a trace answers "where did the wall time go" without a sampling
profiler.

Two invariants shape the implementation:

* **Determinism of structure.**  Span names, metadata, ordering and
  nesting are functions of the work performed, never of timing or
  process placement; only the recorded durations vary between runs.
  Worker-process spans are grafted into the parent trace in spec order
  (see :meth:`Tracer.graft`), so a ``--jobs 8`` campaign produces the
  same tree as a serial one.
* **A free disabled path.**  When tracing is off, :func:`~repro.observability.span`
  returns the shared :data:`NULL_SPAN` singleton — no span object is
  allocated, no clock is read (asserted by the zero-overhead test in
  ``tests/observability``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.observability.clock import monotonic_seconds

#: Nested ``(name, (child structures...))`` tuple — the timing-free shape
#: of a span tree, used by the determinism tests.
Structure = Tuple[str, Tuple["Structure", ...]]


class SpanRecord:
    """One completed (or in-flight) region of the trace tree."""

    __slots__ = ("name", "metadata", "duration_seconds", "children", "worker")

    def __init__(
        self,
        name: str,
        metadata: Optional[Mapping[str, Any]] = None,
        worker: bool = False,
    ) -> None:
        if not name:
            raise ConfigurationError("span name must be non-empty")
        self.name = name
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.duration_seconds = 0.0
        self.children: List[SpanRecord] = []
        #: True for spans recorded inside a pool worker and merged back.
        self.worker = worker

    def structure(self) -> Structure:
        """The timing-free shape: nested ``(name, children)`` tuples."""
        return (self.name, tuple(c.structure() for c in self.children))

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (durations rounded to the microsecond)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": round(self.duration_seconds, 6),
        }
        if self.metadata:
            payload["metadata"] = {
                key: self.metadata[key] for key in sorted(self.metadata)
            }
        if self.worker:
            payload["worker"] = True
        if self.children:
            payload["children"] = [c.to_payload() for c in self.children]
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        """Rebuild a record tree from :meth:`to_payload` output."""
        record = cls(
            str(payload["name"]),
            payload.get("metadata"),
            worker=bool(payload.get("worker", False)),
        )
        record.duration_seconds = float(payload.get("duration_seconds", 0.0))
        record.children = [
            cls.from_payload(child) for child in payload.get("children", ())
        ]
        return record

    def walk(self) -> Iterator["SpanRecord"]:
        """This record and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"SpanRecord({self.name!r}, {self.duration_seconds:.6f}s, "
            f"{len(self.children)} children)"
        )


class NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    A single shared instance (:data:`NULL_SPAN`) serves every call site:
    entering/exiting/annotating it is a few attribute lookups and no
    allocation, which is what keeps disabled-path overhead under the 2%
    budget on the fig07 benchmark.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **metadata: Any) -> None:
        """Ignore metadata (parity with :class:`ActiveSpan`)."""


NULL_SPAN = NullSpan()


class ActiveSpan:
    """Context manager that records one :class:`SpanRecord` on a tracer."""

    __slots__ = ("_tracer", "_record", "_started_seconds")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._started_seconds = 0.0

    def __enter__(self) -> "ActiveSpan":
        self._tracer._push(self._record)
        self._started_seconds = monotonic_seconds()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._record.duration_seconds = (
            monotonic_seconds() - self._started_seconds
        )
        self._tracer._pop(self._record)
        return False

    def annotate(self, **metadata: Any) -> None:
        """Attach metadata discovered mid-span (e.g. a result count)."""
        self._record.metadata.update(metadata)


class Tracer:
    """Collects one process's span tree.

    Single-threaded by design: the simulation pipeline is synchronous
    within a process, and each pool worker runs its own tracer whose
    spans are merged back explicitly (:meth:`graft`).
    """

    def __init__(self) -> None:
        self.roots: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    def span(
        self, name: str, metadata: Optional[Mapping[str, Any]] = None
    ) -> ActiveSpan:
        """A context manager recording ``name`` under the current span."""
        return ActiveSpan(self, SpanRecord(name, metadata))

    def _push(self, record: SpanRecord) -> None:
        self._attach(record)
        self._stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        if not self._stack or self._stack[-1] is not record:
            raise ConfigurationError(
                f"span {record.name!r} closed out of order"
            )
        self._stack.pop()

    def _attach(self, record: SpanRecord) -> None:
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)

    def graft(self, payloads: Iterable[Mapping[str, Any]]) -> None:
        """Attach exported worker spans under the current span, in order.

        The caller (the executor's parallel path) supplies payloads in
        spec order, so the merged tree is independent of which worker
        ran which spec — the structural-determinism contract.
        """
        for payload in payloads:
            record = SpanRecord.from_payload(payload)
            for span in record.walk():
                span.worker = True
            self._attach(record)

    @property
    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def walk(self) -> Iterator[SpanRecord]:
        for root in self.roots:
            yield from root.walk()

    def structure(self) -> Tuple[Structure, ...]:
        """Timing-free shape of the whole trace."""
        return tuple(root.structure() for root in self.roots)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready trace document."""
        return {
            "version": 1,
            "span_count": self.span_count,
            "roots": [root.to_payload() for root in self.roots],
        }
