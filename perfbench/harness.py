"""Traced-run harness: spans around the program's layer entry points.

The benchmark never edits the program.  A traced iteration instead
replaces each layer's public entry points (see :data:`LAYERS`) with a
wrapper that records one span per call, runs the iteration, and puts
the originals back.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the durations of the wrapped
spans directly below it.  All wrapped calls run on one thread, so
children never overlap and the subtraction is exact.  A call into a
layer that is already the innermost open span (a resilience method
calling another) opens no second span: its time stays with the open
span, and only its call and work counts are added to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: ``count(args, kwargs, result)`` -> work units one call handled.
Counter = Callable[[tuple, dict, Any], int]


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _first_arg_len(args: tuple, kwargs: dict, result: Any) -> int:
    # args[0] is ``self``; the first real argument follows it.
    return len(args[1]) if len(args) > 1 else 0


def _hit(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class Target:
    """One entry point: ``module:function``, ``module:Class.method`` or
    ``module:Class.*`` (every public method the class itself defines).

    A method target also covers each loaded subclass that overrides the
    method; a function target is replaced under every ``repro`` module
    name bound to it, i.e. at the name each caller resolves.
    """

    layer: str
    path: str
    count: Counter = _one
    label: str = ""


LAYERS: Tuple[Target, ...] = (
    Target("workloads", "repro.workloads.base:Workload.sample_window"),
    Target(
        "workloads",
        "repro.workloads.parsec:ParsecWorkload.sample_thread_windows",
        _result_len,
    ),
    Target("uarch", "repro.uarch.chip:Chip.run"),
    Target("uarch", "repro.uarch.chip:Chip.run_batch", _result_len),
    Target("pdn", "repro.pdn.simulate:TransientSimulator.simulate"),
    Target(
        "pdn", "repro.pdn.simulate:TransientSimulator.simulate_batch",
        _result_len,
    ),
    Target("measurement", "repro.measurement.droops:detect_droops"),
    Target("measurement", "repro.measurement.droops:detect_overshoots"),
    Target("measurement", "repro.measurement.droops:droop_samples_per_1k"),
    Target("measurement", "repro.measurement.histogram:CompressedHistogram.add"),
    Target(
        "executor", "repro.measurement.executor:CampaignExecutor.run_many",
        _first_arg_len,
    ),
    Target("cache.load", "repro.measurement.cache:ResultCache.load", _hit),
    Target("cache.store", "repro.measurement.cache:ResultCache.store"),
    Target(
        "core.predictor", "repro.core.predictor:VoltageGuidedThrottle.run",
        _first_arg_len,
    ),
    Target("core.resilience", "repro.core.resilience:ResilientDesignModel.*"),
    Target("core.scheduler", "repro.core.scheduler:BatchScheduler.*"),
    Target("core.scheduler", "repro.core.scheduler:GroupOracle.*"),
    Target(
        "core.online_scheduler",
        "repro.core.online_scheduler:OnlineScheduler.*",
    ),
    Target("arena", "repro.arena.harness:run_arena"),
    Target("undervolt", "repro.undervolt.sweep:run_sweep"),
    Target("undervolt", "repro.undervolt.sweep:probe_below_vmin"),
    Target("reporting", "repro.reporting:generate_report"),
)

#: Layers that only frame other work.  Time in them that no deeper
#: layer accounts for is what ``trace.coverage`` leaves out.
FRAME_LAYERS = ("reporting", "experiments")


def experiment_targets() -> List[Target]:
    """One ``experiments`` target per report alias (its module's ``run``)."""
    from repro.cli import EXPERIMENTS

    return [
        Target("experiments", f"repro.experiments.{module}:run", label=alias)
        for alias, module in EXPERIMENTS.items()
    ]


@dataclass
class Span:
    layer: str
    label: str
    start: float
    end: float
    parent: int  # recorder index of the enclosing span, -1 at the top
    iteration: int
    calls: int = 1  # this entry plus the same-layer calls it absorbed
    units: int = 0


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self.iteration = 0
        self._clock = clock
        self._open: List[int] = []

    def call(
        self, target: Target, fn: Callable, args: tuple, kwargs: dict
    ) -> Any:
        if self._open and self.spans[self._open[-1]].layer == target.layer:
            result = fn(*args, **kwargs)
            outer = self.spans[self._open[-1]]
            outer.calls += 1
            outer.units += target.count(args, kwargs, result)
            return result
        span = Span(
            target.layer,
            target.label,
            self._clock(),
            float("nan"),
            self._open[-1] if self._open else -1,
            self.iteration,
        )
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._open.pop()
        span.units += target.count(args, kwargs, result)
        return result


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations.

    ``spans`` is a recorder's whole list, since ``parent`` indexes it.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


# -- installing the wrappers ---------------------------------------------
def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(target, original, args, kwargs)

    return wrapper


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _public_methods(cls: type) -> List[str]:
    return sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def _method_sites(target: Target) -> List[Tuple[Any, str]]:
    module_name, _, qualname = target.path.partition(":")
    class_name, _, method = qualname.partition(".")
    cls = getattr(importlib.import_module(module_name), class_name, None)
    if cls is None:
        return []
    names = _public_methods(cls) if method == "*" else [method]
    return [
        (owner, name)
        for owner in _subclasses(cls)
        for name in names
        if inspect.isfunction(vars(owner).get(name))
    ]


def _function_sites(target: Target) -> List[Tuple[Any, str]]:
    module_name, _, name = target.path.partition(":")
    original = getattr(importlib.import_module(module_name), name, None)
    if original is None:
        return []
    return [
        (module, attr)
        for module_name_, module in sorted(sys.modules.items())
        if module_name_.split(".")[0] == "repro" and module is not None
        for attr, value in list(vars(module).items())
        if value is original
    ]


def sites(target: Target) -> List[Tuple[Any, str]]:
    """Where ``target`` is bound: ``(owner, attribute)`` pairs.

    Empty when the program no longer has the entry point; the layer then
    reports zeros instead of failing the run.
    """
    if "." in target.path.partition(":")[2]:
        return _method_sites(target)
    return _function_sites(target)


@contextmanager
def traced(recorder: Recorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target's sites for the duration of the block."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            for owner, attr in sites(target):
                original = vars(owner)[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, _wrap(recorder, target, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------
#: The report's experiment aliases when the benchmark was defined.  The
#: metric set is fixed here, so an alias added later still counts in
#: ``experiments.self_s`` and coverage without changing what a run prints.
EXPERIMENT_ALIASES = (
    "fig01", "fig02", "fig04", "sec2c", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "tab1", "fig18", "fig19", "ext-split", "ext-online",
    "ext-throttle", "ext-cores", "ext-arena", "ext-undervolt",
)

#: (metric, unit, better) for every per-layer metric a traced run prints.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.calls", "count", "lower"),
    ("workloads.windows", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("uarch.calls", "count", "lower"),
    ("uarch.runs", "count", "lower"),
    ("uarch.self_s", "s", "lower"),
    ("pdn.calls", "count", "lower"),
    ("pdn.rows", "count", "lower"),
    ("pdn.self_s", "s", "lower"),
    ("measurement.calls", "count", "lower"),
    ("measurement.self_s", "s", "lower"),
    ("executor.calls", "count", "lower"),
    ("executor.specs", "count", "lower"),
    ("executor.memo_hits", "count", "higher"),
    ("executor.simulated", "count", "lower"),
    ("executor.attempts", "count", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.failures", "count", "lower"),
    ("executor.useful_ratio", "ratio", "higher"),
    ("executor.self_s", "s", "lower"),
    ("cache.loads", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.stores", "count", "lower"),
    ("cache.corrupt", "count", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("core.predictor.calls", "count", "lower"),
    ("core.predictor.cycles", "count", "lower"),
    ("core.predictor.self_s", "s", "lower"),
    ("core.resilience.calls", "count", "lower"),
    ("core.resilience.self_s", "s", "lower"),
    ("core.scheduler.calls", "count", "lower"),
    ("core.scheduler.self_s", "s", "lower"),
    ("core.online_scheduler.calls", "count", "lower"),
    ("core.online_scheduler.self_s", "s", "lower"),
    ("arena.self_s", "s", "lower"),
    ("undervolt.self_s", "s", "lower"),
    ("reporting.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    *((f"experiments.{alias}.incl_s", "s", "lower") for alias in EXPERIMENT_ALIASES),
    ("trace.wall_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(
    spans: Sequence[Span], iteration: int, wall_s: float
) -> Dict[str, float]:
    """Span-derived per-layer metrics of one traced iteration.

    ``wall_s`` is the iteration's traced wall time; the executor's
    counts from ``global_stats()`` and ``trace.overhead_s`` are added by
    the caller, which owns those.
    """
    own = self_times(spans)
    calls: Dict[str, int] = {}
    units: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    incl: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        if span.iteration != iteration:
            continue
        calls[span.layer] = calls.get(span.layer, 0) + span.calls
        units[span.layer] = units.get(span.layer, 0) + span.units
        self_s[span.layer] = self_s.get(span.layer, 0.0) + seconds
        if span.label:
            key = f"{span.layer}.{span.label}"
            incl[key] = incl.get(key, 0.0) + (span.end - span.start)
    covered = sum(self_s.values())
    below_frames = sum(
        seconds for layer, seconds in self_s.items()
        if layer not in FRAME_LAYERS
    )
    loads = calls.get("cache.load", 0)
    metrics: Dict[str, float] = {
        "workloads.windows": units.get("workloads", 0),
        "uarch.runs": units.get("uarch", 0),
        "pdn.rows": units.get("pdn", 0),
        "executor.specs": units.get("executor", 0),
        "cache.loads": loads,
        "cache.hits": units.get("cache.load", 0),
        "cache.hit_ratio": units.get("cache.load", 0) / loads if loads else 0.0,
        "cache.stores": calls.get("cache.store", 0),
        "cache.load_s": self_s.get("cache.load", 0.0),
        "cache.store_s": self_s.get("cache.store", 0.0),
        "core.predictor.cycles": units.get("core.predictor", 0),
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - covered,
        "trace.coverage": below_frames / wall_s if wall_s > 0 else 0.0,
    }
    for name, _, _ in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(layer, 0)
        elif kind == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
    for key, seconds in incl.items():
        metrics[f"{key}.incl_s"] = seconds
    return metrics


def self_time_total(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time in one iteration's metrics."""
    return sum(
        value for name, value in metrics.items()
        if name.endswith(("self_s", "load_s", "store_s"))
    )
