"""Rule metadata for the dataflow families (``DIM``, ``CON``, ``TNT``).

These rules do not hook the single-file visitor: they are *emitted* by
the flow passes (:mod:`repro.analysis.flow.inference`,
:mod:`repro.analysis.flow.concurrency`, and
:mod:`repro.analysis.flow.taint`).  Registering them in the shared
registry keeps ``--list-rules``, ``--select``, severity handling, and the
docs generator uniform across line rules and flow rules; the
:attr:`~repro.analysis.registry.Rule.flow` marker tells the CLI they only
fire under ``--flow``.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register


class FlowRule(Rule):
    """Base for rules produced by the dataflow engine (no AST hooks)."""

    flow = True


@register
class DimensionMismatchRule(FlowRule):
    """DIM001: arithmetic or comparison across incompatible dimensions."""

    code = "DIM001"
    name = "dimension-mismatch"
    severity = Severity.ERROR
    description = (
        "adding, subtracting, or comparing values of different physical "
        "dimensions (volts + amps, ohms < seconds) is always a bug; the "
        "dataflow engine infers each operand's dimension interprocedurally"
    )


@register
class WrongArgumentDimensionRule(FlowRule):
    """DIM002: argument dimension contradicts the parameter's dimension."""

    code = "DIM002"
    name = "wrong-argument-dimension"
    severity = Severity.ERROR
    description = (
        "a value whose inferred dimension contradicts the unit-suffixed "
        "or dim-annotated parameter it is passed to (an inductance passed "
        "as c_farads)"
    )


@register
class DimensionlessBindingRule(FlowRule):
    """DIM003: computed dimension contradicts the unit-suffixed target."""

    code = "DIM003"
    name = "dimensionless-binding"
    severity = Severity.WARNING
    description = (
        "a computed value bound to a unit-suffixed name whose dimension "
        "it contradicts — canonically a dimensionless ratio stored as "
        "*_volts (a lost multiplication by the nominal supply)"
    )


@register
class WrongReturnDimensionRule(FlowRule):
    """DIM004: returned dimension contradicts the function's name/annotation."""

    code = "DIM004"
    name = "wrong-return-dimension"
    severity = Severity.ERROR
    description = (
        "a function whose name or dim annotation pins a return dimension "
        "(*_hertz, `-> ohm`) returns a value of a different inferred "
        "dimension"
    )


@register
class UnderivedWorkerRngRule(FlowRule):
    """CON001: worker-path RNG not derived from the run's seed."""

    code = "CON001"
    name = "underived-worker-rng"
    severity = Severity.ERROR
    description = (
        "code reachable from a process-pool payload constructs a random "
        "stream (default_rng/as_generator/derive_generator) from fresh "
        "entropy or a constant instead of seed material threaded through "
        "its parameters — parallel runs would not be bit-identical to "
        "serial"
    )


@register
class UnpicklablePayloadRule(FlowRule):
    """CON002: unpicklable callable shipped to a process pool."""

    code = "CON002"
    name = "unpicklable-payload"
    severity = Severity.ERROR
    description = (
        "a lambda or closure-captured local function passed to "
        "ProcessPoolExecutor.map/submit; pool payloads are pickled by "
        "name and must be module-level functions"
    )


@register
class WorkerGlobalWriteRule(FlowRule):
    """CON003: module-global state written from worker-reachable code."""

    code = "CON003"
    name = "worker-global-write"
    severity = Severity.WARNING
    description = (
        "a module-level global rebound or mutated from code reachable "
        "inside a pool worker; worker processes never share the write "
        "back, so the mutation silently diverges from serial execution"
    )


@register
class ClockReachesResultRule(FlowRule):
    """TNT001: clock value reaches a run result or cache content key."""

    code = "TNT001"
    name = "clock-reaches-result"
    severity = Severity.ERROR
    description = (
        "a wall-clock or monotonic reading flows into a worker entry's "
        "return value or into the sha256 cache key; results and keys "
        "must be pure functions of (seed, spec, config) or cache hits "
        "replay stale timestamps"
    )


@register
class UnderivedRngReachesResultRule(FlowRule):
    """TNT002: RNG not derived via derive_generator reaches a result."""

    code = "TNT002"
    name = "underived-rng-reaches-result"
    severity = Severity.ERROR
    description = (
        "a random stream constructed from fresh entropy or a constant "
        "(rather than via random_utils.derive_generator or parameter "
        "seed material) flows into a run result; parallel campaigns "
        "would not be bit-identical to serial ones"
    )


@register
class UnorderedReductionRule(FlowRule):
    """TNT003: unordered set iteration feeds an order-sensitive reduction."""

    code = "TNT003"
    name = "unordered-set-reduction"
    severity = Severity.WARNING
    description = (
        "worker-reachable code iterates a set (whose order is "
        "unspecified) into sum/list/join or an accumulating loop; "
        "float accumulation order varies run-to-run — sort first"
    )


@register
class CompletionOrderAggregationRule(FlowRule):
    """TNT004: results aggregated in worker-completion order."""

    code = "TNT004"
    name = "completion-order-aggregation"
    severity = Severity.ERROR
    description = (
        "results collected via as_completed/imap_unordered into an "
        "order-sensitive accumulator; aggregation must follow spec "
        "order so campaigns are bit-identical across --jobs N"
    )


@register
class EnvReachesCacheKeyRule(FlowRule):
    """TNT005: environment/platform value flows into the cache key."""

    code = "TNT005"
    name = "env-reaches-cache-key"
    severity = Severity.ERROR
    description = (
        "os.environ/platform-dependent material flows into the sha256 "
        "cache key; identical runs on different hosts would miss each "
        "other's cache entries (or worse, a host detail leaks into "
        "result identity)"
    )
