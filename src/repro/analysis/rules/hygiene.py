"""Simulation-hygiene rules (``HYG0xx``).

These are the classic numerical/simulation foot-guns: float equality
(droop thresholds live within 1e-12 of each other), bare or overbroad
``except`` (swallows the typed :mod:`repro.errors` hierarchy), mutable
config dataclasses (a frozen config is a reproducibility contract), and
missing ``from __future__ import annotations`` (the repo-wide typing
convention).  Mutable default arguments are left to ruff's ``B006``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

_CONFIG_NAME_RE = re.compile(
    r"(Config|Configuration|Parameters|Settings|Options)$"
)


@register
class FloatEqualityRule(Rule):
    """HYG001: ``==``/``!=`` against a float literal."""

    code = "HYG001"
    name = "float-equality"
    severity = Severity.ERROR
    description = (
        "exact ==/!= against a float literal is fragile under roundoff; "
        "use math.isclose, numpy.isclose, or an ordered guard"
    )
    node_types = (ast.Compare,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                yield ctx.finding(
                    self,
                    node,
                    "float equality comparison; use math.isclose(...) "
                    "or an ordered guard (<=, >=)",
                )
                return


@register
class OverbroadExceptRule(Rule):
    """HYG003: bare or overbroad exception handler."""

    code = "HYG003"
    name = "overbroad-except"
    severity = Severity.WARNING
    description = (
        "bare `except:` / `except Exception:` swallows the typed "
        "repro.errors hierarchy and hides real failures; catch the "
        "narrowest exception that the block can actually raise"
    )
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        broad = _broad_exception_name(node.type)
        if node.type is None:
            yield ctx.finding(
                self, node, "bare `except:`; name the exception type"
            )
        elif broad is not None:
            yield ctx.finding(
                self,
                node,
                f"overbroad `except {broad}:`; catch a specific exception "
                "(e.g. from repro.errors)",
            )


@register
class UnfrozenConfigDataclassRule(Rule):
    """HYG004: config-style dataclass that is not frozen."""

    code = "HYG004"
    name = "unfrozen-config-dataclass"
    severity = Severity.ERROR
    description = (
        "classes named *Config/*Parameters/*Settings/*Options describe a "
        "run; freezing them (@dataclass(frozen=True)) makes the "
        "description immutable and hashable for caching"
    )
    node_types = (ast.ClassDef,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        if not _CONFIG_NAME_RE.search(node.name):
            return
        for decorator in node.decorator_list:
            frozen = _dataclass_frozen(decorator, ctx)
            if frozen is None:
                continue
            if not frozen:
                yield ctx.finding(
                    self,
                    decorator,
                    f"config dataclass {node.name} is mutable; use "
                    "@dataclass(frozen=True)",
                )
            return


@register
class MissingFutureAnnotationsRule(Rule):
    """HYG005: module with definitions lacks the ``__future__`` import."""

    code = "HYG005"
    name = "missing-future-annotations"
    severity = Severity.WARNING
    description = (
        "modules that define functions or classes must start with "
        "`from __future__ import annotations` (repo-wide typing "
        "convention; keeps annotations lazy and 3.10-compatible)"
    )

    def check_module(
        self, tree: ast.Module, ctx: FileContext
    ) -> Iterator[Finding]:
        has_defs = any(
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            for node in ast.walk(tree)
        )
        if not has_defs:
            return
        for node in tree.body:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(a.name == "annotations" for a in node.names)
            ):
                return
        yield Finding(
            code=self.code,
            message=(
                "module defines functions/classes but lacks "
                "`from __future__ import annotations`"
            ),
            path=ctx.path,
            line=1,
            column=0,
            severity=self.severity,
            source_line=ctx.source_line(1),
        )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _broad_exception_name(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _broad_exception_name(element)
            if name is not None:
                return name
        return None
    if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException"):
        return node.id
    return None


def _dataclass_frozen(
    decorator: ast.AST, ctx: FileContext
) -> Optional[bool]:
    """``True``/``False`` for a dataclass decorator, ``None`` otherwise."""
    call_keywords = []
    target = decorator
    if isinstance(decorator, ast.Call):
        target = decorator.func
        call_keywords = decorator.keywords
    dotted = ctx.dotted_name(target)
    if dotted is None or dotted.split(".")[-1] != "dataclass":
        return None
    for keyword in call_keywords:
        if keyword.arg == "frozen":
            value = keyword.value
            if isinstance(value, ast.Constant):
                return bool(value.value)
            return True  # dynamic frozen=... : give the benefit of the doubt
    return False
