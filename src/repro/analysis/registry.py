"""Rule base class and the global rule registry.

A rule is a small stateless object with a unique ``code`` (e.g.
``DET001``), a severity, and one or both of two hooks:

* :meth:`Rule.check` — called once per AST node whose type appears in
  :attr:`Rule.node_types`;
* :meth:`Rule.check_module` — called once per module with the full tree
  (for whole-file invariants such as a required ``__future__`` import).

Rules register themselves with the :func:`register` decorator; the
engine asks :func:`all_rules` for the active set.  Codes group into
families by prefix: ``DET`` (determinism), ``UNI`` (unit-safety),
``HYG`` (simulation hygiene).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type, TypeVar

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext


class Rule:
    """Base class for simlint rules.  Subclass and :func:`register`."""

    #: Unique rule code, e.g. ``"DET001"``.
    code: str = ""
    #: Short human name, e.g. ``"stdlib-random"``.
    name: str = ""
    severity: Severity = Severity.ERROR
    #: One-line rationale shown by ``--list-rules`` and the docs.
    description: str = ""
    #: AST node types :meth:`check` wants to see; empty means none.
    node_types: Tuple[Type[ast.AST], ...] = ()
    #: True for rules emitted by the dataflow engine (``--flow``) rather
    #: than the single-file visitor; they never fire through :meth:`check`.
    flow: bool = False

    def check(self, node: ast.AST, ctx: "FileContext") -> Iterator[Finding]:
        """Yield findings for one node of a registered type."""
        return iter(())

    def check_module(
        self, tree: ast.Module, ctx: "FileContext"
    ) -> Iterator[Finding]:
        """Yield module-level findings (runs once per file)."""
        return iter(())


_REGISTRY: Dict[str, Rule] = {}

#: Analysis-logic version per rule family.  Bump a family's version
#: whenever its pass's *semantics* change (new sources, sinks, or
#: propagation behavior) so cached lint results keyed on the registry
#: signature are invalidated even though rule codes stayed the same.
FAMILY_VERSIONS: Dict[str, int] = {
    "DET": 1,
    "UNI": 1,
    "HYG": 1,
    "OBS": 1,
    "SIM": 1,
    # The flow passes share the call-graph module; its extraction (and
    # the effect/taint machinery built on it) is analysis version 2.
    "DIM": 2,
    "CON": 2,
    "TNT": 1,
}


def family_of(code: str) -> str:
    """The family prefix of a rule code (``"TNT001"`` -> ``"TNT"``)."""
    return code.rstrip("0123456789")


def family_version(code: str) -> int:
    """Analysis version of the family ``code`` belongs to (default 1)."""
    return FAMILY_VERSIONS.get(family_of(code), 1)


R = TypeVar("R", bound=Type[Rule])


def register(rule_class: R) -> R:
    """Class decorator: instantiate and index a rule by its code."""
    rule = rule_class()
    if not rule.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code (imports rule modules)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Look up one rule by code (:func:`all_rules` semantics)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    if code not in _REGISTRY:
        raise KeyError(f"unknown rule code {code!r}")
    return _REGISTRY[code]
