"""simlint — AST-based invariant checking for the repro codebase.

The reproduction's numbers are only as trustworthy as its invariants:
every stochastic draw must flow from an explicit seed, every physical
constant must be written in SI base units via :mod:`repro.units`, and
simulation code must avoid the classic numerical foot-guns.  This
package enforces those conventions mechanically:

* :mod:`repro.analysis.engine` — single-pass AST visitor engine with
  ``# simlint: disable=CODE`` inline suppressions;
* :mod:`repro.analysis.rules` — the line-rule families (``DET*``
  determinism, ``UNI*`` unit-safety, ``HYG*`` hygiene);
* :mod:`repro.analysis.flow` — the project-wide dataflow engine
  (``DIM*`` interprocedural dimensional analysis, ``CON*``
  concurrency-safety, and ``TNT*`` determinism taint), run under
  ``--flow``;
* :mod:`repro.analysis.baseline` — committed grandfather lists, one
  justification string per entry;
* :mod:`repro.analysis.reporters` — text, JSON, and SARIF output;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` /
  ``repro-lint``.

Programmatic use::

    from repro.analysis import flow_paths, lint_paths, lint_source
    findings = lint_paths(["src/repro"]) + flow_paths(["src/repro"])
"""

from __future__ import annotations

from repro.analysis.engine import (
    FileContext,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.engine import flow_paths, flow_sources
from repro.analysis.registry import Rule, all_rules, get_rule, register

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "flow_paths",
    "flow_sources",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
]
