"""The gate: src/repro (simlint included) is simlint-clean, un-baselined.

This is the test that lets the next ten refactors move fast: any new
stdlib-random draw, wall-clock read, raw ``22e-6``, or float ``==``
anywhere under src/repro fails the suite with an exact location.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis import flow_paths, lint_paths
from repro.analysis.findings import Severity


def src_repro_dir() -> str:
    return str(Path(repro.__file__).resolve().parent)


def test_src_repro_is_simlint_clean():
    findings = lint_paths([src_repro_dir()])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_src_repro_is_flow_clean():
    """The dataflow engine (DIM/CON/TNT) reports nothing.

    This is the dimensional-analysis analogue of the line-rule gate:
    any new Ω+F sum, wrong-dimension argument, fresh-entropy worker
    stream, or worker-side global write fails with an exact location.
    """
    findings = flow_paths([src_repro_dir()])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_src_repro_has_no_errors_even_at_warning_level():
    """Redundant with the above today; keeps severity semantics honest."""
    findings = lint_paths([src_repro_dir()])
    assert [f for f in findings if f.severity is Severity.ERROR] == []
