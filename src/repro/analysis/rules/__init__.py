"""Rule modules; importing this package registers every rule.

Families:

* :mod:`repro.analysis.rules.determinism` — ``DET0xx``: every stochastic
  or time-dependent value must flow from an injectable seed.
* :mod:`repro.analysis.rules.units` — ``UNI0xx``: physical quantities in
  SI base units built from :mod:`repro.units` constants, never raw
  scale-prefix literals.
* :mod:`repro.analysis.rules.hygiene` — ``HYG0xx``: simulation-code
  hygiene (float equality, overbroad excepts, frozen config
  dataclasses, ``__future__`` annotations).
* :mod:`repro.analysis.rules.observability` — ``OBS0xx``: telemetry
  discipline (all monotonic-clock timing goes through
  :mod:`repro.observability`).
* :mod:`repro.analysis.flow.rules` — ``DIM0xx``/``CON0xx``: the dataflow
  families (dimensional analysis, concurrency safety), emitted by the
  ``--flow`` engine rather than the single-file visitor.
"""

from __future__ import annotations

from repro.analysis.flow import rules as flow_rules
from repro.analysis.rules import determinism, hygiene, observability, units

__all__ = ["determinism", "flow_rules", "hygiene", "observability", "units"]
