"""Regenerate the experiment-layer golden fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/experiments/golden/regenerate.py

Each fixture pins one quick-protocol experiment exactly: its rendered
``format_table()`` plus the numeric series named in
:data:`GOLDEN_SERIES`.  Floats are stored as their ``repr`` strings, so
a comparison sees a last-bit drift that the report's 4-digit rounding
(and the table's print precision) would hide.  The fixtures cover the
typical-case design model (Figs. 8 and 10, Tab. I, Fig. 19) and the
throttling extension.

**Only regenerate after an intentional change to an experiment's
numbers**, and say why in the commit message.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pathlib
import sys

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: experiment module (under ``repro.experiments``) -> pinned series keys.
GOLDEN_SERIES = {
    "fig08_margin_sweep": ("sweeps",),
    "fig10_heatmaps": ("heatmaps",),
    "tab1_specrate_pass": ("optima", "passing_by_cost"),
    "fig19_pass_increase": ("passing", "recovery_costs"),
    "ext_throttle": ("raw_events", "open_events", "closed_events",
                     "open_loss", "closed_loss"),
}


def encode(value):
    """JSON form of a series value with every float as its exact repr."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return {
            field.name: encode(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return encode(value.tolist())
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def snapshot(name: str, result) -> dict:
    """The pinned content of one experiment result."""
    return {
        "table": result.format_table(),
        "series": {
            key: encode(result.series[key]) for key in GOLDEN_SERIES[name]
        },
    }


def regenerate() -> None:
    for name in GOLDEN_SERIES:
        module = importlib.import_module(f"repro.experiments.{name}")
        fixture = snapshot(name, module.run(quick=True))
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(fixture, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent.parent)}")


if __name__ == "__main__":
    sys.exit(regenerate())
