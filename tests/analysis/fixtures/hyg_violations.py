"""Fixture: simulation-hygiene violations (HYG001-HYG004).

Never imported — parsed by simlint only.  ``# expect: CODE`` markers are
collected by tests/analysis/test_rules.py.  (HYG005 has its own fixture:
hyg_missing_future.py.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def float_eq(voltage: float) -> bool:
    return voltage == 0.0  # expect: HYG001


def float_ne(droop: float) -> bool:
    return droop != 1.5  # expect: HYG001


def float_close(voltage: float) -> bool:
    return math.isclose(voltage, 0.0)  # ok: tolerance-aware


def ordered_guard(undervolt: float) -> bool:
    return undervolt <= 0.0  # ok: ordered comparison


def int_eq(count: int) -> bool:
    return count == 0  # ok: integer literal


def swallow_everything() -> float:
    try:
        return 1.0 / 0.0
    except Exception:  # expect: HYG003
        return 0.0


def bare_handler() -> float:
    try:
        return 1.0 / 0.0
    except:  # expect: HYG003  # noqa: E722
        return 0.0


def narrow_handler() -> float:
    try:
        return 1.0 / 0.0
    except ZeroDivisionError:  # ok: specific
        return 0.0


@dataclass  # expect: HYG004
class SweepParameters:
    step: float = 0.005
    ceiling: float = 0.12


@dataclass(frozen=True)  # ok: frozen config
class ProbeConfig:
    bandwidth: float = 1.5


@dataclass
class RunningTally:  # ok: not a config-suffixed name
    values: list = field(default_factory=list)
