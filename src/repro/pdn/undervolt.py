"""Worst-case margin discovery by undervolting (Sec. II-C).

The paper: "In order to determine this value, we progressively undervolt
the processor while maintaining its clock frequency.  This ultimately
forces the processor into a functional error, which we detect when the
processor fails stress-testing under multiple copies of the power virus."

The simulator's version: the chip's critical path fails whenever the
instantaneous die voltage falls below :data:`CRITICAL_VOLTAGE` (the supply
at which the critical path no longer closes timing at 1.86 GHz — see the
ring-oscillator model for why frequency collapses near threshold).  The
experiment lowers the regulator set-point step by step while both cores
run the phase-locked power virus, and finds the first set-point whose
worst droop dips below the critical voltage.

Two numbers fall out:

* the **undervolt headroom** — how far below nominal the set-point can go
  before the virus kills the machine (small: the virus's own droop eats
  most of the guardband);
* the **worst-case operating margin** — ``(Vnom − V_crit)/Vnom``, the
  guardband the shipped part actually carries; the reproduction's
  ``WORST_CASE_MARGIN = 14 %`` constant is *this derived quantity*
  (rounded; :data:`OPERATING_MARGIN` keeps it exact), not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.pdn import platform

#: Supply voltage below which the critical path misses timing at the
#: shipped 1.86 GHz clock.  1.118 V = 86 % of the 1.30 V nominal — the
#: complement of the 14 % guardband the paper measures.
CRITICAL_VOLTAGE = 1.118

#: The guardband the shipped part carries, ``(Vnom − V_crit)/Vnom``.
#: Derived, so it differs from :data:`repro.pdn.platform.WORST_CASE_MARGIN`
#: (the rounded 0.14) in the last bits.
OPERATING_MARGIN = (
    platform.NOMINAL_VOLTAGE - CRITICAL_VOLTAGE
) / platform.NOMINAL_VOLTAGE


@dataclass(frozen=True)
class UndervoltResult:
    """Outcome of one undervolting campaign."""

    config_name: str
    failing_undervolt: float
    virus_droop_fraction: float
    worst_case_margin: float
    set_points: np.ndarray
    min_voltages: np.ndarray

    @property
    def headroom(self) -> float:
        """Largest safe undervolt below nominal (fraction)."""
        return max(0.0, self.failing_undervolt)


def _virus_current(n_cycles: int) -> np.ndarray:
    """Chip current under two phase-locked power-virus copies."""
    from repro.uarch.core import Core
    from repro.workloads.virus import PowerVirus

    core = Core()
    virus = PowerVirus()
    window = virus.sample_window(n_cycles)
    activity = core.realize_activity(window)
    per_core = core.current_from_activity(activity)
    return 2.0 * per_core + 2.0  # both cores + uncore


def _min_voltage_volt(
    config: str,
    current: np.ndarray,
    supply_volt: float,
    with_ripple: bool,
    seed: int,
) -> Tuple[float, float]:
    """Worst instantaneous die voltage at one regulator set-point.

    Returns ``(min voltage in volts, max droop fraction)``.  Kept as a
    module-level seam: the walk, the bisection refinement and the
    non-monotone guard all probe through this one function, and the
    guard's tests monkeypatch it to fake a misbehaving PDN.
    """
    parameters = platform.PlatformParameters(nominal_voltage=supply_volt)
    simulator = platform.build_simulator(
        config, parameters, with_ripple=with_ripple
    )
    trace = simulator.simulate(current, seed=seed, include_ripple=with_ripple)
    return float(trace.samples.min()), float(trace.max_droop_fraction())


def undervolt_to_failure(
    config: str = "Proc100",
    n_cycles: int = 60_000,
    step: float = 0.005,
    max_undervolt: float = 0.12,
    critical_voltage: float = CRITICAL_VOLTAGE,
    with_ripple: bool = True,
    seed: int = 0,
    refine_steps: int = 0,
) -> UndervoltResult:
    """Walk the regulator set-point down until the virus causes failure.

    Parameters
    ----------
    config:
        Decap configuration under test.
    step:
        Undervolt granularity (fraction of nominal per step).
    max_undervolt:
        Search ceiling; exceeded means the model never failed (an error —
        the virus should always be able to kill the machine eventually).
    refine_steps:
        Bisection iterations sharpening the failure edge inside the last
        coarse step.  ``0`` (the default) keeps the classic coarse walk.
        Refinement needs a safe bracket: if the very first set-point
        already fails (bracket exhaustion) the coarse answer — zero
        headroom — is returned unrefined.

    The walk also guards the model's own physics: with a fixed current
    profile the PDN is linear, so the worst die voltage must fall
    strictly as the set-point falls.  A non-monotone response means the
    simulator is mis-configured and raises
    :class:`~repro.errors.SimulationError` rather than reporting a
    margin measured on broken physics.
    """
    if step <= 0:
        raise ConfigurationError("step must be positive")
    if not 0 < max_undervolt < 0.5:
        raise ConfigurationError("max_undervolt must be in (0, 0.5)")
    if refine_steps < 0:
        raise ConfigurationError("refine_steps must be >= 0")
    current = _virus_current(n_cycles)
    nominal = platform.NOMINAL_VOLTAGE

    set_points = []
    minima = []
    failing = None
    virus_droop = None
    undervolt = 0.0
    while undervolt <= max_undervolt + 1e-12:
        supply = nominal * (1.0 - undervolt)
        v_min, droop = _min_voltage_volt(
            config, current, supply, with_ripple, seed
        )
        if minima and v_min >= minima[-1]:
            raise SimulationError(
                f"non-monotone droop response: lowering the set-point to "
                f"{supply:.4f} V raised the worst die voltage "
                f"({v_min:.4f} V >= {minima[-1]:.4f} V); the PDN model "
                "is mis-configured"
            )
        set_points.append(supply)
        minima.append(v_min)
        if virus_droop is None:  # first iteration: nominal set-point
            virus_droop = droop
        if v_min < critical_voltage:
            failing = undervolt
            break
        undervolt += step
    if failing is None:
        raise SimulationError(
            "virus stress never failed within the undervolt ceiling; "
            "the critical voltage is miscalibrated"
        )
    if refine_steps and failing > 0.0:
        failing = _refine_failing_edge(
            config, current, failing - step, failing, critical_voltage,
            with_ripple, seed, refine_steps,
        )
    return UndervoltResult(
        config_name=config,
        failing_undervolt=failing,
        virus_droop_fraction=float(virus_droop),
        worst_case_margin=(nominal - critical_voltage) / nominal,
        set_points=np.array(set_points),
        min_voltages=np.array(minima),
    )


def _refine_failing_edge(
    config: str,
    current: np.ndarray,
    safe_undervolt: float,
    failing_undervolt: float,
    critical_voltage: float,
    with_ripple: bool,
    seed: int,
    refine_steps: int,
) -> float:
    """Bisect the (safe, failing) bracket down to a sharper failure edge.

    Probes go through :func:`_min_voltage_volt` like the coarse walk,
    but are *not* appended to the result's ``set_points``/
    ``min_voltages`` arrays — those record the monotone coarse walk the
    plots and regression pins expect.
    """
    nominal = platform.NOMINAL_VOLTAGE
    for _ in range(refine_steps):
        probe = 0.5 * (safe_undervolt + failing_undervolt)
        v_min, _ = _min_voltage_volt(
            config, current, nominal * (1.0 - probe), with_ripple, seed
        )
        if v_min < critical_voltage:
            failing_undervolt = probe
        else:
            safe_undervolt = probe
    return failing_undervolt
