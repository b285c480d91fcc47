"""Extension — emergency-prevention throttling: open-loop vs closed-loop.

The paper's recovery-cost axis includes a ~100-cycle scheme built on
emergency *prediction* (Reddi et al., HPCA'09), and its related work
covers a-priori current ramping (Powell et al.).  This experiment builds
both actuation styles on the simulator and compares them on the noisy
Proc3 node:

* **open-loop ramping** (:class:`~repro.core.predictor.EmergencyPredictor`)
  slew-limits every refill edge after a deep activity drop — blind to the
  actual supply state;
* **closed-loop guided throttling**
  (:class:`~repro.core.predictor.VoltageGuidedThrottle`) co-simulates the
  PDN and engages only while the sensed voltage sits inside an arming
  band above the operating margin.

The unthrottled and open-loop voltages need no feedback, so they come
from the same Core -> PDN solve every campaign run takes; only the
closed loop steps cycle by cycle.

Finding: open-loop ramping is ruinously expensive — the workloads' burst
cadence sits at the package resonance, so smoothing *every* edge costs
tens of percent of throughput.  The closed-loop throttle removes more
droop events at roughly a quarter of that cost, which is why the
literature pairs prediction with voltage awareness rather than ramping
blindly.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import (
    EmergencyPredictor,
    ThrottleParameters,
    VoltageGuidedThrottle,
)
from repro.experiments.common import ExperimentResult
from repro.measurement.droops import CHARACTERIZATION_MARGIN, detect_droops
from repro.pdn.platform import CLOCK_PERIOD_S, DEFAULT_PARAMETERS
from repro.pdn.simulate import VoltageTrace
from repro.uarch.chip import Chip
from repro.uarch.core import Core
from repro.workloads.microbenchmarks import IdleLoop
from repro.workloads.spec import spec_benchmark

BENCHMARKS = ("lbm", "libquantum", "mcf", "sphinx")

#: Open-loop ramping aggressive enough to touch the package band.
OPEN_LOOP = ThrottleParameters(
    arm_drop=0.2, drop_window=300, slew_per_cycle=0.0015, hold_cycles=2500
)


def run(quick: bool = False, config: str = "Proc3") -> ExperimentResult:
    n_cycles = 20_000 if quick else 30_000
    repeats = 2 if quick else 3
    chip = Chip(config, with_ripple=True, slack_coupling=0.0)
    core = Core(chip.core_parameters)
    idle = IdleLoop()
    nominal = chip.nominal_voltage
    open_loop = EmergencyPredictor(OPEN_LOOP)
    closed_loop = VoltageGuidedThrottle(chip)

    def unthrottled(activity, other, ripple) -> np.ndarray:
        """Die voltage without feedback: the campaign's Core -> PDN path."""
        current = core.current_from_activity(activity) + other
        voltage = chip.simulator.simulate(current, include_ripple=False)
        return voltage.samples + ripple

    def events(voltage: np.ndarray) -> float:
        trace = VoltageTrace(voltage, CLOCK_PERIOD_S, nominal)
        return 1000.0 * detect_droops(trace).event_rate(
            CHARACTERIZATION_MARGIN
        )

    rows = {"raw": [], "open": [], "closed": []}
    losses = {"open": [], "closed": []}
    for name in BENCHMARKS:
        per_mode = {"raw": [], "open": [], "closed": []}
        per_loss = {"open": [], "closed": []}
        for rep in range(repeats):
            window = spec_benchmark(name).sample_window(n_cycles, rng=50 + rep)
            raw_activity = core.realize_activity(window)
            idle_activity = core.realize_activity(
                idle.sample_window(n_cycles, rng=60 + rep)
            )
            other = core.current_from_activity(idle_activity) + 2.0
            ripple = DEFAULT_PARAMETERS.vrm.ripple(
                n_cycles, CLOCK_PERIOD_S, nominal, seed=rep
            )
            raw = unthrottled(raw_activity, other, ripple)
            per_mode["raw"].append(events(raw))

            ramped = open_loop.throttle(raw_activity)
            open_run = unthrottled(ramped.activity, other, ripple)
            per_mode["open"].append(events(open_run))
            per_loss["open"].append(
                1.0
                - np.minimum(ramped.activity, 1.0).sum()
                / np.minimum(raw_activity, 1.0).sum()
            )

            guided = closed_loop.run(raw_activity, other, ripple=ripple)
            per_mode["closed"].append(events(guided.voltage))
            per_loss["closed"].append(
                guided.throughput_loss_fraction(raw_activity)
            )
        for key in rows:
            rows[key].append(float(np.mean(per_mode[key])))
        for key in losses:
            losses[key].append(float(np.mean(per_loss[key])))

    raw_mean = float(np.mean(rows["raw"]))
    result = ExperimentResult(
        experiment_id="Ext. C",
        title=f"Emergency-prevention throttling, open vs closed loop ({config})",
        columns=("scheme", "droop events/1K", "event reduction (%)",
                 "throughput loss (%)"),
    )
    result.add_row("no throttle", raw_mean, 0.0, 0.0)
    for key, label in (("open", "open-loop ramping"),
                       ("closed", "closed-loop guided")):
        mean_events = float(np.mean(rows[key]))
        result.add_row(
            label,
            mean_events,
            100 * (raw_mean - mean_events) / raw_mean,
            100 * float(np.mean(losses[key])),
        )
    result.series["raw_events"] = rows["raw"]
    result.series["open_events"] = rows["open"]
    result.series["closed_events"] = rows["closed"]
    result.series["open_loss"] = losses["open"]
    result.series["closed_loss"] = losses["closed"]
    result.notes.append(
        "open-loop ramping pays ~half the throughput (burst cadence sits "
        "on the package resonance); the voltage-guided throttle removes "
        "more events at roughly a quarter of that cost"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run(quick=True).format_table())


if __name__ == "__main__":  # pragma: no cover
    main()
