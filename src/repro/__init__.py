"""repro — a reproduction of "Voltage Smoothing: Characterizing and
Mitigating Voltage Noise in Production Processors via Software-Guided
Thread Scheduling" (Reddi et al., MICRO 2010).

The library replaces the paper's physical apparatus (an instrumented
Core 2 Duo, scope + differential probe, decap removal) with a calibrated
simulation stack and rebuilds every analysis on top of it:

* :mod:`repro.pdn` — lumped RLC power-delivery-network simulation,
  impedance profiles, the Proc100…Proc0 decap-removal family.
* :mod:`repro.uarch` — stall-event-driven core activity/current model,
  the dual-core chip with shared supply and cross-core slack coupling.
* :mod:`repro.workloads` — microbenchmarks, power virus, and statistical
  models of SPEC CPU2006 (29) and PARSEC (11).
* :mod:`repro.measurement` — scope-style histograms, droop/overshoot
  detection, tail models, and the 881-run campaign protocol.
* :mod:`repro.core` — the paper's contribution: the typical-case
  (resilient) design model and the noise-aware thread scheduler.
* :mod:`repro.scaling` — ITRS/ring-oscillator technology projections.
* :mod:`repro.experiments` — one harness per paper figure/table.

Quickstart::

    from repro import Chip, spec_benchmark
    chip = Chip("Proc100")
    window = spec_benchmark("mcf").sample_window(50_000, rng=0)
    run = chip.run([window])
    print(run.voltage.max_droop_fraction())
"""

from repro.errors import (
    CalibrationError,
    ConfigurationError,
    MeasurementError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from repro.pdn import (
    ImpedanceProfile,
    PowerDeliveryNetwork,
    TransientSimulator,
    VoltageTrace,
    proc_config,
)
from repro.pdn.platform import (
    CLOCK_FREQUENCY_HZ,
    NOMINAL_VOLTAGE,
    WORST_CASE_MARGIN,
    build_network,
    build_simulator,
)
from repro.uarch import Chip, ChipRun, Core, ExecutionWindow, StallEvent
from repro.workloads import (
    IdleLoop,
    PowerVirus,
    parsec_benchmark,
    spec_benchmark,
)
from repro.measurement import MeasurementCampaign
from repro.core import (
    BatchScheduler,
    DroopPolicy,
    GroupOracle,
    HybridPolicy,
    IPCPolicy,
    ResilientDesignModel,
    performance_improvement,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "CalibrationError",
    "WorkloadError",
    "MeasurementError",
    "SchedulingError",
    "ImpedanceProfile",
    "PowerDeliveryNetwork",
    "TransientSimulator",
    "VoltageTrace",
    "proc_config",
    "CLOCK_FREQUENCY_HZ",
    "NOMINAL_VOLTAGE",
    "WORST_CASE_MARGIN",
    "build_network",
    "build_simulator",
    "Chip",
    "ChipRun",
    "Core",
    "ExecutionWindow",
    "StallEvent",
    "IdleLoop",
    "PowerVirus",
    "parsec_benchmark",
    "spec_benchmark",
    "MeasurementCampaign",
    "BatchScheduler",
    "DroopPolicy",
    "GroupOracle",
    "HybridPolicy",
    "IPCPolicy",
    "ResilientDesignModel",
    "performance_improvement",
    "__version__",
]
