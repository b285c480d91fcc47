"""Time-domain PDN simulation: current trace in, voltage trace out.

The fast path discretizes the ladder's single-input (load current) /
single-output (die voltage) transfer function with the bilinear transform
and runs it through :func:`scipy.signal.sosfilt` in second-order sections,
which is numerically robust across the network's six decades of time
constants and fast enough to sweep the paper's 881 workload runs.

A deliberately simple trapezoidal (Crank–Nicolson) integrator over the full
state-space model is kept as a reference implementation; the unit tests
check the two against each other on short traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import signal

from repro import observability as obs
from repro.errors import ConfigurationError, SimulationError
from repro.pdn.network import PowerDeliveryNetwork
from repro.pdn.vrm import VoltageRegulatorModule
from repro.random_utils import SeedLike


@dataclass(frozen=True)
class VoltageTrace:
    """A sampled on-die voltage waveform.

    Parameters
    ----------
    samples:
        Voltage per sample, in volts.
    dt_seconds:
        Sample period.
    nominal_voltage:
        The regulator set-point the deviations are measured against.
    """

    samples: np.ndarray
    dt_seconds: float
    nominal_voltage: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigurationError("samples must be a non-empty 1-D array")
        object.__setattr__(self, "samples", samples)
        if self.dt_seconds <= 0:
            raise ConfigurationError("dt_seconds must be positive")
        if self.nominal_voltage <= 0:
            raise ConfigurationError("nominal_voltage must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_seconds(self) -> float:
        return len(self) * self.dt_seconds

    def deviations_fraction(self) -> np.ndarray:
        """Per-sample deviation from nominal, as a signed fraction.

        Negative values are droops, positive values are overshoots —
        the quantity plotted on the x-axis of the paper's Figs. 7 and 9.
        The array is computed once and memoized (droop detection and
        histogram binning both consume it); treat it as read-only.
        """
        cached = self.__dict__.get("_deviations")
        if cached is None:
            cached = (
                (self.samples - self.nominal_voltage) / self.nominal_voltage
            )
            object.__setattr__(self, "_deviations", cached)
        return cached

    def peak_to_peak(self) -> float:
        """Peak-to-peak swing in volts."""
        return float(self.samples.max() - self.samples.min())

    def peak_to_peak_fraction(self) -> float:
        """Peak-to-peak swing as a fraction of nominal voltage."""
        return self.peak_to_peak() / self.nominal_voltage

    def max_droop_fraction(self) -> float:
        """Deepest droop below nominal, as a positive fraction."""
        return float(max(0.0, -self.deviations_fraction().min()))

    def max_overshoot_fraction(self) -> float:
        """Highest overshoot above nominal, as a positive fraction."""
        return float(max(0.0, self.deviations_fraction().max()))

    def window(self, start: int, stop: int) -> "VoltageTrace":
        """A sub-trace covering ``samples[start:stop]``."""
        if not 0 <= start < stop <= len(self):
            raise ConfigurationError("invalid window bounds")
        return VoltageTrace(
            self.samples[start:stop], self.dt_seconds, self.nominal_voltage
        )


class TransientSimulator:
    """Fast LTI solver for one PDN at a fixed sample rate.

    Parameters
    ----------
    network:
        The power-delivery ladder to simulate.
    dt_seconds:
        Sample period of the current stimulus (for per-cycle current
        traces this is one clock period).
    vrm:
        Optional regulator model whose switching ripple is superimposed on
        the simulated response.  Pass ``None`` for an ideal, ripple-free
        source (useful in analytical tests).
    """

    def __init__(
        self,
        network: PowerDeliveryNetwork,
        dt_seconds: float,
        vrm: Optional[VoltageRegulatorModule] = None,
    ) -> None:
        if dt_seconds <= 0:
            raise ConfigurationError("dt_seconds must be positive")
        self._network = network
        self._dt = float(dt_seconds)
        self._vrm = vrm
        self._sos, self._zi_unit = self._discretize()

    @property
    def network(self) -> PowerDeliveryNetwork:
        return self._network

    @property
    def dt_seconds(self) -> float:
        return self._dt

    def discrete_sections(self) -> tuple[np.ndarray, np.ndarray]:
        """The (sos, unit-step zi) pair of the discretized current channel.

        Exposed for cycle-stepped co-simulation (e.g. closed-loop
        throttling) where the caller advances the filter one sample at a
        time while reacting to the output voltage.
        """
        return self._sos.copy(), self._zi_unit.copy()

    def _discretize(self) -> tuple[np.ndarray, np.ndarray]:
        """Bilinear-discretize the current→voltage channel to SOS form."""
        a, b, c, d = self._network.state_space()
        # Current channel only; the source channel contributes exactly the
        # nominal voltage once the network starts from its DC operating
        # point (DC gain from the source to the die node is unity).
        zeros, poles, gain = signal.ss2zpk(a, b[:, [1]], c, d[:, [1]])
        zd, pd, kd = signal.bilinear_zpk(
            np.atleast_1d(np.squeeze(zeros)), poles, gain, fs=1.0 / self._dt
        )
        sos = signal.zpk2sos(zd, pd, kd)
        zi_unit = signal.sosfilt_zi(sos)
        return sos, zi_unit

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def simulate(
        self,
        current_amps: np.ndarray,
        seed: SeedLike = None,
        include_ripple: bool = True,
    ) -> VoltageTrace:
        """Simulate the die voltage for a per-sample current trace.

        The network starts at the DC operating point of the first current
        sample, so there is no artificial startup transient; pass a short
        warm-up prefix if the stimulus itself begins abruptly.  A single
        trace is solved as a batch of one (see :meth:`simulate_batch`).
        """
        current = np.asarray(current_amps, dtype=float)
        if current.ndim != 1 or current.size == 0:
            raise SimulationError("current trace must be a non-empty 1-D array")
        return self._solve(current[None, :], [seed], include_ripple)[0]

    def simulate_batch(
        self,
        current_amps: np.ndarray,
        seeds: Optional[Sequence[SeedLike]] = None,
        include_ripple: bool = True,
    ) -> List[VoltageTrace]:
        """Simulate many current traces through one batched filter call.

        ``current_amps`` stacks one trace per row; ``seeds`` supplies
        the per-row ripple seed.  The SOS filter is linear and each
        row's initial condition scales linearly with its first sample,
        so one ``sosfilt`` over the matrix returns every row
        bit-identical to a batch of one — pinned by the batched-filter
        property tests.  One ``pdn.simulate`` span covers the whole
        batch.
        """
        currents = np.asarray(current_amps, dtype=float)
        if currents.ndim != 2 or currents.size == 0:
            raise SimulationError(
                "current batch must be a non-empty 2-D array"
            )
        if seeds is None:
            seeds = [None] * currents.shape[0]
        return self._solve(currents, seeds, include_ripple)

    def _solve(
        self,
        currents: np.ndarray,
        seeds: Sequence[SeedLike],
        include_ripple: bool,
    ) -> List[VoltageTrace]:
        """The one PDN solve: each row of ``currents`` is one trace."""
        if np.any(~np.isfinite(currents)):
            raise SimulationError("current trace contains non-finite values")
        n_runs, n_samples = currents.shape
        if len(seeds) != n_runs:
            raise SimulationError("one seed per current trace required")
        batched = {"batched": n_runs} if n_runs > 1 else {}
        with obs.span("pdn.simulate", samples=int(currents.size), **batched):
            obs.increment("repro_pdn_samples_total", int(currents.size))
            # zi is linear in the DC operating point: scale the unit
            # initial condition by each row's first sample.
            zi = self._zi_unit[:, None, :] * currents[None, :, 0, None]
            response, _ = signal.sosfilt(
                self._sos, currents, axis=-1, zi=zi
            )
            voltage = self._network.nominal_voltage + response
            if include_ripple and self._vrm is not None:
                for index in range(n_runs):
                    voltage[index] += self._vrm.ripple(
                        n_samples,
                        self._dt,
                        self._network.nominal_voltage,
                        seed=seeds[index],
                    )
        return [
            VoltageTrace(
                voltage[index], self._dt, self._network.nominal_voltage
            )
            for index in range(n_runs)
        ]

    def step_response(
        self, low_amps: float, high_amps: float, n_samples: int = 4096
    ) -> VoltageTrace:
        """Voltage response to a single low→high current step (no ripple)."""
        from repro.pdn.stimulus import current_step

        stimulus = current_step(
            n_samples, low_amps, high_amps, step_at=n_samples // 8
        )
        return self.simulate(stimulus, include_ripple=False)

    # ------------------------------------------------------------------
    # Reference path (for validation)
    # ------------------------------------------------------------------
    def simulate_reference(self, current_amps: np.ndarray) -> VoltageTrace:
        """Trapezoidal integration of the full state-space model.

        Orders of magnitude slower than :meth:`simulate` (Python loop) but
        independent of the zpk/SOS machinery; used by tests to validate the
        fast path.  No VRM ripple is added.
        """
        current = np.asarray(current_amps, dtype=float)
        if current.ndim != 1 or current.size == 0:
            raise SimulationError("current trace must be a non-empty 1-D array")
        a, b, c, d = self._network.state_space()
        n_states = a.shape[0]
        identity = np.eye(n_states)
        half = self._dt / 2.0
        lhs = np.linalg.inv(identity - half * a)
        propagate = lhs @ (identity + half * a)
        inject = lhs @ (half * b)

        v_source = self._network.nominal_voltage
        state = self._network.dc_operating_point(current[0])
        output = np.empty(current.size)
        u_prev = np.array([v_source, current[0]])
        output[0] = (c @ state + d @ u_prev).item()
        for k in range(1, current.size):
            u_next = np.array([v_source, current[k]])
            state = propagate @ state + inject @ (u_prev + u_next)
            output[k] = (c @ state + d @ u_next).item()
            u_prev = u_next
        return VoltageTrace(output, self._dt, v_source)

    def natural_frequencies_hz(self) -> np.ndarray:
        """Oscillatory eigenfrequencies of the network, ascending (Hz)."""
        a, _, _, _ = self._network.state_space()
        eigenvalues = np.linalg.eigvals(a)
        freqs = np.abs(eigenvalues.imag) / (2.0 * np.pi)
        return np.sort(freqs[freqs > 0.0])
