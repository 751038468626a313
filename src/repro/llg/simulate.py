"""High-level stochastic LLG simulations.

Provides ensemble switching-time simulation (the LLG counterpart of Sun's
``tw``), relaxation runs, and equilibrium sampling used by the
fluctuation-dissipation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import GYROMAGNETIC_RATIO, MU0
from ..errors import ParameterError, SimulationError
from ..validation import require_int_in_range, require_positive
from .integrator import HeunIntegrator
from .stt import slonczewski_field


def default_time_step(params, resolution=60.0):
    """A time step resolving the precession period by ``resolution``."""
    period = 2.0 * math.pi / (GYROMAGNETIC_RATIO * MU0 * params.hk)
    return period / resolution


def thermal_initial_tilt(params, rng, n, around=-1.0):
    """Initial states tilted thermally around ``mz = around``.

    Draws transverse components from the equilibrium Gaussian
    ``<mx^2> = 1/(2 Delta)`` — the standard way to seed STT switching runs
    (a perfectly aligned macrospin feels zero torque).
    """
    sigma = math.sqrt(1.0 / (2.0 * params.delta))
    mx = sigma * rng.standard_normal(n)
    my = sigma * rng.standard_normal(n)
    mz = np.sign(around) * np.sqrt(np.clip(1.0 - mx**2 - my**2, 0.0, 1.0))
    return np.stack([mx, my, mz], axis=-1)


@dataclass
class SwitchingResult:
    """Outcome of an ensemble switching simulation.

    Attributes
    ----------
    times:
        Switching times [s] of the runs that switched.
    n_runs:
        Ensemble size.
    n_switched:
        How many runs crossed the detection threshold.
    """

    times: np.ndarray
    n_runs: int
    n_switched: int

    @property
    def switched_fraction(self):
        """Fraction of the ensemble that switched."""
        return self.n_switched / self.n_runs

    @property
    def mean_time(self):
        """Mean switching time [s] over the switched runs."""
        if self.n_switched == 0:
            raise SimulationError("no run switched; cannot average")
        return float(np.mean(self.times))


class SwitchingSimulation:
    """STT switching of an ensemble of macrospins.

    Parameters
    ----------
    params:
        :class:`~repro.llg.macrospin.MacrospinParameters`.
    current:
        Charge current [A]; positive drives AP -> P.
    hz_applied:
        Constant out-of-plane stray/applied field [A/m].
    dt:
        Time step [s] (default: precession period / 60).
    thermal:
        Include the thermal field (default True).
    """

    def __init__(self, params, current, hz_applied=0.0, dt=None,
                 thermal=True):
        self.params = params
        self.current = float(current)
        self.hz_applied = float(hz_applied)
        self.dt = default_time_step(params) if dt is None else float(dt)
        require_positive(self.dt, "dt")
        self.thermal = thermal

    def _integrator(self):
        a_j = slonczewski_field(
            self.current, self.params.eta, self.params.ms,
            self.params.volume)
        h_applied = np.array([0.0, 0.0, self.hz_applied])
        return HeunIntegrator(self.params, self.dt, h_applied=h_applied,
                              a_j=a_j, thermal=self.thermal)

    def run(self, n_runs=64, max_time=100.0e-9, threshold=0.5, rng=None,
            initial_mz=-1.0):
        """Integrate ``n_runs`` macrospins until they cross ``threshold``.

        Parameters
        ----------
        n_runs:
            Ensemble size.
        max_time:
            Simulation horizon [s]; runs that have not switched by then are
            counted as not switched.
        threshold:
            ``mz`` crossing that defines a switch (sign opposite to
            ``initial_mz``).
        rng:
            Seed or :class:`numpy.random.Generator`.
        initial_mz:
            -1 starts in AP (current drives AP->P), +1 starts in P.

        Returns
        -------
        SwitchingResult
        """
        n_runs = require_int_in_range(n_runs, "n_runs", 1, 1_000_000)
        require_positive(max_time, "max_time")
        if initial_mz not in (-1.0, 1.0, -1, 1):
            raise ParameterError(
                f"initial_mz must be -1 or +1, got {initial_mz!r}")
        rng = np.random.default_rng(rng)

        integrator = self._integrator()
        m = thermal_initial_tilt(self.params, rng, n_runs,
                                 around=float(initial_mz))
        n_steps = int(math.ceil(max_time / self.dt))
        switch_step = np.full(n_runs, -1, dtype=np.int64)
        active = np.ones(n_runs, dtype=bool)
        target_sign = -float(initial_mz)

        for step in range(n_steps):
            if not np.any(active):
                break
            m[active] = integrator.step(m[active], rng)
            crossed = active & (target_sign * m[:, 2] >= threshold)
            switch_step[crossed] = step + 1
            active &= ~crossed

        switched = switch_step > 0
        times = switch_step[switched].astype(float) * self.dt
        return SwitchingResult(times=times, n_runs=n_runs,
                               n_switched=int(np.sum(switched)))


def relax(params, m0, duration, rng=None, hz_applied=0.0, thermal=False,
          dt=None):
    """Relax a state for ``duration`` seconds (no current).

    Returns the final magnetization; with ``thermal=False`` this shows the
    deterministic damped motion toward the easy axis.
    """
    require_positive(duration, "duration")
    dt = default_time_step(params) if dt is None else float(dt)
    rng = np.random.default_rng(rng)
    integrator = HeunIntegrator(
        params, dt, h_applied=np.array([0.0, 0.0, float(hz_applied)]),
        a_j=0.0, thermal=thermal)
    n_steps = int(math.ceil(duration / dt))
    m, _ = integrator.run(np.asarray(m0, dtype=float), n_steps, rng)
    return m


def equilibrium_ensemble(params, n_samples=512, burn_in_time=2.0e-9,
                         sample_time=2.0e-9, n_snapshots=8, rng=None,
                         dt=None, around=1.0):
    """Sample thermal-equilibrium magnetizations around one easy direction.

    Runs ``n_samples`` independent macrospins with the thermal field only,
    discards ``burn_in_time``, then collects ``n_snapshots`` snapshots over
    ``sample_time``. Returns an array of shape
    (n_snapshots * n_samples, 3) for statistics such as the equipartition
    check ``<mx^2> = 1/(2 Delta)``.
    """
    rng = np.random.default_rng(rng)
    dt = default_time_step(params) if dt is None else float(dt)
    integrator = HeunIntegrator(params, dt, thermal=True)

    m = thermal_initial_tilt(params, rng, n_samples, around=around)
    burn_steps = int(math.ceil(burn_in_time / dt))
    m, _ = integrator.run(m, burn_steps, rng)

    snapshots = []
    steps_between = max(1, int(math.ceil(sample_time / dt / n_snapshots)))
    for _ in range(n_snapshots):
        m, _ = integrator.run(m, steps_between, rng)
        snapshots.append(m.copy())
    return np.concatenate(snapshots, axis=0)
