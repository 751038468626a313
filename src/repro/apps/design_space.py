"""Joint design-space exploration over device size and array pitch.

Combines everything the paper evaluates into one sweep: for each
(eCD, pitch) candidate, compute the areal density, the coupling factor
Psi, the Ic spread between neighborhood patterns, the low-voltage
switching-time penalty, and the worst-case retention Delta — the table a
memory architect actually trades off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..arrays.density import areal_density_gbit_per_mm2
from ..arrays.pattern import ALL_AP, ALL_P
from ..arrays.victim import VictimAnalysis
from ..core.psi import coupling_factor
from ..device.mtj import DeviceParameters, MTJDevice, MTJState
from ..errors import ParameterError
from ..sweep import SweepRunner, SweepSpec, executor_for_jobs
from ..validation import require_positive


@dataclass(frozen=True)
class DesignPoint:
    """One (eCD, pitch) evaluation of the design space.

    Field units: lengths [m], currents [A], times [s], density
    [Gbit/mm^2]; ``psi`` is dimensionless.
    """

    ecd: float
    pitch: float
    density_gbit_mm2: float
    psi: float
    ic_spread: float
    tw_penalty: float
    worst_delta: float

    @property
    def pitch_ratio(self):
        """Pitch in units of the device diameter."""
        return self.pitch / self.ecd

    def row(self):
        """Tuple view for tables (nm / uA / ns units)."""
        return (
            self.ecd * 1e9,
            self.pitch * 1e9,
            self.pitch_ratio,
            self.density_gbit_mm2,
            self.psi * 100.0,
            self.ic_spread * 1e6,
            self.tw_penalty * 1e9,
            self.worst_delta,
        )


#: Table headers matching :meth:`DesignPoint.row`.
DESIGN_HEADERS = (
    "eCD (nm)", "pitch (nm)", "ratio", "Gb/mm^2", "Psi (%)",
    "Ic spread (uA)", "tw penalty (ns)", "worst Delta",
)


class DesignSpaceExplorer:
    """Sweeps (eCD, pitch) candidates through the full coupling model.

    Parameters
    ----------
    base_params:
        :class:`~repro.device.mtj.DeviceParameters` template; the sweep
        re-targets its eCD per candidate (Hk/Delta0 kept as quoted, the
        paper's convention for its own pitch sweeps).
    probe_voltage:
        Write voltage [V] at which the tw penalty is evaluated.
    """

    def __init__(self, base_params, probe_voltage=0.85):
        if not isinstance(base_params, DeviceParameters):
            raise ParameterError(
                f"base_params must be DeviceParameters, got "
                f"{type(base_params)!r}")
        require_positive(probe_voltage, "probe_voltage")
        self.base_params = base_params
        self.probe_voltage = float(probe_voltage)

    def evaluate(self, ecd, pitch):
        """Evaluate one (eCD, pitch) candidate; returns a DesignPoint."""
        require_positive(ecd, "ecd")
        require_positive(pitch, "pitch")
        if pitch < ecd:
            raise ParameterError(
                f"pitch ({pitch}) below the device size ({ecd}): cells "
                "would overlap")
        device = MTJDevice(self.base_params.with_ecd(ecd))
        victim = VictimAnalysis(device, pitch)
        psi = coupling_factor(device.stack, pitch, device.params.hc)

        ic_lo, ic_hi = victim.ic_spread("AP->P")
        tw_np0 = victim.switching_time(self.probe_voltage, ALL_P)
        tw_np255 = victim.switching_time(self.probe_voltage, ALL_AP)
        tw_penalty = tw_np0 - tw_np255
        worst_delta = victim.delta(MTJState.P, ALL_P)

        return DesignPoint(
            ecd=float(ecd),
            pitch=float(pitch),
            density_gbit_mm2=areal_density_gbit_per_mm2(pitch),
            psi=float(psi),
            ic_spread=float(ic_hi - ic_lo),
            tw_penalty=float(tw_penalty),
            worst_delta=float(worst_delta),
        )

    def sweep(self, ecds, pitch_ratios, jobs=None, executor=None,
              progress=None):
        """Evaluate the cartesian grid of ``ecds`` x ``pitch_ratios``.

        Runs on the :mod:`repro.sweep` engine with ``executor``, else
        the :func:`~repro.sweep.runner.executor_for_jobs` pick.
        ``progress`` (a ``progress(done, total)`` callable) reports
        completed points and may raise
        :class:`~repro.errors.RunAborted` to cancel the sweep. Returns
        the DesignPoints in row-major (eCD-major) order, the same for
        every executor.
        """
        spec = SweepSpec.product(
            ecd=[float(e) for e in ecds],
            ratio=[float(r) for r in pitch_ratios])
        executor = executor or executor_for_jobs(jobs,
                                                 n_points=len(spec))
        func = partial(_design_point, self.base_params,
                       self.probe_voltage)
        runner = SweepRunner(func, executor=executor, jobs=jobs,
                             progress=progress)
        return list(runner.run(spec).values)


def _design_point(base_params, probe_voltage, ecd, ratio):
    """Sweep point function (module-level so process pools can pickle).

    Rebuilds a throwaway explorer per point — model construction is
    cheap now that kernels are memoized process-wide.
    """
    explorer = DesignSpaceExplorer(base_params,
                                   probe_voltage=probe_voltage)
    return explorer.evaluate(ecd, ratio * ecd)
