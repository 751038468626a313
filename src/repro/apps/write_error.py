"""Write-error-rate model for STT writes under stray fields.

Sun's precessional picture (paper Eq. 3) has more in it than the mean
switching time: the switching time of one attempt is set by the initial
thermal angle ``theta_0`` of the FL,

``t_sw = (1 / 2r) * ln( (pi/2)^2 / theta_0^2 )``,

with the angle growing exponentially at rate
``r = muB P Im / (e m (1 + P^2))``. Averaging over the equilibrium
distribution ``P(theta_0^2) = Delta * exp(-Delta * theta_0^2)`` recovers
Eq. 3 *exactly* (the ``C + ln(pi^2 Delta / 4)`` prefactor is that
average). Keeping the full distribution instead of the mean yields the
write-error rate for a pulse of width ``t_p``::

    WER(t_p) = P(t_sw > t_p) = 1 - exp( -Delta (pi/2)^2 exp(-2 r t_p) )

This module exposes that model bound to a device, including the stray-
field dependence through ``Ic`` (Eq. 2), and its inverse — the pulse
width needed to hit a target WER — which is how the paper's "a longer
pulse is required to avoid write failure in the worst case (NP8 = 0)"
becomes a number.
"""

from __future__ import annotations

import math

import numpy as np

from ..arrays.pattern import ALL_P
from ..arrays.victim import VictimAnalysis
from ..device.mtj import MTJDevice, MTJState
from ..errors import ParameterError
from ..validation import require_in_range, require_positive


class WriteErrorModel:
    """Write-error statistics of one device under stray fields.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice`.
    """

    def __init__(self, device):
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        self.device = device

    def _angle_rate(self, vp, hz_stray, initial_state):
        """The exponential angle-growth rate ``r`` [1/s]; <= 0 below Ic."""
        direction = ("AP->P" if initial_state is MTJState.AP
                     else "P->AP")
        ic = self.device.ic(direction, hz_stray)
        sun = self.device.sun_model()
        im = sun.overdrive_current(vp, ic,
                                   initial_state=initial_state.value)
        # SunModel.rate_coefficient folds the (C + ln(pi^2 D/4)) average
        # over initial angles into 1/tw; unfold it to get the bare
        # exponential angle-growth rate r with <t> = (C + ln..)/(2r).
        from ..constants import EULER_GAMMA
        log_term = EULER_GAMMA + math.log(
            math.pi * math.pi * self.device.params.delta0 / 4.0)
        return 0.5 * sun.rate_coefficient * log_term * im

    def wer(self, t_pulse, vp, hz_stray=0.0, initial_state=MTJState.AP):
        """Write-error rate for a pulse of ``t_pulse`` seconds at ``vp``.

        Returns 1.0 below the switching threshold (the write never
        completes by precession). Vectorized over ``t_pulse``.
        """
        require_positive(vp, "vp")
        t_pulse = np.asarray(t_pulse, dtype=float)
        if np.any(t_pulse <= 0):
            raise ParameterError("t_pulse must be > 0")
        rate = self._angle_rate(vp, hz_stray, initial_state)
        if rate <= 0.0:
            result = np.ones_like(t_pulse)
            return float(result) if result.ndim == 0 else result
        delta = self.device.params.delta0
        exponent = (delta * (math.pi / 2.0) ** 2
                    * np.exp(-2.0 * rate * t_pulse))
        result = -np.expm1(-exponent)
        return float(result) if result.ndim == 0 else result

    def pulse_for_wer(self, target_wer, vp, hz_stray=0.0,
                      initial_state=MTJState.AP):
        """Pulse width [s] achieving ``target_wer`` at voltage ``vp``.

        Analytic inverse of :meth:`wer`::

            t_p = (1 / 2r) * ln( Delta (pi/2)^2 / -ln(1 - WER) )
        """
        require_in_range(target_wer, "target_wer", 0.0, 1.0,
                         inclusive=False)
        rate = self._angle_rate(vp, hz_stray, initial_state)
        if rate <= 0.0:
            raise ParameterError(
                f"vp={vp} V is below the switching threshold; no pulse "
                "width achieves the target")
        delta = self.device.params.delta0
        needed = -math.log1p(-target_wer)
        argument = delta * (math.pi / 2.0) ** 2 / needed
        if argument <= 1.0:
            # Already below target at infinitesimal pulses (huge WER
            # target) — not meaningful, report the shortest sensible pulse.
            return 0.0
        return math.log(argument) / (2.0 * rate)

    def mean_switching_time(self, vp, hz_stray=0.0,
                            initial_state=MTJState.AP):
        """Mean switching time [s] — must equal the device's Sun tw."""
        return self.device.switching_time(vp, hz_stray,
                                          initial_state=initial_state)

    def sample_wer(self, t_pulse, vp, hz_stray=0.0,
                   initial_state=MTJState.AP, n_samples=200_000,
                   rng=None):
        """Monte-Carlo WER estimate over ``n_samples`` write attempts.

        Every attempt at one stress corner is an exchangeable Bernoulli
        event whose probability is the closed form :meth:`wer` (the
        same binomial-count trade as the memsys sampler, see
        :mod:`repro.memsys.sampling`), so the failure *count* is one
        ``Binomial(n, wer)`` draw: O(1) per corner instead of
        O(n_samples), which is what lets the figure-level stress
        corners sample at production targets (WER <= 1e-6).
        ``tests/test_apps_write_error.py`` keeps the per-sample
        initial-angle estimator as the distributional reference it is
        checked against.
        """
        require_positive(t_pulse, "t_pulse")
        require_positive(n_samples, "n_samples")
        rate = self._angle_rate(vp, hz_stray, initial_state)
        if rate <= 0.0:
            return 1.0
        rng = np.random.default_rng(rng)
        p = self.wer(t_pulse, vp, hz_stray, initial_state)
        return float(rng.binomial(int(n_samples), p) / int(n_samples))

    def worst_case_pulse(self, target_wer, vp, pitch):
        """Pulse width [s] covering the worst neighborhood at ``pitch``.

        The worst case for an AP->P write is NP8 = 0 (paper Fig. 5): the
        inter-cell field is most negative there, maximizing Ic(AP->P).
        """
        victim = VictimAnalysis(self.device, pitch)
        hz_worst = victim.hz_total(ALL_P)
        return self.pulse_for_wer(target_wer, vp, hz_worst)

    def pattern_pulse_penalty(self, target_wer, vp, pitch):
        """Extra pulse width [s] the NP8=0 corner costs vs NP8=255."""
        victim = VictimAnalysis(self.device, pitch)
        from ..arrays.pattern import ALL_AP
        t_worst = self.pulse_for_wer(target_wer, vp,
                                     victim.hz_total(ALL_P))
        t_best = self.pulse_for_wer(target_wer, vp,
                                    victim.hz_total(ALL_AP))
        return t_worst - t_best
