"""Read-disturb analysis: the read current is a small write.

Every read drives a current through the MTJ; STT then *reduces* the
effective barrier of the state it destabilizes. In the thermal-activation
picture the disturb probability of one read of duration ``t_read`` is

``P = 1 - exp( -f0 t_read exp( -Delta_eff ) )``,
``Delta_eff = Delta * (1 - I_read / Ic)^2``   for ``I_read < Ic``

(the standard current-tilted barrier law, consistent with the library's
field-tilted hysteresis model). Stray fields enter twice: they shift
``Delta`` (Eq. 5) *and* ``Ic`` (Eq. 2), so the worst-case neighborhood
matters here too — a coupling effect the paper does not evaluate but its
models directly imply.
"""

from __future__ import annotations

import math

from ..device.mtj import MTJDevice, MTJState
from ..errors import ParameterError
from ..validation import require_positive


class ReadDisturbAnalysis:
    """Read-disturb statistics of one device under stray fields.

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

    def effective_delta(self, state, read_voltage, hz_stray=0.0):
        """Current-tilted barrier of ``state`` during a read.

        The read polarity is taken as the one that destabilizes ``state``
        (worst case). Returns 0 if the read current exceeds Ic.
        """
        require_positive(read_voltage, "read_voltage")
        params = self.device.params
        i_read = params.resistance.current(params.ecd, state.value,
                                           read_voltage)
        direction = "P->AP" if state is MTJState.P else "AP->P"
        ic = self.device.ic(direction, hz_stray)
        delta = self.device.delta(state, hz_stray)
        tilt = 1.0 - i_read / ic
        if tilt <= 0.0:
            return 0.0
        return delta * tilt * tilt

    def disturb_probability(self, state, read_voltage, t_read=10e-9,
                            hz_stray=0.0):
        """Probability that one read flips ``state``."""
        require_positive(t_read, "t_read")
        delta_eff = self.effective_delta(state, read_voltage, hz_stray)
        rate = self.device.params.attempt_frequency * math.exp(-delta_eff)
        return -math.expm1(-rate * t_read)

    def reads_to_failure(self, state, read_voltage, t_read=10e-9,
                         hz_stray=0.0, budget=1e-9):
        """Number of reads before the disturb budget is exhausted.

        ``budget`` is the acceptable cumulative flip probability; returns
        ``inf`` when a single-read probability underflows to zero.
        """
        p_one = self.disturb_probability(state, read_voltage, t_read,
                                         hz_stray)
        if p_one <= 0.0:
            return math.inf
        return budget / p_one

    def max_read_voltage(self, state, target_probability, t_read=10e-9,
                         hz_stray=0.0, v_bounds=(0.01, 1.0)):
        """Largest read voltage meeting a per-read disturb target.

        Bisection on the monotone map voltage -> disturb probability.
        """
        require_positive(target_probability, "target_probability")
        lo, hi = v_bounds
        if self.disturb_probability(state, lo, t_read,
                                    hz_stray) > target_probability:
            raise ParameterError(
                f"even {lo} V exceeds the disturb target; lower t_read "
                "or the target")
        if self.disturb_probability(state, hi, t_read,
                                    hz_stray) <= target_probability:
            return hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.disturb_probability(state, mid, t_read,
                                        hz_stray) > target_probability:
                hi = mid
            else:
                lo = mid
        return lo
