"""Exact statistics of the inter-cell field over random data.

Worst-case analysis (NP8 = 0/255) bounds the coupling impact; real arrays
hold *data*, and for random data the neighborhood counts are binomial.
Because the victim field is linear in the neighbor signs,

``Hz = fixed + (4 - 2 n_d) k_d + (4 - 2 n_g) k_g``,
``n_d ~ Binomial(4, p)``, ``n_g ~ Binomial(4, p)``

the full probability mass function of ``Hz_inter`` is exact and cheap —
25 atoms. These statistics feed data-aware retention and write budgets:
the expected failure rate of an array storing random data, versus the
worst-case bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..device.mtj import MTJDevice, MTJState
from ..device.retention import flip_rate
from ..errors import ParameterError
from ..validation import require_fraction, require_positive
from .coupling import InterCellCoupling
from .victim import VictimAnalysis


def _binomial_pmf(n, p):
    """PMF of Binomial(n, p) as an array of length n+1."""
    return np.array([
        math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        for k in range(n + 1)
    ])


@dataclass(frozen=True)
class FieldDistribution:
    """Discrete distribution of ``Hz_inter`` at the victim.

    Attributes
    ----------
    values:
        Field atoms [A/m], ascending.
    probabilities:
        Matching probabilities (sum to 1).
    """

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    @property
    def mean(self):
        """Expected field [A/m]."""
        return float(np.dot(self.values, self.probabilities))

    @property
    def std(self):
        """Standard deviation [A/m]."""
        mean = self.mean
        var = float(np.dot(
            (np.asarray(self.values) - mean) ** 2, self.probabilities))
        return math.sqrt(max(var, 0.0))

    @property
    def support(self):
        """(min, max) field [A/m]."""
        return (self.values[0], self.values[-1])

    def expectation(self, fn):
        """Expected value of ``fn(Hz)`` over the distribution."""
        return float(sum(p * fn(v)
                         for v, p in zip(self.values,
                                         self.probabilities)))


def pattern_field_distribution(coupling, p_one=0.5):
    """Exact ``Hz_inter`` distribution for i.i.d. Bernoulli data.

    Parameters
    ----------
    coupling:
        :class:`~repro.arrays.coupling.InterCellCoupling`.
    p_one:
        Probability that a neighbor stores 1 (AP). 0.5 is random data;
        0/1 recover the worst/best corners.

    Returns
    -------
    FieldDistribution
    """
    if not isinstance(coupling, InterCellCoupling):
        raise ParameterError(
            f"coupling must be InterCellCoupling, got {type(coupling)!r}")
    require_fraction(p_one, "p_one")
    kernels = coupling.kernels()
    pmf_direct = _binomial_pmf(4, p_one)
    pmf_diag = _binomial_pmf(4, p_one)

    atoms = {}
    for n_d in range(5):
        for n_g in range(5):
            value = (kernels.pattern_independent
                     + (4 - 2 * n_d) * kernels.fl_direct
                     + (4 - 2 * n_g) * kernels.fl_diagonal)
            prob = pmf_direct[n_d] * pmf_diag[n_g]
            key = round(value, 6)
            atoms[key] = atoms.get(key, 0.0) + prob

    # Drop zero-probability atoms (degenerate p_one = 0 or 1 cases).
    ordered = sorted((v, p) for v, p in atoms.items() if p > 1e-300)
    values = tuple(v for v, _ in ordered)
    probs = tuple(p for _, p in ordered)
    total = sum(probs)
    probs = tuple(p / total for p in probs)
    return FieldDistribution(values=values, probabilities=probs)


def expected_retention_failure_rate(device, pitch, interval, p_one=0.5,
                                    state=MTJState.P):
    """Expected per-bit retention failure probability under random data.

    Averages the Neel-Arrhenius failure probability over the exact
    neighborhood-field distribution — the data-aware counterpart of the
    worst-case NP8 = 0 analysis.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice`.
    pitch:
        Array pitch [m].
    interval:
        Retention interval [s].
    p_one:
        Data distribution (0.5 = random).
    state:
        Stored state of the victim bit.
    """
    if not isinstance(device, MTJDevice):
        raise ParameterError(
            f"device must be an MTJDevice, got {type(device)!r}")
    require_positive(interval, "interval")
    coupling = InterCellCoupling(device.stack, pitch)
    distribution = pattern_field_distribution(coupling, p_one)
    intra = device.intra_stray_field()
    f0 = device.params.attempt_frequency

    def bit_failure(hz_inter):
        delta = device.delta(state, intra + hz_inter)
        return -math.expm1(-flip_rate(delta, f0) * interval)

    return distribution.expectation(bit_failure)


def worst_case_overestimate(device, pitch, interval, p_one=0.5,
                            state=MTJState.P):
    """Ratio of worst-case to data-averaged retention failure rate.

    How pessimistic the NP8 = 0 bound is for an array holding random
    data: a factor of a few when the coupling spread is small, large when
    Psi is big.
    """
    victim = VictimAnalysis(device, pitch)
    from .pattern import ALL_P
    worst_delta = victim.delta(state, ALL_P)
    worst = -math.expm1(
        -flip_rate(worst_delta, device.params.attempt_frequency)
        * interval)
    average = expected_retention_failure_rate(device, pitch, interval,
                                              p_one, state)
    if average <= 0.0:
        return math.inf
    return worst / average
