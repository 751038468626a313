"""Complete elliptic integrals K(m) and E(m), bit-identical to scipy.

A numpy port of the Cephes Math Library routines ``ellpk`` and ``ellpe``
(Stephen L. Moshier), the routines behind :func:`scipy.special.ellipk`
and :func:`scipy.special.ellipe`. It uses the published Cephes
coefficients and the same order of float64 operations, so every result
equals scipy's bit for bit, and the seeded outputs built on the loop
fields do not move. Two details carry the exactness:

* The logarithm comes from the C library through :func:`math.log`.
  numpy's vectorised ``np.log`` may differ from libm's ``log`` by one
  ulp, and that ulp reaches K and E.
* Both functions work in Cephes' own argument ``p = 1 - m``. For
  ``m < 0`` they apply Cephes' reciprocal transforms to ``p`` itself:
  ``K = ellpk(1/p) / sqrt(p)`` and ``E = ellpe(1 - 1/p) * sqrt(p)``.

Domain, as in scipy: ``m > 1`` and nan give nan; ``m = 1`` gives
``K = inf`` and ``E = 1``; ``m = -inf`` gives ``K = 0`` and ``E = inf``.
"""

from __future__ import annotations

import math

import numpy as np

#: Cephes MACHEP, 2**-53: below it K switches to its log asymptote.
_MACHEP = 1.11022302462515654042e-16
#: log(4), the constant of K's asymptote ``log 4 - log(p) / 2``.
_LOG4 = 1.3862943611198906188e0

# K(m) = P(p) - log(p) Q(p), ellpk.c.
_K_P = (1.37982864606273237150e-4, 2.28025724005875567385e-3,
        7.97404013220415179367e-3, 9.85821379021226008714e-3,
        6.87489687449949877925e-3, 6.18901033637687613229e-3,
        8.79078273952743772254e-3, 1.49380448916805252718e-2,
        3.08851465246711995998e-2, 9.65735902811690126535e-2,
        1.38629436111989062502e0)
_K_Q = (2.94078955048598507511e-5, 9.14184723865917226571e-4,
        5.94058303753167793257e-3, 1.54850516649762399335e-2,
        2.39089602715924892727e-2, 3.01204715227604046988e-2,
        3.73774314173823228969e-2, 4.88280347570998239232e-2,
        7.03124996963957469739e-2, 1.24999999999870820058e-1,
        4.99999999999999999821e-1)
# E(m) = P(p) - log(p) p Q(p), ellpe.c.
_E_P = (1.53552577301013293365e-4, 2.50888492163602060990e-3,
        8.68786816565889628429e-3, 1.07350949056076193403e-2,
        7.77395492516787092951e-3, 7.58395289413514708519e-3,
        1.15688436810574127319e-2, 2.18317996015557253103e-2,
        5.68051945617860553470e-2, 4.43147180560990850618e-1,
        1.00000000000000000299e0)
_E_Q = (3.27954898576485872656e-5, 1.00962792679356715133e-3,
        6.50609489976927491433e-3, 1.68862163993311317300e-2,
        2.61769742454493659583e-2, 3.34833904888224918614e-2,
        4.27180926518931511717e-2, 5.85936634471101055642e-2,
        9.37499997197644278445e-2, 2.49999999999888314361e-1)

# The four polynomials as rows, one Horner step per column. E's Q has
# one coefficient fewer; its leading 0 makes the first step
# ``0 * p + q0 = q0`` exactly, so the rows stay in lockstep.
_COEFS = np.array([_K_P, _K_Q, _E_P, (0.0,) + _E_Q]).T[:, :, np.newaxis]

_LIBM_LOG = np.frompyfunc(math.log, 1, 1)


def _log(x):
    """libm log of a 1-D array: ``-inf`` at 0, nan below 0 and at nan."""
    positive = x > 0.0
    if positive.all():
        return _LIBM_LOG(x).astype(float)
    out = np.where(x == 0.0, -np.inf, np.nan)
    out[positive] = _LIBM_LOG(x[positive]).astype(float)
    return out


def ellipke(m):
    """Complete elliptic integrals ``(K(m), E(m))`` of parameter ``m``.

    Bit-identical to ``(scipy.special.ellipk(m), scipy.special.ellipe(m))``
    for every float64 ``m``. For ``m >= 0`` the libm log of ``1 - m`` is
    taken once per element and shared by K and E. Returns two float
    arrays of the shape of ``m`` (0-d for a scalar) and emits no
    floating-point warnings.
    """
    m = np.asarray(m, dtype=float)
    shape = m.shape
    p = 1.0 - m.ravel()
    with np.errstate(all="ignore"):
        negative = p > 1.0
        flip = negative.any()
        if flip:
            # m < 0: ellpk(1/p) / sqrt(p) and ellpe(1 - 1/p) * sqrt(p),
            # where ellpe first maps its argument back to 1 - (1 - 1/p).
            inverse = 1.0 / p
            p_k = np.where(negative, inverse, p)
            p_e = np.where(negative, 1.0 - (1.0 - inverse), p)
            x = np.stack((p_k, p_k, p_e, p_e))
            log_k, log_e = _log(p_k), _log(p_e)
        else:
            p_k = p_e = x = p
            log_k = log_e = _log(p)
        poly = np.empty((4, p.size))
        poly[...] = _COEFS[0]
        for coef in _COEFS[1:]:
            np.multiply(poly, x, out=poly)
            np.add(poly, coef, out=poly)
        k = poly[0] - log_k * poly[1]
        e = poly[2] - log_e * (p_e * poly[3])
        if not (p_k > _MACHEP).all():
            # p_k in (0, MACHEP] takes the asymptote; p_k == 0 (m == 1)
            # gives log 4 + inf = inf there, as Cephes returns.
            k = np.where(p_k > _MACHEP, k, _LOG4 - 0.5 * log_k)
        if not (p_e > 0.0).all():
            # Cephes' ellpe returns exactly 1 at p == 0.
            e = np.where(p_e == 0.0, 1.0, e)
        if flip:
            root = np.sqrt(p)
            k = np.where(negative, k / root, k)
            k[p == np.inf] = 0.0
            e = np.where(negative, e * root, e)
    return k.reshape(shape), e.reshape(shape)
