"""Exact magnetic field of a circular current loop.

Closed-form solution in terms of complete elliptic integrals K(m) and E(m)
(Smythe, *Static and Dynamic Electricity*; equivalent to integrating the
Biot-Savart law of the paper's Eq. (1) exactly).

For a loop of radius ``a`` carrying current ``I`` in the z=0 plane, centered
on the origin, the H-field at cylindrical coordinates (rho, z) is::

    m_ell  = 4 a rho / ((a + rho)^2 + z^2)
    Hz  = I / (2 pi sqrt((a+rho)^2+z^2)) * [K + E (a^2-rho^2-z^2)/((a-rho)^2+z^2)]
    Hrho = I z / (2 pi rho sqrt((a+rho)^2+z^2)) * [-K + E (a^2+rho^2+z^2)/((a-rho)^2+z^2)]

A positive current produces +z field at the loop center (right-hand rule);
with the bound-current model this means the field inside the loop is
parallel to the layer magnetization.

The field diverges on the wire itself (rho = a, z = 0); evaluation there
returns ``inf`` values rather than raising, mirroring the physics.

K and E come from :func:`repro.fields.elliptic.ellipke`, a numpy port of
the Cephes ``ellpk``/``ellpe`` coefficients that takes its logarithm
from libm (``math.log``, not ``np.log``), so it returns exactly what
``scipy.special.ellipk``/``ellipe`` do and loads no scipy.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..validation import require_positive
from .elliptic import ellipke

#: Fraction of the loop radius below which a point counts as on-axis.
_AXIS_RHO_TOLERANCE = 1.0e-12


def loop_field_on_axis(current, radius, z):
    """On-axis H-field [A/m] of a circular loop (z component only).

    ``Hz = I a^2 / (2 (a^2 + z^2)^(3/2))``. Vectorized over ``z``.
    """
    require_positive(radius, "radius")
    z = np.asarray(z, dtype=float)
    a2 = radius * radius
    return current * a2 / (2.0 * np.power(a2 + z * z, 1.5))


def loop_field_analytic_many(currents, radii, centers, points,
                             sum_sources=True):
    """H-field [A/m] of many circular loops at many points, broadcasted.

    Evaluates all M loops at all N points in one elliptic-integral call —
    the vectorized backend behind
    :meth:`repro.fields.superposition.LoopCollection.field`. The per-loop
    :func:`loop_field_analytic` path is retained as the reference
    implementation for parity tests.

    Parameters
    ----------
    currents, radii:
        Arrays of shape (M,) with the loop currents [A] and radii [m]
        (radii > 0; currents may be 0 or negative).
    centers:
        Array of shape (M, 3): loop centers [m]. Loops are z-normal.
    points:
        Array of shape (N, 3): evaluation points [m] in the lab frame.
    sum_sources:
        If True (default) return the superposed field of shape (N, 3);
        otherwise the per-source fields of shape (M, N, 3).

    Returns
    -------
    numpy.ndarray
        (N, 3) total H vectors, or (M, N, 3) with ``sum_sources=False``.
    """
    currents = np.asarray(currents, dtype=float)
    radii = np.asarray(radii, dtype=float)
    centers = np.asarray(centers, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParameterError(
            f"points must have shape (N, 3), got {pts.shape}")
    if currents.ndim != 1 or radii.shape != currents.shape:
        raise ParameterError(
            "currents and radii must be 1-D arrays of equal length, got "
            f"{currents.shape} and {radii.shape}")
    if centers.shape != (currents.shape[0], 3):
        raise ParameterError(
            f"centers must have shape (M, 3), got {centers.shape}")
    if np.any(radii <= 0) or not np.all(np.isfinite(radii)):
        raise ParameterError("radii must be finite and > 0")
    n_points = pts.shape[0]
    if currents.size == 0:
        if sum_sources:
            return np.zeros((n_points, 3))
        return np.zeros((0, n_points, 3))

    # Loop-frame coordinates, shape (M, N).
    local = pts[np.newaxis, :, :] - centers[:, np.newaxis, :]
    x, y, z = local[..., 0], local[..., 1], local[..., 2]
    rho = np.hypot(x, y)
    a = radii[:, np.newaxis]
    cur = currents[:, np.newaxis]

    denom_plus = (a + rho) ** 2 + z * z
    denom_minus = (a - rho) ** 2 + z * z
    m_ell = 4.0 * a * rho / denom_plus
    # On the axis (rho = 0) the Hz expression reduces exactly to the
    # on-axis formula (K = E = pi/2), so only Hrho needs a guard; on the
    # wire itself (m_ell = 1) the field diverges to inf, as physics says.
    k_int, e_int = ellipke(m_ell)
    with np.errstate(divide="ignore", invalid="ignore"):
        pref = cur / (2.0 * np.pi * np.sqrt(denom_plus))
        hz = pref * (k_int + e_int * (a * a - rho * rho - z * z)
                     / denom_minus)
        hrho = np.where(
            rho > _AXIS_RHO_TOLERANCE * a,
            (pref * z / np.where(rho > 0, rho, 1.0))
            * (-k_int + e_int * (a * a + rho * rho + z * z)
               / denom_minus),
            0.0)

    safe_rho = np.where(rho > 0, rho, 1.0)
    out = np.empty((currents.shape[0], n_points, 3))
    out[..., 0] = hrho * x / safe_rho
    out[..., 1] = hrho * y / safe_rho
    out[..., 2] = hz
    return out.sum(axis=0) if sum_sources else out


def loop_field_analytic(current, radius, points):
    """H-field [A/m] of a circular current loop at arbitrary points.

    Parameters
    ----------
    current:
        Loop current [A] (sign sets the field direction via the right-hand
        rule; may be 0).
    radius:
        Loop radius [m], > 0.
    points:
        Array of shape (N, 3) or (3,) with Cartesian coordinates [m] in the
        loop frame (loop in z=0 plane, centered at origin).

    Returns
    -------
    numpy.ndarray
        H vectors, shape (N, 3) (or (3,) if a single point was given).
    """
    require_positive(radius, "radius")
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParameterError(
            f"points must have shape (3,) or (N, 3), got {pts.shape}")

    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho = np.hypot(x, y)
    out = np.zeros_like(pts)

    on_axis = rho <= _AXIS_RHO_TOLERANCE * radius
    off_axis = ~on_axis

    if np.any(on_axis):
        out[on_axis, 2] = loop_field_on_axis(current, radius, z[on_axis])

    if np.any(off_axis):
        rr = rho[off_axis]
        zz = z[off_axis]
        a = radius
        denom_plus = (a + rr) ** 2 + zz * zz
        denom_minus = (a - rr) ** 2 + zz * zz
        m_ell = 4.0 * a * rr / denom_plus
        # m_ell lies in [0, 1] by construction and equals 1 only on the
        # wire itself, where K = inf and the field diverges.
        k_int, e_int = ellipke(m_ell)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(denom_plus)
            pref = current / (2.0 * np.pi * root)
            hz = pref * (k_int + e_int * (a * a - rr * rr - zz * zz)
                         / denom_minus)
            hrho = (pref * zz / rr) * (-k_int + e_int
                                       * (a * a + rr * rr + zz * zz)
                                       / denom_minus)
        # Resolve radial direction back to Cartesian components.
        cos_phi = np.where(rr > 0, x[off_axis] / rr, 0.0)
        sin_phi = np.where(rr > 0, y[off_axis] / rr, 0.0)
        out[off_axis, 0] = hrho * cos_phi
        out[off_axis, 1] = hrho * sin_phi
        out[off_axis, 2] = hz

    return out[0] if single else out
