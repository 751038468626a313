"""Bit parity of the numpy K(m), E(m) port with scipy.special.

:func:`repro.fields.elliptic.ellipke` replaces ``scipy.special.ellipk``
and ``ellipe`` on the compute path, and every seeded output built on
the loop fields (kernels, memsys digests, goldens) depends on it being
exact. So the comparison here is bitwise, with nan matching nan, never
a tolerance. scipy stays installed for ``characterization`` and serves
as the reference.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from repro.fields import loop_analytic
from repro.fields.elliptic import ellipke


def _assert_bit_equal(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, e = ellipke(m)
    want_k, want_e = ellipk(m), ellipe(m)
    assert k.shape == np.shape(m) and e.shape == np.shape(m)
    assert np.array_equal(k, want_k, equal_nan=True)
    assert np.array_equal(e, want_e, equal_nan=True)


def test_uniform_grid_on_unit_interval():
    _assert_bit_equal(np.random.default_rng(2011).uniform(0.0, 1.0, 1_000_000))


def test_near_one_crosses_the_machep_branch():
    # 1 - 10**-u reaches 1 - 2**-53 (p == MACHEP) and exactly 1.
    _assert_bit_equal(1.0 - 10.0 ** -np.linspace(0.0, 17.0, 200_001))


def test_near_zero():
    _assert_bit_equal(10.0 ** -np.linspace(0.0, 300.0, 200_001))


def test_negative_parameters():
    rng = np.random.default_rng(97)
    _assert_bit_equal(-np.logspace(-300.0, 10.0, 200_001))
    _assert_bit_equal(-rng.uniform(0.0, 5.0, 100_000))
    _assert_bit_equal(-rng.uniform(0.0, 1e10, 100_000))


def test_exact_end_points():
    k, e = ellipke(np.array([0.0, 1.0]))
    assert k[0] == e[0] == np.pi / 2
    assert k[1] == np.inf and e[1] == 1.0
    _assert_bit_equal(np.array([0.0, -0.0, 1.0, 2.0 ** -53,
                                1.0 - 2.0 ** -53, 5e-324, -5e-324]))


def test_out_of_domain_and_nan_give_nan():
    m = np.array([1.0 + 2.0 ** -52, 1.5, 1e300, np.inf, np.nan])
    k, e = ellipke(m)
    assert np.isnan(k).all() and np.isnan(e).all()
    _assert_bit_equal(m)
    # Mixed with regular entries, the edges stay local.
    _assert_bit_equal(np.array([0.25, np.nan, 0.5, 2.0, 1.0, 0.75]))


def test_infinite_and_huge_negative_parameters():
    k, e = ellipke(np.array([-np.inf]))
    assert k[0] == 0.0 and e[0] == np.inf
    _assert_bit_equal(np.array([-np.inf, -1.7e308, -1e300, -1e16,
                                -9.1e15, -0.5]))


@pytest.mark.parametrize("m", [np.float64(0.3), np.array(0.9),
                               np.array(-2.0), np.array(1.0)])
def test_zero_dimensional_input_keeps_its_shape(m):
    _assert_bit_equal(m)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
def test_empty_input_keeps_its_shape(shape):
    _assert_bit_equal(np.zeros(shape))


def test_nd_input_keeps_its_shape():
    m = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 4, 5))
    _assert_bit_equal(m)


def test_python_scalars_and_lists():
    _assert_bit_equal(0.5)
    _assert_bit_equal([0.0, 0.5, 1.0, -1.0])


def _scipy_ellipke(m):
    return ellipk(m), ellipe(m)


def _point_cloud():
    rng = np.random.default_rng(1549)
    pts = rng.uniform(-80e-9, 80e-9, size=(400, 3))
    # On-axis points and points on the wire (rho = a = 20 nm, z = 0).
    pts[:8, :2] = 0.0
    pts[8:12] = [[20e-9, 0.0, 0.0], [0.0, -20e-9, 0.0],
                 [20e-9, 0.0, 1e-9], [0.0, 0.0, 0.0]]
    return pts


def test_loop_fields_unchanged_by_the_port(monkeypatch):
    """Both loop-field paths are byte-identical to their scipy build."""
    rng = np.random.default_rng(43)
    n_loops = 17
    currents = rng.uniform(-2e-3, 2e-3, n_loops)
    radii = rng.uniform(5e-9, 30e-9, n_loops)
    centers = rng.uniform(-50e-9, 50e-9, (n_loops, 3))
    pts = _point_cloud()

    def evaluate():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return (
                loop_analytic.loop_field_analytic_many(
                    currents, radii, centers, pts),
                loop_analytic.loop_field_analytic_many(
                    currents, radii, centers, pts, sum_sources=False),
                loop_analytic.loop_field_analytic(1.5e-3, 20e-9, pts),
                loop_analytic.loop_field_analytic(-1e-3, 7e-9, pts[40]),
            )

    after = evaluate()
    monkeypatch.setattr(loop_analytic, "ellipke", _scipy_ellipke)
    before = evaluate()
    for new, old in zip(after, before):
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()
