"""The Weierstrass function against independent classical identities."""

import numpy as np
import pytest

from cocyclelab.elliptic import weierstrass_p
from oracles import invariants, p_derivative_cauchy


def test_laurent_expansion_near_zero():
    """wp(z) = 1/z^2 + g2/20 z^2 + g3/28 z^4 + O(z^6) with Eisenstein-series
    invariants computed by an independent q-series."""
    g2, g3 = invariants(1.0, 1.0)
    rng = np.random.default_rng(4)
    z = 0.01 * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    approx = 1.0 / z**2 + g2 / 20.0 * z**2 + g3 / 28.0 * z**4
    assert np.abs(weierstrass_p(z) - approx).max() < 1e-9


def test_square_lattice_g3_vanishes():
    g2, g3 = invariants(1.0, 1.0)
    assert abs(g3) < 1e-10 * abs(g2)


def test_double_periodicity():
    rng = np.random.default_rng(7)
    z = rng.uniform(0.1, 0.9, 25) + 1j * rng.uniform(-0.4, 0.4, 25)
    base = weierstrass_p(z, 1.0, 1.5)
    assert np.abs(weierstrass_p(z + 1.0, 1.0, 1.5) - base).max() < 1e-10 * np.abs(base).max()
    assert np.abs(weierstrass_p(z + 1.5j, 1.0, 1.5) - base).max() < 1e-10 * np.abs(base).max()


def test_evenness():
    rng = np.random.default_rng(9)
    z = rng.uniform(0.05, 0.95, 30) + 1j * rng.uniform(-0.45, 0.45, 30)
    assert np.abs(weierstrass_p(z) - weierstrass_p(-z)).max() < 1e-10 * np.abs(
        weierstrass_p(z)
    ).max()


def test_differential_equation():
    """wp'^2 = 4 wp^3 - g2 wp - g3, with wp' from a Cauchy-integral oracle."""
    g2, g3 = invariants(1.0, 1.0)
    for z0 in (0.31 + 0.17j, 0.52 - 0.23j, 0.18 + 0.41j):
        p = complex(weierstrass_p(np.array([z0]))[0])
        dp = p_derivative_cauchy(z0, 1.0, 1.0)
        lhs = dp**2
        rhs = 4 * p**3 - g2 * p - g3
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-12


def test_half_period_values_real_and_balanced():
    """e1 + e2 + e3 = 0 and each half-period value is real on a rectangular
    lattice."""
    lx, ly = 1.0, 1.5
    halves = np.array([lx / 2, 1j * ly / 2, lx / 2 + 1j * ly / 2])
    e = weierstrass_p(halves, lx, ly)
    assert np.abs(e.imag).max() < 1e-12 * np.abs(e.real).max()
    assert abs(e.sum()) < 1e-10 * np.abs(e).max()


def test_rectangular_lattice_laurent():
    lx, ly = 1.0, 1.5
    g2, g3 = invariants(lx, ly)
    rng = np.random.default_rng(12)
    z = 0.015 * np.exp(2j * np.pi * rng.uniform(0, 1, 30))
    approx = 1.0 / z**2 + g2 / 20.0 * z**2 + g3 / 28.0 * z**4
    assert np.abs(weierstrass_p(z, lx, ly) - approx).max() < 1e-8


def test_aspect_ratio_gate():
    with pytest.raises(ValueError):
        weierstrass_p(np.array([0.3 + 0.1j]), 1.0, 5.0)
    with pytest.raises(ValueError):
        invariants(1.0, 0.2)
