import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cocyclelab.backlund import check_unit, unit_residual
from cocyclelab.errors import NotUnit
from cocyclelab.lie3 import hat, inner, vee
from oracles import (
    SamplingTooCoarse,
    bracket,
    ell,
    hat_grid,
    polar_project,
    rotation_angle,
    so3_exp,
    so3_norm,
    su2_path_lift,
)

RNG = np.random.default_rng(42)


def test_hat_is_cross_product():
    """hat(v) w = v x w, the defining property."""
    v = RNG.normal(size=(500, 3))
    w = RNG.normal(size=(500, 3))
    got = np.einsum("nij,nj->ni", hat(v), w)
    assert np.abs(got - np.cross(v, w)).max() < 1e-14


def test_vee_inverts_hat():
    v = RNG.normal(size=(200, 3))
    assert np.abs(vee(hat(v)) - v).max() < 1e-15


def test_hat_intertwines_cross_and_bracket():
    a = RNG.normal(size=(300, 3))
    b = RNG.normal(size=(300, 3))
    assert np.abs(bracket(hat(a), hat(b)) - hat(np.cross(a, b))).max() < 1e-13


VECTORS = hnp.arrays(np.float64, (3,), elements=st.floats(-1e6, 1e6))


@settings(deadline=None)
@given(VECTORS, VECTORS)
def test_hat_vee_bracket_identities(a, b):
    """vee inverts hat exactly, hat is skew, and hat carries the cross
    product to the commutator up to rounding of the products."""
    assert np.array_equal(vee(hat(a)), a)
    assert np.array_equal(hat(a), -hat(a).T)
    err = np.abs(bracket(hat(a), hat(b)) - hat(np.cross(a, b))).max()
    assert err <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b) + 1e-300


def test_inner_matches_euclidean_dot():
    """<hat a, hat b> = a . b with the trace/2 pairing."""
    a = RNG.normal(size=(300, 3))
    b = RNG.normal(size=(300, 3))
    assert np.abs(inner(hat(a), hat(b)) - np.einsum("ni,ni->n", a, b)).max() < 1e-13


def test_double_bracket_identity():
    a = hat(RNG.normal(size=(1000, 3)))
    b = hat(RNG.normal(size=(1000, 3)))
    c = hat(RNG.normal(size=(1000, 3)))
    lhs = bracket(a, bracket(b, c))
    rhs = b * inner(a, c)[..., None, None] - c * inner(a, b)[..., None, None]
    assert np.abs(lhs - rhs).max() < 1e-13


def test_so3_norm():
    v = RNG.normal(size=(100, 3))
    assert np.abs(so3_norm(hat(v)) - np.linalg.norm(v, axis=-1)).max() < 1e-13


def test_unit_residual_and_check():
    """The unit check of a unit section's (3, 3, ny, nx) grid."""
    v = RNG.normal(size=(50, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    g = hat_grid(v.reshape(5, 10, 3))
    assert unit_residual(g) < 1e-14
    check_unit(g)
    with pytest.raises(NotUnit):
        check_unit(1.5 * g)


def test_exp_matches_series_oracle():
    """Rodrigues output against a brute-force matrix exponential series."""
    v = RNG.normal(size=(40, 3)) * 2.0
    m = hat(v)
    series = np.broadcast_to(np.eye(3), m.shape).copy()
    term = np.broadcast_to(np.eye(3), m.shape).copy()
    for k in range(1, 40):
        term = term @ m / k
        series = series + term
    assert np.abs(so3_exp(m) - series).max() < 1e-12


def test_exp_small_angle():
    m = hat(RNG.normal(size=(20, 3)) * 1e-10)
    r = so3_exp(m)
    assert np.abs(r - np.eye(3) - m).max() < 1e-19


def test_exp_is_orthogonal():
    r = so3_exp(hat(RNG.normal(size=(100, 3)) * 3))
    defect = np.swapaxes(r, -1, -2) @ r - np.eye(3)
    assert np.abs(defect).max() < 1e-13
    assert np.abs(np.linalg.det(r) - 1).max() < 1e-13


def test_polar_project_recovers_rotations():
    r = so3_exp(hat(RNG.normal(size=(50, 3))))
    noisy = r + 1e-8 * RNG.normal(size=r.shape)
    p = polar_project(noisy)
    assert np.abs(p - r).max() < 1e-7
    defect = np.swapaxes(p, -1, -2) @ p - np.eye(3)
    assert np.abs(defect).max() < 1e-14


def test_rotation_angle():
    v = RNG.normal(size=(50, 3))
    angle = np.linalg.norm(v, axis=-1) % (2 * np.pi)
    angle = np.minimum(angle, 2 * np.pi - angle)
    assert np.abs(rotation_angle(so3_exp(hat(v))) - angle).max() < 1e-7


def test_ell_frozen_example():
    """The (t, x, y) = (1, 0, 0) generator maps to diag(-i/2, i/2)."""
    m = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected = np.array([[-0.5j, 0.0], [0.0, 0.5j]])
    assert np.abs(ell(m) - expected).max() < 1e-15


def test_ell_preserves_brackets():
    x = hat(RNG.normal(size=(1000, 3)))
    y = hat(RNG.normal(size=(1000, 3)))
    lhs = ell(bracket(x, y))
    rhs = ell(x) @ ell(y) - ell(y) @ ell(x)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_ell_round_trip():
    """ell(hat(v)) holds v in the entries (0, 0) = i v3 / 2 and
    (1, 0) = (v2 + i v1) / 2, from which x is read back."""
    x = hat(RNG.normal(size=(100, 3)))
    h = ell(x)
    v = 2.0 * np.stack([h[:, 1, 0].imag, h[:, 1, 0].real, h[:, 0, 0].imag], axis=-1)
    assert np.abs(hat(v) - x).max() < 1e-14


def test_ell_two_g_squares_to_minus_id():
    g = RNG.normal(size=(1000, 3))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    h = ell(2.0 * hat(g))
    assert np.abs(h @ h + np.eye(2)).max() < 1e-13


def test_su2_lift_parity_of_fiber_loops():
    """theta -> exp(theta g) is a noncontractible loop (parity -1);
    traversing it twice is contractible (parity +1)."""
    axis = np.array([0.3, -0.5, 0.81])
    axis /= np.linalg.norm(axis)
    thetas = np.linspace(0, 2 * np.pi, 257)
    loop1 = so3_exp(thetas[:, None, None] * hat(axis))
    assert su2_path_lift(loop1) == -1
    loop2 = so3_exp(2.0 * thetas[:, None, None] * hat(axis))
    assert su2_path_lift(loop2) == 1


def test_su2_lift_constant_loop():
    loop = np.broadcast_to(np.eye(3), (64, 3, 3))
    assert su2_path_lift(loop) == 1


def test_su2_lift_rejects_coarse_sampling():
    axis = np.array([0.0, 0.0, 1.0])
    thetas = np.linspace(0, 2 * np.pi, 5)
    loop = so3_exp(thetas[:, None, None] * hat(axis))
    with pytest.raises(SamplingTooCoarse):
        su2_path_lift(loop)
