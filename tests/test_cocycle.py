"""ODE transport of the cocycle and the triviality certificates."""

import numpy as np
import pytest

from cocyclelab import cocycle
from cocyclelab.backlund import generate_chain
from cocyclelab.cocycle import (
    TransportContext,
    frame_transfer_residual,
    gauge_transform,
    h0_residuals,
    holonomy_closed,
    recurrence_residuals,
    transport,
    transport_residual_field,
    triviality_residual,
)
from cocyclelab.errors import NonOrthogonalDrift, NotClosed
from cocyclelab.interp import PeriodicCubic2D
from cocyclelab.lie3 import hat, so3_exp
from cocyclelab.smfield import Connection, FourierField, Higgs, Pair
from cocyclelab.torus import Harmonic, SMPoint, TorusMetric, grid_coords, integrate_geodesic


def curved_metric(n=64):
    return TorusMetric.from_harmonics(
        n, n, 1.0, 1.0, [Harmonic(0.08, 1, 0), Harmonic(0.05, 0, 1, 0.3, 0.0)]
    )


def constant_axis_pair(met, gv):
    """The transparent pair A = -e^{-lam}(lam_y cos - lam_x sin) g, Phi = 0
    with trivializer exp(theta g)."""
    gm = hat(np.asarray(gv) / np.linalg.norm(gv))
    gg = np.broadcast_to(gm, (met.ny, met.nx, 3, 3)).copy()
    a = -met.e_neg_lam[..., None, None] * met.lam_y[..., None, None] * gg
    b = met.e_neg_lam[..., None, None] * met.lam_x[..., None, None] * gg
    g2 = gm @ gm
    c0 = np.broadcast_to(np.eye(3) + g2, gg.shape).astype(complex)
    c1 = np.broadcast_to(-0.5 * (g2 + 1j * gm), gg.shape).astype(complex)
    u = FourierField(met, {0: c0, 1: c1, -1: c1.conj()})
    return Pair(Connection(met, a, b), Higgs.zero(met), trivializer=u)


def generic_pair(met, scale=1.0):
    lam = met.lam
    xg, yg = grid_coords(met.nx, met.ny, met.lx, met.ly)
    a = scale * hat(
        np.stack([0.2 + 0 * lam, 0.1 * np.cos(2 * np.pi * xg), 0 * lam], axis=-1)
    )
    b = scale * hat(
        np.stack([0 * lam, 0.3 + 0 * lam, 0.2 * np.sin(2 * np.pi * yg)], axis=-1)
    )
    phi = scale * hat(np.stack([0.1 + 0 * lam, 0 * lam, -0.2 + 0 * lam], axis=-1))
    return Pair(Connection(met, a, b), Higgs(met, phi))


def test_trivial_pair_transports_identity():
    met = TorusMetric.flat(32, 32)
    res = transport(Pair.trivial(met), SMPoint(0.2, 0.3, 0.7), 5.0, 1e-2)
    assert np.abs(res.matrices - np.eye(3)).max() == 0.0
    assert res.orthogonality_drift() == 0.0


def test_constant_higgs_matches_matrix_exponential():
    met = TorusMetric.flat(32, 32)
    g = hat(np.array([0.3, -0.4, 0.5]))
    phi = np.broadcast_to(g, (32, 32, 3, 3)).copy()
    pair = Pair(Connection.zero(met), Higgs(met, phi))
    res = transport(pair, SMPoint(0.1, 0.9, 1.1), 3.0, 1e-3)
    assert np.abs(res.final() - so3_exp(-3.0 * g)).max() < 1e-13


def test_transport_fourth_order():
    met = curved_metric()
    pair = generic_pair(met, scale=12.0)
    p0 = SMPoint(0.33, 0.41, 0.9)
    ref = transport(pair, p0, 4.0, 2.5e-4).final()
    e1 = np.abs(transport(pair, p0, 4.0, 8e-3).final() - ref).max()
    e2 = np.abs(transport(pair, p0, 4.0, 4e-3).final() - ref).max()
    assert 12.0 < e1 / e2 < 20.0


def test_propagator_step_matches_stagewise_rk4():
    """transport's precomputed step matrices against the four RK4 stages
    applied one by one to the same generator samples.  The coarse step and
    the large generator make each of the h^2, h^3 and h^4 terms of a step
    matrix far larger than the tolerance."""
    met = curved_metric()
    pair = generic_pair(met, scale=12.0)
    ctx = TransportContext(pair)
    p0 = SMPoint(0.33, 0.41, 0.9)
    t_final, n = 1.0, 125
    res = transport(pair, p0, t_final, t_final / n, save_every=1, context=ctx)
    path = integrate_geodesic(met, p0, t_final, t_final / (2 * n))
    b = ctx.generator_at(path.xs, path.ys, path.thetas)
    h = t_final / n
    c = np.eye(3)
    ref = [c]
    for k in range(n):
        b0, bh, b1 = b[2 * k], b[2 * k + 1], b[2 * k + 2]
        k1 = -(b0 @ c)
        k2 = -(bh @ (c + (0.5 * h) * k1))
        k3 = -(bh @ (c + (0.5 * h) * k2))
        k4 = -(b1 @ (c + h * k3))
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ref.append(c)
    ref = np.array(ref)
    assert res.matrices.shape == ref.shape
    assert np.abs(res.matrices - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("slope, dt", [((3, 1), 1e-3), ((1, 1), 9.99e-4)])
def test_holonomy_closed_with_odd_half_step_count(slope, dt):
    """round(T / (dt / 2)) is odd here; the geodesic must still take exactly
    twice the cocycle's steps and end at T, back at its start."""
    met = TorusMetric.flat(32, 32)
    p, q = slope
    p0 = SMPoint(0.2, 0.7, float(np.arctan2(q, p)))
    t_final = float(np.hypot(p, q))
    assert round(t_final / (dt / 2)) % 2 == 1
    assert holonomy_closed(Pair.trivial(met), p0, t_final, dt) < 1e-13
    res = transport(Pair.trivial(met), p0, t_final, dt)
    assert res.path_times[-1] == t_final
    assert len(res.path_times) - 1 == 2 * round(t_final / dt)


def test_cocycle_composition_property():
    """C(p, t + s) = C(phi_t p, s) C(p, t) along one geodesic."""
    met = curved_metric()
    pair = generic_pair(met)
    ctx = TransportContext(pair)
    p0 = SMPoint(0.15, 0.72, 2.2)
    t, s = 1.5, 2.0
    full = transport(pair, p0, t + s, 1e-3, context=ctx)
    first = transport(pair, p0, t, 1e-3, context=ctx)
    mid = integrate_geodesic(met, p0, t, 1e-3).endpoint()
    second = transport(pair, mid, s, 1e-3, context=ctx)
    assert np.abs(second.final() @ first.final() - full.final()).max() < 1e-9


def test_drift_monitor(monkeypatch):
    met = curved_metric()
    pair = generic_pair(met, scale=12.0)
    p0 = SMPoint(0.33, 0.41, 0.9)
    res = transport(pair, p0, 4.0, 8e-3)
    assert 0.0 < res.orthogonality_drift() < 1e-6
    monkeypatch.setattr(cocycle, "DRIFT_TOL", 0.0)
    with pytest.raises(NonOrthogonalDrift, match="exceeds 0.0e"):
        transport(pair, p0, 4.0, 8e-3)


def test_triviality_residual_positive_and_negative():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    tv = triviality_residual(pair, SMPoint(0.15, 0.67, 2.1), 6.0, 1e-3)
    assert tv.max_residual < 1e-8
    # same trivializer against the wrong pair must fail loudly
    wrong = Pair(Connection.zero(met), Higgs.zero(met), trivializer=pair.trivializer)
    tw = triviality_residual(wrong, SMPoint(0.15, 0.67, 2.1), 6.0, 1e-3)
    assert tw.max_residual > 1e-2


def test_holonomy_closed_on_flat_torus():
    met = TorusMetric.flat(48, 48)
    pair = Pair.trivial(met)
    assert holonomy_closed(pair, SMPoint(0.2, 0.9, 0.0), 1.0, 1e-3) < 1e-13
    with pytest.raises(NotClosed):
        holonomy_closed(pair, SMPoint(0.2, 0.9, 0.7), 1.0, 1e-3)


def test_interpolants_built_lazily_and_once(monkeypatch):
    """A context builds the field interpolant at once and the trivializer's
    on first use, then keeps both; holonomy never needs the trivializer."""
    builds = []
    init = PeriodicCubic2D.__init__

    def counting_init(self, *args):
        builds.append(np.shape(args[0]))
        init(self, *args)

    monkeypatch.setattr(PeriodicCubic2D, "__init__", counting_init)
    met = curved_metric(32)
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    ctx = TransportContext(pair)
    for p0 in (SMPoint(0.15, 0.67, 2.1), SMPoint(0.4, 0.2, 0.3)):
        assert triviality_residual(pair, p0, 0.5, 1e-2, context=ctx).max_residual < 1e-6
    assert builds == [(32, 32, 27), (32, 32, 27)]
    builds.clear()
    flat = TorusMetric.flat(32, 32)
    assert holonomy_closed(Pair.trivial(flat), SMPoint(0.2, 0.9, 0.0), 1.0, 1e-2) < 1e-13
    assert len(builds) == 1


def test_field_residual_certificate():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.0, 0.6, 0.8])
    assert transport_residual_field(pair) < 1e-13
    rr = recurrence_residuals(pair)
    assert max(rr.values()) < 1e-13
    bad = Pair(Connection.zero(met), pair.higgs, trivializer=pair.trivializer)
    assert transport_residual_field(bad) > 1e-2


def test_gauge_transform_preserves_certificates():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    xg, yg = grid_coords(met.nx, met.ny, 1.0, 1.0)
    w = np.stack(
        [
            0.4 * np.cos(2 * np.pi * xg),
            0.25 * np.sin(2 * np.pi * yg + 0.3),
            0.2 + 0 * xg,
        ],
        axis=-1,
    )
    r = so3_exp(hat(w))
    gauged = gauge_transform(pair, r)
    assert gauged.conn.antisymmetry_residual() < 1e-12
    assert transport_residual_field(gauged) < 1e-10
    got = h0_residuals(gauged.trivializer, gauged.higgs)
    assert max(got.values()) < 1e-10


def test_gauge_transform_constant_rotation_exact():
    met = curved_metric()
    pair = constant_axis_pair(met, [1.0, 0.0, 0.0])
    r = np.broadcast_to(so3_exp(hat(np.array([0.2, 0.7, -0.3]))), (64, 64, 3, 3)).copy()
    gauged = gauge_transform(pair, r)
    r0 = r[0, 0]
    assert np.abs(gauged.higgs.phi - np.swapaxes(r, -1, -2) @ pair.higgs.phi @ r).max() < 1e-14
    assert np.abs(gauged.conn.a - r0.T @ pair.conn.a @ r0).max() < 1e-12


def test_h0_residuals_controls():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    u = pair.trivializer
    good = h0_residuals(u, pair.higgs)
    assert good["h0-frame"] < 1e-10
    assert good["h0-vertical"] < 1e-10
    wrong_phi = Higgs(met, hat(np.stack([0.3 + 0 * met.lam, 0 * met.lam, 0 * met.lam], -1)))
    bad = h0_residuals(u, wrong_phi)
    assert bad["h0-frame"] > 1e-3
    # contaminate u with a spurious mode: the psi-from-frame route must flag it
    c1 = u.mode(1)
    u_bad = FourierField(
        met, {0: u.mode(0), 1: c1, -1: c1.conj(), 2: 0.3 * c1, -2: 0.3 * c1.conj()}
    )
    flagged = h0_residuals(u_bad)
    assert flagged["h0-vertical"] > 1e-3


def test_frame_transfer_residual():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.28, 0.96, 0.0])
    assert frame_transfer_residual(pair) < 1e-12
    wrong = Pair(Connection.zero(met), pair.higgs, trivializer=pair.trivializer)
    assert frame_transfer_residual(wrong) > 1e-3


def test_transport_csv_samples_align_with_path():
    met = curved_metric()
    pair = generic_pair(met)
    res = transport(pair, SMPoint(0.4, 0.1, 1.0), 2.0, 1e-3, save_every=100)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(2.0, abs=0)
    assert len(res.times) == len(res.matrices) == len(res.drift) == len(res.path_points)


def _full_band_values(u, xs, ys, ths):
    """The interpolant as one spline over the real and imaginary parts of
    every mode, negative ones included, summed against e^{i m theta}, real
    part taken."""
    met = u.metric
    stack = np.stack([u.mode(m) for m in range(u.lo, u.hi + 1)], axis=2).reshape(met.ny, met.nx, -1)
    vals = PeriodicCubic2D(stack.real, met.lx, met.ly)(xs, ys)
    vals = vals + 1j * PeriodicCubic2D(stack.imag, met.lx, met.ly)(xs, ys)
    phases = np.exp(1j * np.multiply.outer(ths, np.arange(u.lo, u.hi + 1)))
    out = np.einsum("pmc,pm->pc", vals.reshape(len(xs), -1, 9), phases)
    return out.real.reshape(len(xs), 3, 3)


@pytest.mark.parametrize("repeats", [1, 5])
def test_interpolant_of_modes_m_ge_0_matches_full_band(repeats):
    """On the curved degree-2 and degree-6 trivializers the interpolant built
    from the modes m >= 0 equals the full-band route to rounding."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]])
    steps = [{"kind": "constant", "axis": [0.6, -0.48, 0.64]}] + [{"kind": "repeat-q"}] * repeats
    u = generate_chain(met, steps).final.trivializer
    assert u.degree == repeats + 1
    rng = np.random.default_rng(repeats)
    xs, ys = rng.uniform(-1, 2, (2, 500))
    ths = rng.uniform(0, 2 * np.pi, 500)
    got = u.interpolant()(xs, ys, ths)
    ref = _full_band_values(u, xs % 1.0, ys % 1.0, ths)
    assert got.dtype == np.float64 and got.shape == (500, 3, 3)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
