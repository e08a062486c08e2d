"""ODE transport of the cocycle and the triviality certificates."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cocyclelab import cocycle
from cocyclelab.backlund import generate_chain
from cocyclelab.cocycle import (
    TransportContext,
    gauge_transform,
    h0_residuals,
    holonomy_closed,
    mode_residuals,
    recurrence_residuals,
    transport,
    transport_residual_field,
    triviality_residual,
)
from cocyclelab.errors import NonOrthogonalDrift, NotClosed
from cocyclelab.interp import PeriodicCubic2D
from cocyclelab.lie3 import hat
from cocyclelab.smfield import Connection, FourierField, Higgs, Pair
from cocyclelab.torus import Harmonic, SMPoint, TorusMetric, grid_coords, integrate_geodesic
from oracles import (coefficient_spline_generator, frame_transfer_residual, full_band,
                     hat_grid, plane_matmul3, so3_exp)


def curved_metric(n=64):
    return TorusMetric.from_harmonics(
        n, n, 1.0, 1.0, [Harmonic(0.08, 1, 0), Harmonic(0.05, 0, 1, 0.3, 0.0)]
    )


def constant_axis_pair(met, gv):
    """The transparent pair A = -e^{-lam}(lam_y cos - lam_x sin) g, Phi = 0
    with trivializer exp(theta g)."""
    gm = hat(np.asarray(gv) / np.linalg.norm(gv))[:, :, None, None]
    gg = np.broadcast_to(gm, (3, 3, met.ny, met.nx)).copy()
    a = -met.e_neg_lam * met.lam_y * gg
    b = met.e_neg_lam * met.lam_x * gg
    g2 = plane_matmul3(gm, gm)
    c0 = np.broadcast_to(np.eye(3)[:, :, None, None] + g2, gg.shape).astype(complex)
    c1 = np.broadcast_to(-0.5 * (g2 + 1j * gm), gg.shape).astype(complex)
    u = FourierField(met, {0: c0, 1: c1})
    return Pair(Connection(met, a, b), Higgs.zero(met), trivializer=u)


def generic_pair(met, scale=1.0):
    lam = met.lam
    xg, yg = grid_coords(met.nx, met.ny, met.lx, met.ly)
    a = scale * hat_grid(
        np.stack([0.2 + 0 * lam, 0.1 * np.cos(2 * np.pi * xg), 0 * lam], axis=-1)
    )
    b = scale * hat_grid(
        np.stack([0 * lam, 0.3 + 0 * lam, 0.2 * np.sin(2 * np.pi * yg)], axis=-1)
    )
    phi = scale * hat_grid(np.stack([0.1 + 0 * lam, 0 * lam, -0.2 + 0 * lam], axis=-1))
    return Pair(Connection(met, a, b), Higgs(met, phi))


def test_trivial_pair_transports_identity():
    met = TorusMetric.flat(32, 32)
    res = transport(Pair.trivial(met), SMPoint(0.2, 0.3, 0.7), 5.0, 1e-2)
    assert np.abs(res.matrices - np.eye(3)).max() == 0.0
    assert res.drift.max() == 0.0


def test_constant_higgs_matches_matrix_exponential():
    met = TorusMetric.flat(32, 32)
    g = hat(np.array([0.3, -0.4, 0.5]))
    phi = np.broadcast_to(g[:, :, None, None], (3, 3, 32, 32)).copy()
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


RK4_CASE = (SMPoint(0.33, 0.41, 0.9), 1.0, 125)  # p0, t_final, steps


@pytest.mark.parametrize("save_every", [1, 7, 10, RK4_CASE[2] + 3])
def test_propagator_step_matches_stagewise_rk4(save_every):
    """transport's precomputed step matrices, composed in blocks of
    save_every steps, against the four RK4 stages applied one by one to the
    same generator samples: C at every saved sample (each save_every-th
    step, then the last one) to 1e-13; times are step * h and path points
    the geodesic at 2 * step, exactly, and drift starts at 0.  The coarse
    step and the large generator make each of the h^2, h^3 and h^4 terms of
    a step matrix far larger than the tolerance.  125 steps: 7 and 10 leave
    a partial last block, and 128 gives one block of all 125 steps."""
    met = curved_metric()
    pair = generic_pair(met, scale=12.0)
    ctx = TransportContext(pair)
    p0, t_final, n = RK4_CASE
    res = transport(pair, p0, t_final, t_final / n, save_every=save_every, context=ctx)
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
    saved = [0] + [k for k in range(1, n + 1) if k % save_every == 0 or k == n]
    assert res.matrices.shape == (len(saved), 3, 3)
    assert np.abs(res.matrices - ref[saved]).max() <= 1e-13 * np.abs(ref).max()
    assert res.times.tolist() == [0.0] + [k * h for k in saved[1:]]
    idx = [2 * k for k in saved]
    assert np.array_equal(res.path_points,
                          np.stack([path.xs[idx], path.ys[idx], path.thetas[idx]], axis=-1))
    assert res.drift[0] == 0.0 and 0.0 < res.drift.max() < 1e-6


def test_blocks_of_one_step_are_the_per_step_loop():
    """save_every=1 applies each propagator as C <- C + D_k C, so C and the
    drift ||C^T C - Id||_F are those of the per-step loop, bit for bit."""
    met = curved_metric()
    pair = generic_pair(met, scale=12.0)
    ctx = TransportContext(pair)
    p0, t_final, n = RK4_CASE
    res = transport(pair, p0, t_final, t_final / n, save_every=1, context=ctx)
    path = integrate_geodesic(met, p0, t_final, t_final / (2 * n))
    steps = cocycle._rk4_propagators(ctx.generator_at(path.xs, path.ys, path.thetas), t_final / n)
    c = np.eye(3)
    mats, drift = [c], [0.0]
    for k in range(n):
        c = c + steps[k] @ c
        g = c.T @ c - np.eye(3)
        mats.append(c)
        drift.append(float(np.sqrt((g * g).sum())))
    assert res.matrices.tobytes() == np.array(mats).tobytes()
    assert res.drift.tobytes() == np.array(drift).tobytes()


def test_drift_raises_before_c_overflows():
    """With the generator scaled by 2000 the coarse RK4 step is unstable:
    stepped to the end, C would reach about 1e870.  Each block's composed
    propagator stays finite, and the first saved sample (t = 0.08) fails
    the drift check, so no later block is applied and nothing overflows."""
    met = curved_metric()
    pair = generic_pair(met, scale=2000.0)
    p0, t_final, dt = SMPoint(0.33, 0.41, 0.9), 4.0, 8e-3
    ctx = TransportContext(pair)
    path = integrate_geodesic(met, p0, t_final, dt / 2)
    steps = cocycle._rk4_propagators(ctx.generator_at(path.xs, path.ys, path.thetas), dt)
    c, log10_c = np.eye(3), 0.0
    for d in steps:  # C renormalised after each step, its scale kept as a log
        c = c + d @ c
        top = np.abs(c).max()
        log10_c += np.log10(top)
        c = c / top
    assert log10_c > 400
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        with pytest.raises(NonOrthogonalDrift, match="at t=0.0800"):
            transport(pair, p0, t_final, dt, context=ctx)


@pytest.mark.parametrize("save_every", [0, -3, 2.5, True])
def test_save_every_must_be_a_positive_integer(monkeypatch, save_every):
    """A save_every that is not an integer >= 1 is refused before the
    geodesic is integrated (0 used to divide by zero after the whole path
    was built)."""
    met = curved_metric(32)
    monkeypatch.setattr(cocycle, "integrate_geodesic", None)
    with pytest.raises(ValueError, match="save_every must be"):
        transport(Pair.trivial(met), SMPoint(0.1, 0.2, 0.3), 1.0, 1e-2, save_every=save_every)


def test_huge_save_every_allocates_nothing_extra():
    """save_every beyond the step count composes one block of all the steps
    and pads nothing: the result and the traced peak are those of
    save_every = step count (tracemalloc counts numpy's data buffers)."""
    met = curved_metric(32)
    pair = generic_pair(met)
    ctx = TransportContext(pair)
    args = (pair, SMPoint(0.1, 0.2, 0.3), 2.0, 1e-2)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        runs = []
        for save_every in (200, 10**9):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = transport(*args, save_every=save_every, context=ctx)
            runs.append((res, tracemalloc.get_traced_memory()[1] - base))
    finally:
        if started:
            tracemalloc.stop()
    (exact, peak_exact), (huge, peak_huge) = runs
    assert huge.times.tolist() == [0.0, 2.0]
    assert huge.matrices.tobytes() == exact.matrices.tobytes()
    assert peak_huge <= peak_exact + 4096


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
    assert 0.0 < res.drift.max() < 1e-6
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
    # the generator A + Phi is splined on its vee triples, the trivializer
    # on all nine entries
    assert builds == [(32, 32, 9), (32, 32, 27)]
    builds.clear()
    flat = TorusMetric.flat(32, 32)
    assert holonomy_closed(Pair.trivial(flat), SMPoint(0.2, 0.9, 0.0), 1.0, 1e-2) < 1e-13
    assert len(builds) == 1


def test_generator_matches_coefficient_spline(monkeypatch):
    """generator_at, the interpolant of A + Phi, equals the spline of the
    grids a, b and Phi summed as a cos + b sin + Phi, on the curved-transport
    pair and on a pair with nonzero Phi, and keeps a 2-D point array's shape.
    An exactly skew generator is splined on its vee triples (9 channels) and
    evaluates exactly skew; one entry one ulp off skew takes the path over
    all nine entries (27 channels) and matches the same oracle."""
    builds = []
    init = PeriodicCubic2D.__init__

    def counting_init(self, *args):
        builds.append(np.shape(args[0])[-1])
        init(self, *args)

    monkeypatch.setattr(PeriodicCubic2D, "__init__", counting_init)
    met = TorusMetric.from_harmonics(48, 48, 1.0, 1.0, [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]])
    chain = [{"kind": "constant", "axis": [0.6, -0.48, 0.64]}, {"kind": "repeat-q"}]
    nudged = generic_pair(curved_metric(48), scale=3.0)
    nudged.conn.a[1, 2, 5, 7] = np.nextafter(nudged.conn.a[1, 2, 5, 7], np.inf)
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1, 2, (2, 40, 25))
    ths = rng.uniform(-7, 7, (40, 25))
    for pair, channels in ((generate_chain(met, chain).final, 9),
                           (generic_pair(curved_metric(48), scale=3.0), 9), (nudged, 27)):
        builds.clear()
        got = TransportContext(pair).generator_at(xs, ys, ths)
        assert builds == [channels]
        ref = coefficient_spline_generator(pair)(xs, ys, ths)
        assert got.shape == (40, 25, 3, 3)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        if channels == 9:
            assert np.array_equal(got, -np.swapaxes(got, -1, -2))


def test_field_residual_certificate():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.0, 0.6, 0.8])
    assert transport_residual_field(pair) < 1e-13
    rr = recurrence_residuals(pair)
    assert max(rr.values()) < 1e-13
    bad = Pair(Connection.zero(met), pair.higgs, trivializer=pair.trivializer)
    assert transport_residual_field(bad) > 1e-2
    # verify's rows: transport and recurrence are two norms of one band
    for p in (pair, bad):
        rows = mode_residuals(p)
        assert rows["transport"] == transport_residual_field(p)
        assert abs(rows["recurrence"] - max(recurrence_residuals(p).values())) <= 1e-15
    assert mode_residuals(bad)["recurrence"] > 1e-2


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
    r = np.moveaxis(so3_exp(hat(w)), (2, 3), (0, 1))
    gauged = gauge_transform(pair, r)
    assert gauged.conn.antisymmetry_residual() < 1e-12
    assert transport_residual_field(gauged) < 1e-10
    got = h0_residuals(gauged.trivializer, gauged.higgs)
    assert max(got.values()) < 1e-10


def test_gauge_transform_constant_rotation_exact():
    met = curved_metric()
    pair = constant_axis_pair(met, [1.0, 0.0, 0.0])
    r0 = so3_exp(hat(np.array([0.2, 0.7, -0.3])))
    r = np.broadcast_to(r0[:, :, None, None], (3, 3, 64, 64)).copy()
    gauged = gauge_transform(pair, r)
    rt = np.swapaxes(r, 0, 1)
    phi = plane_matmul3(plane_matmul3(rt, pair.higgs.phi), r)
    assert np.abs(gauged.higgs.phi - phi).max() < 1e-14
    a = plane_matmul3(plane_matmul3(rt, pair.conn.a), r)
    assert np.abs(gauged.conn.a - a).max() < 1e-12


def test_gauge_transform_refuses_nan():
    """A gauge r with one NaN entry gives a connection field holding NaN,
    which Connection.from_field refuses; no pair with NaN a or phi comes
    back."""
    met = curved_metric(32)
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    r = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 32, 32)).copy()
    r[0, 2, 3, 4] = np.nan
    with pytest.raises(ValueError):
        gauge_transform(pair, r)


def test_h0_residuals_controls():
    met = curved_metric()
    pair = constant_axis_pair(met, [0.6, -0.48, 0.64])
    u = pair.trivializer
    good = h0_residuals(u, pair.higgs)
    assert good["h0-frame"] < 1e-10
    assert good["h0-vertical"] < 1e-10
    wrong_phi = Higgs(met, hat_grid(np.stack([0.3 + 0 * met.lam, 0 * met.lam, 0 * met.lam], -1)))
    bad = h0_residuals(u, wrong_phi)
    assert bad["h0-frame"] > 1e-3
    # contaminate u with a spurious mode: the psi-from-frame route must flag it
    c1 = u.mode(1)
    u_bad = FourierField(met, {0: u.mode(0), 1: c1, 2: 0.3 * c1})
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
    full = full_band(u)
    stack = np.moveaxis(full, (0, 1, 2), (2, 3, 4)).reshape(met.ny, met.nx, -1)
    vals = PeriodicCubic2D(stack.real, met.lx, met.ly)(xs, ys)
    vals = vals + 1j * PeriodicCubic2D(stack.imag, met.lx, met.ly)(xs, ys)
    phases = np.exp(1j * np.multiply.outer(ths, np.arange(-u.degree, u.degree + 1)))
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


def test_mode_residuals_transient_memory_is_bounded():
    """verify's mode rows on the flat-elliptic chain at 48^2 (trivializer
    degree 2) hold at most 15 times the bytes of the trivializer's modes
    -2..2 in temporaries at once: each sum or difference is one new band, and
    h0_residuals drops every band once its norm is taken (tracemalloc counts
    numpy's data buffers)."""
    met = TorusMetric.flat(48, 48)
    pair = generate_chain(met, [{"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]},
                                {"kind": "repeat-q"}]).final
    # the bytes of the modes -2..2, the unit this bound was set in
    band = 5 * pair.trivializer.coef[0].nbytes
    assert pair.trivializer.degree == 2
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mode_residuals(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 15 * band


def test_mode_residuals_of_half_bands_peak_below_36_mb():
    """verify's mode rows on the flat-elliptic chain at 64^2 (trivializer
    degree 2) peak below 36 MB of temporaries: every band holds the modes
    0..K of a real field only.  Bands of the modes -K..K peaked at 40.8 MB
    (tracemalloc counts numpy's data buffers)."""
    met = TorusMetric.flat(64, 64)
    pair = generate_chain(met, [{"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]},
                                {"kind": "repeat-q"}]).final
    mode_residuals(pair)  # fills the product caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mode_residuals(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 36e6


def test_transport_transient_memory_is_bounded():
    """A 5-unit transport at dt 1e-3 on the curved-transport chain at 48^2,
    with a fresh context, holds at most 24 MB of temporaries: the generator
    A + Phi is splined on its 9 vee channels, so the stencil gather of one
    CHUNK of points is a third of the 27-entry one (tracemalloc counts
    numpy's data buffers)."""
    met = TorusMetric.from_harmonics(48, 48, 1.0, 1.0, [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]])
    pair = generate_chain(met, [{"kind": "constant", "axis": [0.6, -0.48, 0.64]},
                                {"kind": "repeat-q"}]).final
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        transport(pair, SMPoint(0.15, 0.67, 2.1), 5.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 24e6
