"""Mode-calculus operators against the coordinate-frame oracle.

The raising/lowering operators have closed local formulas; everything here
checks them against derivatives taken literally in the (x, y, theta) frame,
or against exact integrals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import fieldio
from cocyclelab.lie3 import hat
from cocyclelab.smfield import (
    Connection,
    FourierField,
    Higgs,
    Pair,
    decompose_connection,
    d_A,
    dbar_A,
    eta_minus,
    eta_plus,
    grid_l2_norm,
    h_op,
    hodge_star,
    l2_inner,
    mu_minus,
    mu_plus,
    star_curvature,
    vertical,
    x_op,
    _from_angles,
    _grid_first,
    _matmul3,
    _matrix_first,
    _to_angles,
)
from cocyclelab.torus import Harmonic, TorusMetric, frame_apply, grid_coords


def curved(n=64, ly=1.0):
    return TorusMetric.from_harmonics(
        n, n, 1.0, ly, [Harmonic(0.08, 1, 0), Harmonic(0.05, 0, 1, 0.3, 0.0)]
    )


def bandlimited_field(metric, degree, seed, kcut=5):
    """Random field whose spatial spectrum is confined well inside Nyquist."""
    rng = np.random.default_rng(seed)
    modes = {}
    mask = np.zeros((metric.ny, metric.nx), dtype=bool)
    mask[:kcut, :kcut] = mask[:kcut, -kcut:] = True
    mask[-kcut:, :kcut] = mask[-kcut:, -kcut:] = True
    for m in range(-degree, degree + 1):
        h = rng.normal(size=(metric.ny, metric.nx, 3, 3)) + 1j * rng.normal(
            size=(metric.ny, metric.nx, 3, 3)
        )
        hf = np.fft.fft2(h, axes=(0, 1))
        modes[m] = np.fft.ifft2(hf * mask[..., None, None], axes=(0, 1))
    return FourierField(metric, modes)


def bandlimited_connection(metric, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    xg, yg = grid_coords(metric.nx, metric.ny, metric.lx, metric.ly)

    def coeff():
        w = np.zeros((metric.ny, metric.nx, 3))
        for c in range(3):
            for kx in range(-2, 3):
                for ky in range(-2, 3):
                    amp = scale * rng.normal() / (1.0 + kx * kx + ky * ky)
                    w[..., c] += amp * np.cos(
                        2 * np.pi * (kx * xg / metric.lx + ky * yg / metric.ly)
                        + rng.uniform(0, 2 * np.pi)
                    )
        return hat(w)

    return Connection(metric, coeff(), coeff())


def test_eta_formulas_match_frame_oracle():
    """eta_plus = (X - iH)/2 and eta_minus = (X + iH)/2 on sampled fields."""
    met = TorusMetric.from_harmonics(
        128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    u = bandlimited_field(met, 3, seed=10)
    ntheta = 32
    samples = u.sample(ntheta)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    up = FourierField.from_samples(met, (xs - 1j * hs) / 2.0, degree=4)
    um = FourierField.from_samples(met, (xs + 1j * hs) / 2.0, degree=4)
    scale = u.l2_norm()
    assert (eta_plus(u) - up).l2_norm() / scale < 1e-8
    assert (eta_minus(u) - um).l2_norm() / scale < 1e-8


def test_mu_formulas_match_frame_oracle():
    met = TorusMetric.from_harmonics(128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0)])
    conn = bandlimited_connection(met, seed=11)
    a1, am1 = decompose_connection(conn)
    u = bandlimited_field(met, 2, seed=12)
    samples = u.sample(32)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    oracle_p = FourierField.from_samples(met, (xs - 1j * hs) / 2.0, degree=3) + a1 @ u
    oracle_m = FourierField.from_samples(met, (xs + 1j * hs) / 2.0, degree=3) + am1 @ u
    scale = u.l2_norm()
    assert (mu_plus(u, conn) - oracle_p).l2_norm() / scale < 1e-8
    assert (mu_minus(u, conn) - oracle_m).l2_norm() / scale < 1e-8


def test_x_h_decompositions():
    met = curved()
    u = bandlimited_field(met, 2, seed=3)
    assert (x_op(u) - (eta_plus(u) + eta_minus(u))).l2_norm() < 1e-14
    assert (h_op(u) - (eta_plus(u) - eta_minus(u)) * 1j).l2_norm() < 1e-14


def test_adjointness():
    """<mu_+ u, v> = -<u, mu_- v> in the e^{2 lam} dx dy dtheta measure."""
    met = curved(64, ly=1.3)
    conn = bandlimited_connection(met, seed=21)
    u = bandlimited_field(met, 2, seed=22)
    v = bandlimited_field(met, 3, seed=23)
    lhs = l2_inner(mu_plus(u, conn), v)
    rhs = -l2_inner(u, mu_minus(v, conn))
    assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_energy_identity_random_triples():
    """||mu_+ u_m||^2 - ||mu_- u_m||^2 = (1/2) <(i *F - m K) u_m, u_m> on 20
    random (mode, connection, metric) triples."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        amp = float(rng.uniform(0.02, 0.12))
        kx, ky = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        met = TorusMetric.from_harmonics(
            64, 64, 1.0, 1.0,
            [Harmonic(amp, kx, ky, float(rng.uniform(0, 6)), float(rng.uniform(0, 6)))],
        )
        conn = bandlimited_connection(met, seed=1000 + trial)
        m = int(rng.integers(-3, 4))
        u = bandlimited_field(met, 0, seed=2000 + trial)
        u = FourierField(met, {m: u.mode(0)})
        up, um = mu_plus(u, conn), mu_minus(u, conn)
        lhs = l2_inner(up, up).real
        sf = star_curvature(conn)
        op = FourierField(
            met,
            {m: (1j * sf - m * met.gauss[..., None, None] * np.eye(3)) @ u.mode(m)},
        )
        rhs = l2_inner(um, um).real + 0.5 * l2_inner(op, u).real
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    assert worst < 1e-7


def convolve_modes(u, v):
    """Reference product: the mode convolution sum_{a+b=m} c_a d_b, one 3x3
    grid product per pair of modes."""
    out = {}
    for mu, cu in u.modes.items():
        for mv, cv in v.modes.items():
            out[mu + mv] = out.get(mu + mv, 0.0) + cu @ cv
    return out


@pytest.mark.parametrize(
    "bands",
    [
        ((0,), (-1, 1)),
        ((-1, 0, 1), (-1, 0, 1)),
        (range(-2, 3), (-1, 0, 1)),
        (range(-12, 13), range(-13, 14)),
        ((1,), (-3,)),
        ((), (-1, 0, 1)),
    ],
    ids=["0x(-1,1)", "deg1xdeg1", "deg2xdeg1", "deg12xdeg13", "1x(-3)", "zero"],
)
def test_product_matches_mode_convolution(bands):
    """u @ v against the mode convolution, on band shapes that the Backlund
    steps and residual suites multiply."""
    met = curved(16)
    rng = np.random.default_rng(31)
    u, v = (
        FourierField(met, {m: rng.normal(size=(16, 16, 3, 3))
                           + 1j * rng.normal(size=(16, 16, 3, 3)) for m in ms})
        for ms in bands
    )
    w = u @ v
    ref = convolve_modes(u, v)
    scale = max((np.abs(c).max() for c in ref.values()), default=1.0)
    for m in set(ref) | set(w.modes):
        expect = ref.get(m, np.zeros((16, 16, 3, 3)))
        assert np.abs(w.mode(m) - expect).max() <= 1e-13 * scale, m


def test_sample_round_trip():
    met = curved(32)
    u = bandlimited_field(met, 3, seed=41)
    back = FourierField.from_samples(met, u.sample(16), degree=3)
    assert (u - back).l2_norm() < 1e-12


def test_reality_residual():
    met = curved(32)
    c = np.random.default_rng(5).normal(size=(32, 32, 3, 3)) + 0j
    real_field = FourierField(met, {1: c, -1: c.conj()})
    assert real_field.reality_residual() < 1e-15
    complex_field = FourierField(met, {1: c})
    assert complex_field.reality_residual() > 0.5


def test_identity_inner_product():
    """<Id, Id> = 2 pi * trace(Id) * area = 6 pi * area."""
    met = curved(48, ly=1.7)
    ident = FourierField.identity(met)
    got = l2_inner(ident, ident)
    assert abs(got - 6 * np.pi * met.area()) < 1e-10
    assert abs(got - ident.l2_norm() ** 2) < 1e-10


def test_vertical_multiplies_by_im():
    met = TorusMetric.flat(32, 32)
    c = np.ones((32, 32, 3, 3), dtype=complex)
    u = FourierField(met, {2: c, -1: c})
    v = vertical(u)
    assert np.abs(v.mode(2) - 2j * c).max() < 1e-15
    assert np.abs(v.mode(-1) + 1j * c).max() < 1e-15


def test_hodge_star_on_connections():
    met = curved(32)
    conn = bandlimited_connection(met, seed=51)
    starred = hodge_star(conn)
    assert np.abs(starred.a + conn.b).max() < 1e-15
    assert np.abs(starred.b - conn.a).max() < 1e-15
    twice = hodge_star(starred)
    assert np.abs(twice.a + conn.a).max() < 1e-15


def test_hodge_star_on_fields_is_minus_vertical():
    met = curved(32)
    conn = bandlimited_connection(met, seed=52)
    f = conn.as_field()
    sf = hodge_star(f)
    assert np.abs(sf.mode(1) + 1j * f.mode(1)).max() < 1e-15
    assert np.abs(sf.mode(-1) - 1j * f.mode(-1)).max() < 1e-15
    assert (sf - hodge_star(conn).as_field()).l2_norm() < 1e-13


def test_dbar_routes_agree():
    met = curved(64)
    conn = bandlimited_connection(met, seed=61)
    rng = np.random.default_rng(62)
    g = hat(rng.normal(size=(3,)))
    g = np.broadcast_to(g, (64, 64, 3, 3)) + 0.1 * np.sin(
        2 * np.pi * grid_coords(64, 64, 1, 1)[0]
    )[..., None, None] * hat(np.array([0.0, 0.0, 1.0]))
    via_modes = dbar_A(g, conn, via="modes")
    via_forms = dbar_A(g, conn, via="forms")
    assert grid_l2_norm(met, via_modes - via_forms) < 1e-12 * grid_l2_norm(met, g)


def test_d_A_of_commuting_constant_is_zero():
    met = curved(32)
    g = np.broadcast_to(hat(np.array([0.0, 0.0, 1.0])), (32, 32, 3, 3)).copy()
    assert d_A(g, Connection.zero(met)).l2_norm() < 1e-14


def test_star_curvature_pure_gauge_vanishes():
    """A = r^{-1} X(r) for r: M -> SO(3) has zero curvature."""
    from cocyclelab.lie3 import so3_exp

    met = curved(64)
    xg, yg = grid_coords(64, 64, 1.0, 1.0)
    w = np.stack(
        [
            0.4 * np.cos(2 * np.pi * xg),
            0.3 * np.sin(2 * np.pi * yg + 0.4),
            0.2 * np.cos(2 * np.pi * (xg + yg)),
        ],
        axis=-1,
    )
    r = so3_exp(hat(w))
    rf = FourierField.from_grid(met, r)
    af = rf.transpose() @ x_op(rf)
    conn = Connection.from_field(af, tol=1e-7)
    sf = star_curvature(conn)
    assert grid_l2_norm(met, sf) / max(conn.norm(), 1e-300) < 1e-6


def test_star_curvature_constant_axis_oracle():
    """The connection -e^{-lam}(lam_y cos - lam_x sin) g has *F = -K g."""
    met = curved(96)
    g = hat(np.array([0.28, -0.96, 0.0]))
    gg = np.broadcast_to(g, (96, 96, 3, 3))
    a = -met.e_neg_lam[..., None, None] * met.lam_y[..., None, None] * gg
    b = met.e_neg_lam[..., None, None] * met.lam_x[..., None, None] * gg
    sf = star_curvature(Connection(met, a, b))
    expected = -met.gauss[..., None, None] * gg
    assert np.abs(sf - expected).max() < 1e-9


def test_connection_from_field_gates():
    met = curved(32)
    conn = bandlimited_connection(met, seed=71)
    f = conn.as_field()
    back = Connection.from_field(f)
    assert np.abs(back.a - conn.a).max() < 1e-13
    bad = f + FourierField(met, {0: np.ones((32, 32, 3, 3), dtype=complex)})
    with pytest.raises(ValueError):
        Connection.from_field(bad)


def test_connection_shape_gate():
    met = curved(32)
    with pytest.raises(ValueError):
        Connection(met, np.zeros((16, 16, 3, 3)), np.zeros((16, 16, 3, 3)))


def test_higgs_and_pair_basics():
    met = curved(32)
    pair = Pair.trivial(met)
    assert pair.conn.is_zero()
    assert pair.higgs.is_zero()
    assert pair.trivializer is not None
    assert pair.trivializer.degree == 0
    assert pair.total_field().l2_norm() < 1e-15
    phi = Higgs(met, hat(np.ones((32, 32, 3)) * 0.2))
    assert phi.antisymmetry_residual() < 1e-15
    assert abs(phi.max_pointwise_norm() - 0.2 * np.sqrt(3)) < 1e-12


def test_orthogonality_residual_flags_nonorthogonal():
    met = curved(32)
    u = FourierField.identity(met)
    assert u.orthogonality_residual() < 1e-15
    bad = u * 1.1
    assert bad.orthogonality_residual() > 0.1


def _random(rng, shape, complex_):
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(size=shape) if complex_ else a


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(st.integers(1, 3), max_size=2),
    ny=st.integers(1, 5),
    nx=st.integers(1, 5),
    a_complex=st.booleans(),
    b_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_unrolled_kernel_matches_matmul(batch, ny, nx, a_complex, b_complex, seed):
    """The unrolled 3x3 kernel against np.matmul: real and complex bands with
    a batch, and a real grid broadcast against a complex band."""
    rng = np.random.default_rng(seed)
    a = _random(rng, tuple(batch) + (3, 3, ny, nx), a_complex)
    b = _random(rng, a.shape, b_complex)
    grid = rng.normal(size=(3, 3, ny, nx))
    band = _random(rng, a.shape, True)
    for x, y in ((a, b), (b, a), (grid, band), (band, grid)):
        got = _grid_first(_matmul3(x, y))
        ref = np.matmul(_grid_first(x), _grid_first(y))
        scale = np.matmul(np.abs(_grid_first(x)), np.abs(_grid_first(y))).max()
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-15 * scale


@pytest.mark.parametrize("n", range(1, 62))
def test_dft_matrix_fiber_transforms_match_fft(n):
    """_to_angles and _from_angles against an FFT along the mode axis, for
    the sample count of a product of two bands of length n."""
    rng = np.random.default_rng(n)
    nt = 2 * n - 1
    coef = _random(rng, (n, 3, 3, 2, 3), True)
    vals = _to_angles(coef, nt)
    ref = np.fft.ifft(coef, n=nt, axis=0) * nt
    assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
    ks = np.arange(-(n - 1), n) % nt
    back = _from_angles(vals, ks)
    ref_back = (np.fft.fft(ref, axis=0) / nt)[ks]
    assert np.abs(back - ref_back).max() <= 1e-13 * np.abs(ref_back).max()
    round_trip = _from_angles(vals, np.arange(n))
    assert np.abs(round_trip - coef).max() <= 1e-13 * np.abs(coef).max()


def test_modes_are_grid_views_and_file_layout_is_unchanged():
    met = curved(16)
    rng = np.random.default_rng(3)
    grids = {m: _random(rng, (16, 16, 3, 3), True) for m in (-2, 0, 1)}
    f = FourierField(met, grids)
    assert f.coef.shape == (4, 3, 3, 16, 16)
    assert np.array_equal(f.coef[1], np.zeros((3, 3, 16, 16)))
    assert set(f.modes) == {-2, -1, 0, 1}
    for m, grid in f.modes.items():
        assert grid.shape == (16, 16, 3, 3)
        assert np.array_equal(grid, f.mode(m))
        assert np.array_equal(grid, grids.get(m, np.zeros((16, 16, 3, 3))))
    assert np.array_equal(f.coef, _matrix_first(np.stack([f.mode(m) for m in range(-2, 2)])))
    for entry in fieldio.field_to_json(f)["modes"]:
        grid = grids.get(entry["m"], np.zeros((16, 16, 3, 3)))
        assert np.array_equal(entry["re"], grid.real.ravel())
        assert np.array_equal(entry["im"], grid.imag.ravel())


def test_dbar_a_zero_connection_is_eta_minus():
    met = curved(32)
    g = bandlimited_field(met, 0, seed=8).mode(0)
    expect = eta_minus(FourierField.from_grid(met, g)).mode(-1)
    assert np.array_equal(dbar_A(g, Connection.zero(met)), expect)
