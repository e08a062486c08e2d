"""Mode-calculus operators against the coordinate-frame oracle.

The raising/lowering operators have closed local formulas; everything here
checks them against derivatives taken literally in the (x, y, theta) frame,
or against exact integrals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import fieldio, smfield
from cocyclelab.lie3 import hat, vee
from cocyclelab.smfield import (
    Connection,
    FourierField,
    Higgs,
    Pair,
    bracket,
    cross,
    d_A,
    eta_minus,
    eta_plus,
    frame_ops,
    grid_l2_norm,
    hodge_star,
    l2_inner,
    star_curvature,
    vertical,
    x_op,
    _matmul3,
    _real_angles,
    _real_modes,
)
from cocyclelab.torus import Harmonic, TorusMetric, grid_coords
from oracles import (
    band_norm,
    dbar_A,
    frame_apply,
    from_samples,
    full_band,
    half_band,
    hat_grid,
    padded_band_op,
    plane_matmul3,
    points,
    read_mode_grid,
    sample,
    so3_exp,
    so3_norm,
)


def curved(n=64, ly=1.0):
    return TorusMetric.from_harmonics(
        n, n, 1.0, ly, [Harmonic(0.08, 1, 0), Harmonic(0.05, 0, 1, 0.3, 0.0)]
    )


def bandlimited_field(metric, degree, seed, kcut=5):
    """Random complex full band of the modes -degree..degree, shape
    (2 degree + 1, 3, 3, ny, nx), whose spatial spectrum is confined well
    inside Nyquist."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((metric.ny, metric.nx), dtype=bool)
    mask[:kcut, :kcut] = mask[:kcut, -kcut:] = True
    mask[-kcut:, :kcut] = mask[-kcut:, -kcut:] = True
    modes = []
    for _ in range(-degree, degree + 1):
        h = rng.normal(size=(metric.ny, metric.nx, 3, 3)) + 1j * rng.normal(
            size=(metric.ny, metric.nx, 3, 3)
        )
        hf = np.fft.fft2(np.moveaxis(h, (2, 3), (0, 1)))
        modes.append(np.fft.ifft2(hf * mask))
    return np.stack(modes)


def real_field(metric, degree, seed):
    """A field (modes 0..degree) with band-limited random modes m > 0 and a
    band-limited random real mode 0."""
    return half_band(metric, bandlimited_field(metric, degree, seed))


def place(stack, lo, degree):
    """A stack of the modes lo, lo + 1, ... placed in a zero full band of
    the modes -degree..degree."""
    out = np.zeros((2 * degree + 1,) + stack.shape[1:], dtype=complex)
    out[lo + degree : lo + degree + len(stack)] = stack
    return out


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
        return hat_grid(w)

    return Connection(metric, coeff(), coeff())


def test_eta_formulas_match_frame_oracle():
    """eta_plus = (X - iH)/2 and eta_minus = (X + iH)/2 on a sampled complex
    band of the modes -3..3, each grid transformed at its own mode."""
    met = TorusMetric.from_harmonics(
        128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    u = bandlimited_field(met, 3, seed=10)
    ms = np.arange(-3, 4)
    ntheta = 32
    samples = sample(u, ntheta)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    up = from_samples((xs - 1j * hs) / 2.0, degree=4)
    um = from_samples((xs + 1j * hs) / 2.0, degree=4)
    scale = band_norm(met, u)
    assert band_norm(met, place(eta_plus(met, u, ms), -2, 4) - up) / scale < 1e-8
    assert band_norm(met, place(eta_minus(met, u, ms), -4, 4) - um) / scale < 1e-8


def test_mu_formulas_match_frame_oracle():
    met = TorusMetric.from_harmonics(128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0)])
    conn = bandlimited_connection(met, seed=11)
    u = bandlimited_field(met, 2, seed=12)
    ms = np.arange(-2, 3)
    samples = sample(u, 32)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    # modes -1..3 and -3..1 of the degree-3 oracles
    oracle_p = from_samples((xs - 1j * hs) / 2.0, degree=3)[2:] + _matmul3(conn.mode(1), u)
    oracle_m = from_samples((xs + 1j * hs) / 2.0, degree=3)[:5] + _matmul3(conn.mode(-1), u)
    scale = band_norm(met, u)
    assert band_norm(met, eta_plus(met, u, ms, conn.mode(1)) - oracle_p) / scale < 1e-8
    assert band_norm(met, eta_minus(met, u, ms, conn.mode(-1)) - oracle_m) / scale < 1e-8


def test_x_h_decompositions():
    """X(u) and H(u) of a field, from one eta_minus pass, against
    eta_plus +- eta_minus of its modes -K..K written out, each transformed
    by its own kernel."""
    met = curved()
    u = real_field(met, 2, seed=3)
    full, ms = full_band(u), np.arange(-2, 3)
    ep, em = place(eta_plus(met, full, ms), -1, 3), place(eta_minus(met, full, ms), -3, 3)
    xu, hu = frame_ops(u)
    assert np.array_equal(x_op(u).coef, xu.coef)
    for got, ref in ((xu, ep + em), (hu, 1j * (ep - em))):
        assert got.degree == 3 and not got.coef[0].imag.any()
        assert band_norm(met, full_band(got) - ref) <= 1e-14 * band_norm(met, ref)


def test_real_fields_take_the_real_route():
    """x_op of a field takes one eta_minus and no eta_plus; X, H, V,
    transposes, sums and products have a mode 0 whose imaginary part is
    exactly zero."""
    met = curved(32)
    u = real_field(met, 3, seed=4)
    v = real_field(met, 2, seed=5)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eta_plus", "eta_minus"):
            op = getattr(smfield, name)
            mp.setattr(smfield, name, lambda *a, op=op, name=name: calls.append(name) or op(*a))
        xu = x_op(u)
    assert calls == ["eta_minus"]
    for w in (u, xu, *frame_ops(u), vertical(u), u.transpose(), u + v, u - v * 0.5, u @ v,
              bracket(u, v), FourierField.from_grid(met, u.mode(0).real) @ v):
        assert w.coef.dtype == complex and not w.coef[0].imag.any()


def test_adjointness():
    """<mu_+ u, v> = -<u, mu_- v> in the e^{2 lam} dx dy dtheta measure, for
    complex bands u of the modes -2..2 and v of the modes -3..3."""
    met = curved(64, ly=1.3)
    conn = bandlimited_connection(met, seed=21)
    u = bandlimited_field(met, 2, seed=22)
    v = bandlimited_field(met, 3, seed=23)
    # mu_+ u holds the modes -1..3 and mu_- v the modes -4..2
    lhs = l2_inner(met, eta_plus(met, u, np.arange(-2, 3), conn.mode(1)), v[2:])
    rhs = -l2_inner(met, u, eta_minus(met, v, np.arange(-3, 4), conn.mode(-1))[2:])
    assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_energy_identity_random_triples():
    """||mu_+ u_m||^2 - ||mu_- u_m||^2 = (1/2) <(i *F - m K) u_m, u_m> on 20
    random (mode, connection, metric) triples of complex one-mode grids."""
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
        up, um = eta_plus(met, u, [m], conn.mode(1)), eta_minus(met, u, [m], conn.mode(-1))
        lhs = l2_inner(met, up, up).real
        sf = star_curvature(conn)
        op = plane_matmul3(1j * sf - m * met.gauss * np.eye(3)[:, :, None, None], u)
        rhs = l2_inner(met, um, um).real + 0.5 * l2_inner(met, op, u).real
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    assert worst < 1e-7


def convolve_modes(u, v):
    """Reference product: the mode convolution sum_{a+b=m} c_a d_b over the
    modes -K..K of both factors written out (full_band), one 3x3 grid
    product per pair of modes."""
    out = {}
    ku, kv = u.degree, v.degree
    for mu, cu in enumerate(full_band(u), -ku):
        for mv, cv in enumerate(full_band(v), -kv):
            out[mu + mv] = out.get(mu + mv, 0.0) + plane_matmul3(cu, cv)
    return out


def random_field(met, ms, rng):
    """A field with random complex grids in the modes ms that are > 0, a
    random real grid in mode 0 if ms holds it, and zero elsewhere."""
    shape = (3, 3, met.ny, met.nx)
    return FourierField(met, {m: rng.normal(size=shape) + (1j * rng.normal(size=shape) if m else 0)
                              for m in ms})


# the modes m >= 0 of the fields that the Backlund steps and residual suites
# multiply (A has modes +-1 only; "zero" is the zero field)
PRODUCT_BANDS = {
    "0x(-1,1)": ((0,), (1,)),
    "deg1xdeg1": ((0, 1), (0, 1)),
    "deg2xdeg1": ((0, 1, 2), (0, 1)),
    "deg12xdeg13": (range(13), range(14)),
    "zero": ((), (0, 1)),
}


@pytest.mark.parametrize("bands", PRODUCT_BANDS.values(),
                         ids=[f"{name}-real" for name in PRODUCT_BANDS])
def test_product_matches_mode_convolution(bands):
    """u @ v against the mode convolution of the two full bands, on the
    shapes that the Backlund steps and residual suites multiply: the modes
    0..K_u + K_v of the product, and a mode 0 whose imaginary part is
    exactly zero."""
    met = curved(16)
    rng = np.random.default_rng(31)
    u, v = (random_field(met, ms, rng) for ms in bands)
    w = u @ v
    assert w.degree == u.degree + v.degree and not w.coef[0].imag.any()
    ref = convolve_modes(u, v)
    scale = max(np.abs(c).max() for c in ref.values())
    for m in range(w.degree + 1):
        assert np.abs(w.mode(m) - ref[m]).max() <= 1e-13 * scale, m


@pytest.mark.parametrize(
    "lens", [(1, 3), (5, 1), (3, 5), (25, 27)],
    ids=["1x3-real", "5x1-real", "3x5-real", "25x27-real"],
)
def test_bracket_is_the_commutator_of_products(lens):
    """bracket(u, v) samples each factor once; with a degree-0 factor it is
    u @ v - v @ u bit for bit, otherwise the same to rounding.  Its mode 0
    has an imaginary part of exactly zero."""
    met = curved(16)
    rng = np.random.default_rng(37)
    u, v = (random_field(met, range(n // 2 + 1), rng) for n in lens)
    got = bracket(u, v)
    ref = u @ v - v @ u
    assert got.degree == ref.degree and not got.coef[0].imag.any()
    if min(lens) == 1:
        assert np.array_equal(got.coef, ref.coef)
    else:
        assert np.abs(got.coef - ref.coef).max() <= 1e-14 * np.abs(ref.coef).max()


def triples(w):
    """The band of vee triples (K + 1, 3, ny, nx) of a band's modes."""
    return FourierField.band(w.metric, np.moveaxis(vee(np.moveaxis(w.coef, (1, 2), (3, 4))), 3, 1))


@pytest.mark.parametrize(
    "lens", [(1, 3), (5, 1), (3, 5), (25, 27)],
    ids=["1x3-real", "5x1-real", "3x5-real", "25x27-real"],
)
def test_triple_bands_match_their_hats(lens):
    """On bands of vee triples of skew fields u, v: cross is the bracket of
    the hats, V, X and H (one frame_ops) are those of the hats, and sqrt(2)
    times the norm is the hat's norm, each to rounding."""
    met = curved(16)
    rng = np.random.default_rng(43)
    u, v = (random_field(met, range(n // 2 + 1), rng) for n in lens)
    u, v = u - u.transpose(), v - v.transpose()
    tu, tv = triples(u), triples(v)
    for got, ref in [(cross(tu, tv), bracket(u, v)), (vertical(tu), vertical(u)),
                     *zip(frame_ops(tu), frame_ops(u))]:
        assert got.coef.shape[1] == 3 and not got.coef[0].imag.any()
        assert np.abs(got.coef - triples(ref).coef).max() <= 1e-14 * np.abs(ref.coef).max()
    assert abs(np.sqrt(2.0) * tu.l2_norm() - u.l2_norm()) <= 1e-14 * u.l2_norm()


def test_sample_round_trip():
    met = curved(32)
    u = bandlimited_field(met, 3, seed=41)
    back = from_samples(sample(u, 16), degree=3)
    assert band_norm(met, u - back) < 1e-12


def test_norms_are_the_einsum_form():
    """l2_norm, which counts each mode m > 0 for m and -m, and grid_l2_norm,
    summed as re^2 + im^2, against the einsum of the full band or grid with
    its conjugate on a curved metric; a zero field has norm exactly 0."""
    met = curved(32, ly=1.4)
    u = real_field(met, 2, seed=5)
    ref = band_norm(met, full_band(u))
    assert abs(u.l2_norm() - ref) <= 1e-14 * ref
    dxdy = (met.lx / met.nx) * (met.ly / met.ny)
    for grid in (u.mode(1), u.mode(0).real):
        ref = np.sqrt(np.einsum("ijyx,ijyx,yx->", grid, np.conj(grid), met.e_2lam).real * dxdy)
        assert abs(grid_l2_norm(met, grid) - ref) <= 1e-14 * ref
        fiber = grid_l2_norm(met, grid, fiber=True)
        assert abs(fiber - np.sqrt(2 * np.pi) * ref) <= 1e-14 * fiber
    zero = np.zeros((3, 3, met.ny, met.nx))
    assert FourierField(met, {1: zero}).l2_norm() == 0.0
    assert grid_l2_norm(met, zero) == 0.0
    assert grid_l2_norm(met, zero.astype(complex), fiber=True) == 0.0


def test_identity_inner_product():
    """<Id, Id> = 2 pi * trace(Id) * area = 6 pi * area."""
    met = curved(48, ly=1.7)
    ident = FourierField.identity(met)
    got = l2_inner(met, ident.coef, ident.coef)
    area = met.e_2lam.mean() * met.lx * met.ly
    assert abs(got - 6 * np.pi * area) < 1e-10
    assert abs(got - ident.l2_norm() ** 2) < 1e-10


def test_vertical_multiplies_by_im():
    met = TorusMetric.flat(32, 32)
    c = np.ones((3, 3, 32, 32), dtype=complex)
    u = FourierField(met, {2: c, 1: c})
    v = vertical(u)
    assert np.abs(v.mode(2) - 2j * c).max() < 1e-15
    assert np.abs(v.mode(-1) + 1j * c).max() < 1e-15
    assert not v.mode(0).any()


def test_hodge_star_on_fields_is_minus_vertical():
    met = curved(32)
    conn = bandlimited_connection(met, seed=52)
    f = conn.as_field()
    sf = hodge_star(f)
    assert np.abs(sf.mode(1) + 1j * f.mode(1)).max() < 1e-15
    assert np.abs(sf.mode(-1) - 1j * f.mode(-1)).max() < 1e-15
    assert (sf - Connection(met, -conn.b, conn.a).as_field()).l2_norm() < 1e-13


def test_dbar_routes_agree():
    met = curved(64)
    conn = bandlimited_connection(met, seed=61)
    rng = np.random.default_rng(62)
    g = hat(rng.normal(size=(3,)))[:, :, None, None]
    g = np.broadcast_to(g, (3, 3, 64, 64)) + 0.1 * np.sin(
        2 * np.pi * grid_coords(64, 64, 1, 1)[0]
    ) * hat(np.array([0.0, 0.0, 1.0]))[:, :, None, None]
    dg = d_A(g, conn)
    via_forms = (dg.mode(-1) - 1j * hodge_star(dg).mode(-1)) * 0.5
    for via_modes in (dg.mode(-1), dbar_A(g, conn)):
        assert grid_l2_norm(met, via_modes - via_forms) < 1e-12 * grid_l2_norm(met, g)


def test_d_A_of_commuting_constant_is_zero():
    met = curved(32)
    g = np.broadcast_to(hat(np.array([0.0, 0.0, 1.0]))[:, :, None, None], (3, 3, 32, 32)).copy()
    assert d_A(g, Connection.zero(met)).l2_norm() < 1e-14


def test_star_curvature_pure_gauge_vanishes():
    """A = r^{-1} X(r) for r: M -> SO(3) has zero curvature."""
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
    r = np.moveaxis(so3_exp(hat(w)), (2, 3), (0, 1))
    rf = FourierField.from_grid(met, r)
    af = rf.transpose() @ x_op(rf)
    conn = Connection.from_field(af, tol=1e-7)
    sf = star_curvature(conn)
    assert grid_l2_norm(met, sf) / max(conn.norm(), 1e-300) < 1e-6


def test_star_curvature_constant_axis_oracle():
    """The connection -e^{-lam}(lam_y cos - lam_x sin) g has *F = -K g."""
    met = curved(96)
    g = hat(np.array([0.28, -0.96, 0.0]))
    gg = np.broadcast_to(g[:, :, None, None], (3, 3, 96, 96))
    a = -met.e_neg_lam * met.lam_y * gg
    b = met.e_neg_lam * met.lam_x * gg
    sf = star_curvature(Connection(met, a, b))
    expected = -met.gauss * gg
    assert np.abs(sf - expected).max() < 1e-9


def test_connection_from_field_gates():
    met = curved(32)
    conn = bandlimited_connection(met, seed=71)
    f = conn.as_field()
    back = Connection.from_field(f)
    assert np.abs(back.a - conn.a).max() < 1e-13
    bad = f + FourierField(met, {0: np.ones((3, 3, 32, 32), dtype=complex)})
    with pytest.raises(ValueError, match=r"^connection field content in mode 0 "
                       r"1\.000e\+00 exceeds \d\.\de-\d+$"):
        Connection.from_field(bad)
    # a field stores the modes of a real map: no mode m < 0, a real mode 0
    for modes in ({-1: f.mode(-1)}, {0: 1j * np.ones((3, 3, 32, 32))}):
        with pytest.raises(ValueError):
            FourierField(met, modes)


def test_connection_from_field_refuses_nan():
    """One NaN coefficient in mode 1 makes the structure scale NaN, and a
    check against a NaN tolerance never passes, so no connection holding NaN
    is built."""
    met = curved(32)
    f = bandlimited_connection(met, seed=72).as_field()
    f.mode(1)[0, 1, 5, 7] = np.nan
    assert np.isnan(f.coef).sum() == 1
    with pytest.raises(ValueError):
        Connection.from_field(f)


def test_connection_shape_gate():
    met = curved(32)
    with pytest.raises(ValueError):
        Connection(met, np.zeros((3, 3, 16, 16)), np.zeros((3, 3, 16, 16)))
    with pytest.raises(ValueError):  # grids laid out point by point
        Connection(met, np.zeros((32, 32, 3, 3)), np.zeros((32, 32, 3, 3)))


def test_higgs_and_pair_basics():
    met = curved(32)
    pair = Pair.trivial(met)
    assert pair.conn.is_zero()
    assert pair.higgs.is_zero()
    assert pair.trivializer is not None
    assert pair.trivializer.degree == 0
    assert pair.total_field().l2_norm() < 1e-15
    phi = Higgs(met, hat_grid(np.ones((32, 32, 3)) * 0.2))
    assert phi.antisymmetry_residual() < 1e-15
    assert abs(so3_norm(points(phi.phi)).max() - 0.2 * np.sqrt(3)) < 1e-12


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
def test_kernel_matches_matmul(batch, ny, nx, a_complex, b_complex, seed):
    """The 3x3 kernel against np.matmul: real and complex bands with a batch,
    and a real grid broadcast against a complex band."""
    rng = np.random.default_rng(seed)
    a = _random(rng, tuple(batch) + (3, 3, ny, nx), a_complex)
    b = _random(rng, a.shape, b_complex)
    grid = rng.normal(size=(3, 3, ny, nx))
    band = _random(rng, a.shape, True)
    for x, y in ((a, b), (b, a), (grid, band), (band, grid)):
        got = _matmul3(x, y)
        # np.matmul reads the 3x3 matrices on the last two axes
        xl, yl = (np.moveaxis(z, (-4, -3), (-2, -1)) for z in (x, y))
        ref = np.moveaxis(np.matmul(xl, yl), (-2, -1), (-4, -3))
        scale = np.matmul(np.abs(xl), np.abs(yl)).max()
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-15 * scale


def _parts(x):
    """Real and imaginary parts of x stacked, as float64."""
    return np.stack([x.real, np.imag(x)])


def _assert_same_bits(got, a, b):
    """got equals the nine-plane oracle of a @ b bit for bit: every value
    (NaN where the oracle has NaN) and every sign bit outside NaN.  The one
    allowed difference is the sign of a float64 zero whose three products
    are all -0.0: the oracle keeps -0.0, einsum's sum starts at +0.0.  The
    sign of a NaN is not compared: when both addends are NaN, which one an
    add returns differs between numpy's loops."""
    ref = plane_matmul3(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    g, r = _parts(got), _parts(ref)
    assert np.array_equal(g, r, equal_nan=True)
    flipped = (np.signbit(g) != np.signbit(r)) & ~np.isnan(r)
    if got.dtype == np.float64:
        neg_zero = np.ones(ref.shape, dtype=bool)
        for k in range(3):
            p = a[..., :, k, None, :, :] * b[..., None, k, :, :, :]
            neg_zero &= (p == 0) & np.signbit(p)
        assert np.array_equal(flipped[0], neg_zero) and not np.signbit(got[neg_zero]).any()
    else:
        assert not flipped.any()


def _special(rng, shape, dtype):
    """Normal entries with NaN, +-inf, +-0.0, 1e-200 (whose products
    underflow) and whole rows and columns of -0.0 or +0.0 mixed in."""
    x = rng.normal(size=shape)
    hit = rng.random(shape) < 0.3
    x[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-200, -1e-200], size=hit.sum())
    x[..., rng.integers(3), :, :, :] = rng.choice([0.0, -0.0])
    x[..., :, rng.integers(3), :, :] = -0.0
    if dtype == complex:
        y = rng.normal(size=shape)
        y[rng.random(shape) < 0.2] = -0.0
        x = x + 1j * y
    return x


@pytest.mark.parametrize("da, db", [(float, float), (complex, complex), (float, complex),
                                    (complex, float)])
@pytest.mark.parametrize("ny, nx", [(1, 1), (1, 5), (2, 3), (4, 1), (5, 5), (3, 4)])
def test_kernel_matches_plane_oracle_bit_for_bit(da, db, ny, nx):
    """_matmul3 against the nine-plane kernel it replaced, bit for bit
    (_assert_same_bits), on float64, complex and mixed factors: batches, a
    one-mode factor broadcast on either side, a (3, 3, ny, nx) grid against a
    band, swapaxes views (as orthogonality_residual passes them), and NaN,
    +-inf, signed zeros and underflowing products.  The float64 cases pin
    einsum as this numpy build runs it (2.4 wheel, SIMD baseline X86_V2):
    the products summed in order k = 0, 1, 2 with no fused multiply-add.  A
    build whose einsum fuses or reorders, or complex factors sent through
    einsum, fail here."""
    rng = np.random.default_rng(1000 * ny + nx)
    band = _special(rng, (4, 3, 3, ny, nx), da)
    other = _special(rng, (4, 3, 3, ny, nx), db)
    batch = _special(rng, (2, 3, 3, 3, ny, nx), da)
    batch2 = _special(rng, (2, 3, 3, 3, ny, nx), db)
    one = _special(rng, (1, 3, 3, ny, nx), db)
    grid = _special(rng, (3, 3, ny, nx), db)
    samples = _special(rng, (5, 3, 3, ny, nx), da)
    pairs = ((band, other), (batch, batch2), (band, one), (one, band), (grid, band),
             (band, grid), (np.swapaxes(samples, 1, 2), samples),
             (batch[::-1, ::-1], np.swapaxes(batch2, 2, 3)))
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        for a, b in pairs:
            _assert_same_bits(_matmul3(a, b), a, b)


@pytest.mark.parametrize("shape", [(51, 3, 3, 32, 32), (25, 3, 3, 32, 32), (9, 3, 3, 48, 48)])
def test_kernel_matches_plane_oracle_at_workload_sizes(shape):
    """The float64 products of the benchmark's workloads (a deep-chain H0
    bracket has 51 fiber samples at 32^2) match the oracle bit for bit, with
    a rotation about e_z, whose exact zeros give sums of -0.0 products."""
    rng = np.random.default_rng(shape[0])
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    angles = rng.normal(size=shape[:1] + shape[3:] + (1, 1))
    rot = np.moveaxis(so3_exp(hat(np.array([0.0, 0.0, 1.0])) * angles), (-2, -1), (1, 2))
    for x, y in ((a, b), (b, a), (rot, -rot), (a, rot)):
        _assert_same_bits(_matmul3(x, y), x, y)


def _special_band(rng, met, n):
    """A band of n modes whose real and imaginary parts are _special values:
    NaN, +-inf and signed zeros among normal ones; mode 0 is real."""
    shape = (n, 3, 3, met.ny, met.nx)
    coef = np.empty(shape, dtype=complex)
    coef.real = _special(rng, shape, float)
    coef.imag = _special(rng, shape, float)
    coef[0].imag = 0.0
    return FourierField.band(met, coef)


@pytest.mark.parametrize("u_band, v_band", [
    (4, 4),    # same length
    (8, 2),    # v shorter
    (2, 8),    # u shorter
    (6, 3),
    (3, 6),
    (1, 1),    # one mode each
    (1, 4),
    (4, 1),
], ids=[f"u_band{i}-v_band{i}" for i in range(8)])
def test_band_sum_and_difference_match_padded_oracle_bit_for_bit(u_band, v_band):
    """u + v and u - v against the zero-padded band arithmetic they replace
    (oracles.padded_band_op): the same band and every value (NaN where the
    oracle has NaN) and every sign bit outside NaN.  Modes of v alone must be
    0.0 + v_m and 0.0 - v_m, which turn a -0.0 of v into +0.0."""
    met = TorusMetric.flat(16, 16)
    rng = np.random.default_rng([u_band + 3, v_band + 3])
    u, v = _special_band(rng, met, u_band), _special_band(rng, met, v_band)
    with np.errstate(invalid="ignore"):  # inf - inf
        for got, ufunc in ((u + v, np.add), (u - v, np.subtract)):
            ref = padded_band_op(u, v, ufunc)
            assert got.coef.shape == ref.coef.shape
            assert got.coef.dtype == ref.coef.dtype
            g, r = _parts(got.coef), _parts(ref.coef)
            assert np.array_equal(g, r, equal_nan=True)
            assert not ((np.signbit(g) != np.signbit(r)) & ~np.isnan(r)).any()


@pytest.mark.parametrize("n", range(1, 62))
def test_dft_matrix_fiber_transforms_match_fft(n):
    """The real synthesis and analysis matrices of the product (_real_angles,
    _real_modes) against an FFT along the fiber axis of the full band
    (oracles.sample), at the nt = 2n - 1 samples of a product of degree
    k = n - 1: a factor of degree k and one of degree k // 2 are sampled,
    and the modes 0..k of their samples give the factor back, with a mode 0
    whose imaginary part is exactly zero."""
    met = TorusMetric.flat(16, 16)
    rng = np.random.default_rng(n)
    k, nt = n - 1, 2 * n - 1
    for deg in (k, k // 2):
        u = random_field(met, range(deg + 1), rng)
        vals = _real_angles(u, nt)
        ref = sample(full_band(u), nt)
        assert vals.dtype == np.float64
        assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
        back = _real_modes(vals, k)
        want = np.zeros_like(back)
        want[: deg + 1] = u.coef
        assert back.shape == want.shape and not back[0].imag.any()
        assert np.abs(back - want).max() <= 1e-13 * np.abs(want).max()


def test_modes_are_grid_views_and_file_layout_is_unchanged():
    """A mode m >= 0 is the band's own (3, 3, ny, nx) slice, and mode -m its
    conjugate; a file lays each mode grid m = 0..K out point by point."""
    met = curved(16)
    rng = np.random.default_rng(3)
    grids = {0: rng.normal(size=(3, 3, 16, 16)), 2: _random(rng, (3, 3, 16, 16), True)}
    f = FourierField(met, grids)
    assert f.coef.shape == (3, 3, 3, 16, 16)
    assert np.array_equal(f.coef[1], np.zeros((3, 3, 16, 16)))
    assert set(f.modes) == {0, 1, 2}
    for m, grid in f.modes.items():
        assert grid.shape == (3, 3, 16, 16) and np.shares_memory(grid, f.coef)
        assert np.array_equal(grid, f.mode(m))
        assert np.array_equal(grid, grids.get(m, np.zeros((3, 3, 16, 16))))
        assert np.array_equal(f.mode(-m), np.conj(grid))
    entries = fieldio.field_to_json(f)["modes"]
    assert [e["m"] for e in entries] == [0, 1, 2]
    for entry in entries:
        grid = points(f.mode(entry["m"]))
        assert np.array_equal(read_mode_grid(entry["re"]), grid.real.ravel())
        if entry["m"]:
            assert np.array_equal(read_mode_grid(entry["im"]), grid.imag.ravel())
        else:
            assert "im" not in entry


def test_dbar_a_zero_connection_is_eta_minus():
    met = curved(32)
    g = bandlimited_field(met, 0, seed=8)[0].real
    expect = eta_minus(met, g[None], [0])[0]
    assert np.array_equal(d_A(g, Connection.zero(met)).mode(-1), expect)
