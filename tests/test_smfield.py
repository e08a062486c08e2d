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
from cocyclelab.lie3 import hat
from cocyclelab.smfield import (
    Connection,
    FourierField,
    Higgs,
    Pair,
    bracket,
    d_A,
    eta_minus,
    eta_plus,
    grid_l2_norm,
    hodge_star,
    l2_inner,
    mu_minus,
    mu_plus,
    star_curvature,
    vertical,
    x_op,
    _is_real,
    _matmul3,
    _real_angles,
    _real_modes,
)
from cocyclelab.torus import Harmonic, TorusMetric, grid_coords
from oracles import (
    band_reality_residual,
    conjugate_is_real,
    dbar_A,
    frame_apply,
    from_samples,
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
        hf = np.fft.fft2(np.moveaxis(h, (2, 3), (0, 1)))
        modes[m] = np.fft.ifft2(hf * mask)
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
        return hat_grid(w)

    return Connection(metric, coeff(), coeff())


def test_eta_formulas_match_frame_oracle():
    """eta_plus = (X - iH)/2 and eta_minus = (X + iH)/2 on sampled fields."""
    met = TorusMetric.from_harmonics(
        128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    u = bandlimited_field(met, 3, seed=10)
    ntheta = 32
    samples = sample(u, ntheta)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    up = from_samples(met, (xs - 1j * hs) / 2.0, degree=4)
    um = from_samples(met, (xs + 1j * hs) / 2.0, degree=4)
    scale = u.l2_norm()
    assert (eta_plus(u) - up).l2_norm() / scale < 1e-8
    assert (eta_minus(u) - um).l2_norm() / scale < 1e-8


def test_mu_formulas_match_frame_oracle():
    met = TorusMetric.from_harmonics(128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0)])
    conn = bandlimited_connection(met, seed=11)
    a1, am1 = conn.band(1), conn.band(-1)
    u = bandlimited_field(met, 2, seed=12)
    samples = sample(u, 32)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    oracle_p = from_samples(met, (xs - 1j * hs) / 2.0, degree=3) + a1 @ u
    oracle_m = from_samples(met, (xs + 1j * hs) / 2.0, degree=3) + am1 @ u
    scale = u.l2_norm()
    assert (mu_plus(u, conn) - oracle_p).l2_norm() / scale < 1e-8
    assert (mu_minus(u, conn) - oracle_m).l2_norm() / scale < 1e-8


def test_x_h_decompositions():
    met = curved()
    u = bandlimited_field(met, 2, seed=3)
    assert (x_op(u) - (eta_plus(u) + eta_minus(u))).l2_norm() < 1e-14


def test_real_fields_take_the_real_route():
    """For u real on SM, x_op takes one eta_minus and its conjugate in place
    of eta_plus; X, V, transposes, sums and products of real bands are real
    to the bit.  A band one ulp from real takes eta_plus in x_op, with the
    same numbers, and has no product with a multi-mode band and no
    orthogonality residual."""
    met = curved(32)
    u = real_on_sm(bandlimited_field(met, 3, seed=4))
    v = real_on_sm(bandlimited_field(met, 2, seed=5))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eta_plus", "eta_minus"):
            op = getattr(smfield, name)
            mp.setattr(smfield, name, lambda f, op=op, name=name: calls.append(name) or op(f))
        xu = x_op(u)
    assert calls == ["eta_minus"]
    ref = eta_plus(u) + eta_minus(u)
    assert (xu.lo, xu.hi) == (ref.lo, ref.hi)
    assert (xu - ref).l2_norm() <= 1e-14 * ref.l2_norm()
    for w in (u, xu, vertical(u), u.transpose(), u + v, u - v * 0.5, u @ v, bracket(u, v)):
        assert is_real_to_the_bit(w)
    # one ulp off in one negative mode: eta_plus in x_op, the same numbers
    bent = u.coef.copy()
    bent.real[1, 0, 1, 3, 5] = np.nextafter(bent.real[1, 0, 1, 3, 5], np.inf)
    w = FourierField.band(met, u.lo, bent)
    assert not is_real_to_the_bit(w)
    xw = x_op(w)
    assert not is_real_to_the_bit(xw)
    assert (xw - xu).l2_norm() <= 1e-14 * xu.l2_norm()
    for product in (lambda: w @ v, lambda: v @ w, lambda: bracket(v, w),
                    w.orthogonality_residual):
        with pytest.raises(ValueError):
            product()


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
            {m: plane_matmul3(1j * sf - m * met.gauss * np.eye(3)[:, :, None, None], u.mode(m))},
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
            out[mu + mv] = out.get(mu + mv, 0.0) + plane_matmul3(cu, cv)
    return out


def real_on_sm(u):
    """The field with u's modes m > 0, the real part of its mode 0 and
    c_{-m} = conj(c_m): real on SM to the bit."""
    k = max(-u.lo, u.hi)
    coef = np.zeros((2 * k + 1,) + u.coef.shape[1:], dtype=complex)
    coef[k:] = [u.mode(m) for m in range(k + 1)]
    coef[k] = coef[k].real
    coef[:k] = np.conj(coef[:k:-1])
    return FourierField.band(u.metric, -k, coef)


def is_real_to_the_bit(u):
    return u.lo == -u.hi and np.array_equal(u.coef, np.conj(u.coef[::-1]))


PRODUCT_BANDS = {
    "0x(-1,1)": ((0,), (-1, 1)),
    "deg1xdeg1": ((-1, 0, 1), (-1, 0, 1)),
    "deg2xdeg1": (range(-2, 3), (-1, 0, 1)),
    "deg12xdeg13": (range(-12, 13), range(-13, 14)),
    "1x(-3)": ((1,), (-3,)),
    "zero": ((), (-1, 0, 1)),
}
# the band shapes a field real on SM can have (lo = -hi)
SYMMETRIC = ("0x(-1,1)", "deg1xdeg1", "deg2xdeg1", "deg12xdeg13", "zero")


@pytest.mark.parametrize(
    "bands, real",
    [(bands, False) for bands in PRODUCT_BANDS.values()]
    + [(PRODUCT_BANDS[name], True) for name in SYMMETRIC],
    ids=list(PRODUCT_BANDS) + [f"{name}-real" for name in SYMMETRIC],
)
def test_product_matches_mode_convolution(bands, real):
    """u @ v against the mode convolution, on band shapes that the Backlund
    steps and residual suites multiply; with real set, both factors are real
    on SM (the real-arithmetic route) and so is their product, to the bit.
    Without it, the factors are complex: a one-mode factor still multiplies,
    and two multi-mode factors raise ValueError."""
    met = curved(16)
    rng = np.random.default_rng(31)
    u, v = (
        FourierField(met, {m: rng.normal(size=(3, 3, 16, 16))
                           + 1j * rng.normal(size=(3, 3, 16, 16)) for m in ms})
        for ms in bands
    )
    if real:
        u, v = real_on_sm(u), real_on_sm(v)
    elif min(len(u.coef), len(v.coef)) > 1:
        with pytest.raises(ValueError):
            u @ v
        return
    w = u @ v
    assert is_real_to_the_bit(w) or not real
    ref = convolve_modes(u, v)
    scale = max((np.abs(c).max() for c in ref.values()), default=1.0)
    for m in set(ref) | set(w.modes):
        expect = ref.get(m, np.zeros((3, 3, 16, 16)))
        assert np.abs(w.mode(m) - expect).max() <= 1e-13 * scale, m


@pytest.mark.parametrize(
    "lens, real",
    [((1, 3), False), ((5, 1), False), ((3, 5), False), ((13, 14), False),
     ((1, 3), True), ((5, 1), True), ((3, 5), True), ((25, 27), True)],
    ids=["lens0", "lens1", "lens2", "lens3", "1x3-real", "5x1-real", "3x5-real", "25x27-real"],
)
def test_bracket_is_the_commutator_of_products(lens, real):
    """bracket(u, v) samples each factor once; with a one-mode factor it is
    u @ v - v @ u bit for bit, otherwise the same to rounding.  Factors real
    on SM give a bracket real on SM to the bit; two complex multi-mode
    factors raise ValueError, as their product does."""
    met = curved(16)
    rng = np.random.default_rng(37)
    u, v = (
        FourierField.band(met, -(n // 2), rng.normal(size=(n, 3, 3, 16, 16))
                          + 1j * rng.normal(size=(n, 3, 3, 16, 16)))
        for n in lens
    )
    if real:
        u, v = real_on_sm(u), real_on_sm(v)
    elif min(lens) > 1:
        with pytest.raises(ValueError):
            bracket(u, v)
        return
    got = bracket(u, v)
    ref = u @ v - v @ u
    assert (got.lo, got.hi) == (ref.lo, ref.hi)
    assert is_real_to_the_bit(got) or not real
    if min(lens) == 1:
        assert np.array_equal(got.coef, ref.coef)
    else:
        assert np.abs(got.coef - ref.coef).max() <= 1e-14 * np.abs(ref.coef).max()


def test_sample_round_trip():
    met = curved(32)
    u = bandlimited_field(met, 3, seed=41)
    back = from_samples(met, sample(u, 16), degree=3)
    assert (u - back).l2_norm() < 1e-12


def test_reality_residual():
    met = curved(32)
    c = np.random.default_rng(5).normal(size=(3, 3, 32, 32)) + 0j
    real_field = FourierField(met, {1: c, -1: c.conj()})
    assert real_field.reality_residual() < 1e-15
    complex_field = FourierField(met, {1: c})
    assert complex_field.reality_residual() > 0.5


@pytest.mark.parametrize("lo, hi", [(-2, 2), (0, 0), (-1, 3), (-3, 0), (1, 2), (-4, -2)])
@pytest.mark.parametrize("kind", ["real", "random", "zero", "nan"])
def test_reality_residual_matches_whole_field_formula(lo, hi, kind):
    """reality_residual, from modes m >= 0 of the band padded to be
    symmetric, equals the max over the whole field minus its conjugate
    (oracles.band_reality_residual) bit for bit, on symmetric and asymmetric
    bands, a field real on SM, an all-zero band and a band holding a NaN."""
    met = curved(16)
    rng = np.random.default_rng(hi - lo)
    shape = (hi - lo + 1, 3, 3, 16, 16)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "real":
        coef = coef + np.conj(coef[::-1])
    elif kind == "zero":
        coef[:] = 0.0
    elif kind == "nan":
        coef[-1, 1, 2, 3, 4] = np.nan
    u = FourierField.band(met, lo, coef)
    got, ref = u.reality_residual(), band_reality_residual(u)
    assert got == ref or (np.isnan(got) and np.isnan(ref))


def test_norms_are_the_einsum_form():
    """l2_norm and grid_l2_norm, summed as re^2 + im^2, against the einsum
    of a band or grid with its conjugate on a curved metric; a zero field
    has norm exactly 0."""
    met = curved(32, ly=1.4)
    u = bandlimited_field(met, 2, seed=5)
    ref = np.sqrt(l2_inner(u, u).real)
    assert abs(u.l2_norm() - ref) <= 1e-14 * ref
    dxdy = (met.lx / met.nx) * (met.ly / met.ny)
    for grid in (u.mode(1), u.mode(0).real):
        ref = np.sqrt(np.einsum("ijyx,ijyx,yx->", grid, np.conj(grid), met.e_2lam).real * dxdy)
        assert abs(grid_l2_norm(met, grid) - ref) <= 1e-14 * ref
        fiber = grid_l2_norm(met, grid, fiber=True)
        assert abs(fiber - np.sqrt(2 * np.pi) * ref) <= 1e-14 * fiber
    zero = np.zeros((3, 3, met.ny, met.nx))
    assert FourierField(met, {-1: zero, 1: zero}).l2_norm() == 0.0
    assert grid_l2_norm(met, zero) == 0.0
    assert grid_l2_norm(met, zero.astype(complex), fiber=True) == 0.0


def test_identity_inner_product():
    """<Id, Id> = 2 pi * trace(Id) * area = 6 pi * area."""
    met = curved(48, ly=1.7)
    ident = FourierField.identity(met)
    got = l2_inner(ident, ident)
    area = met.e_2lam.mean() * met.lx * met.ly
    assert abs(got - 6 * np.pi * area) < 1e-10
    assert abs(got - ident.l2_norm() ** 2) < 1e-10


def test_vertical_multiplies_by_im():
    met = TorusMetric.flat(32, 32)
    c = np.ones((3, 3, 32, 32), dtype=complex)
    u = FourierField(met, {2: c, -1: c})
    v = vertical(u)
    assert np.abs(v.mode(2) - 2j * c).max() < 1e-15
    assert np.abs(v.mode(-1) + 1j * c).max() < 1e-15


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
    via_forms = ((dg - 1j * hodge_star(dg)) * 0.5).mode(-1)
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
    twisted = FourierField(met, {1: 1j * f.mode(1), -1: f.mode(-1)})
    with pytest.raises(ValueError, match=r"^connection coefficients' imaginary part "
                       r"\d\.\d{3}e[-+]\d+ exceeds \d\.\de-\d+$"):
        Connection.from_field(twisted)


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


def _special_band(rng, met, lo, n):
    """A band of modes lo .. lo + n - 1 whose real and imaginary parts are
    _special values: NaN, +-inf and signed zeros among normal ones."""
    shape = (n, 3, 3, met.ny, met.nx)
    coef = np.empty(shape, dtype=complex)
    coef.real = _special(rng, shape, float)
    coef.imag = _special(rng, shape, float)
    return FourierField.band(met, lo, coef)


@pytest.mark.parametrize("u_band, v_band", [
    ((-1, 3), (0, 3)),    # overlapping
    ((-2, 5), (0, 1)),    # v nested in u
    ((0, 1), (-2, 5)),    # u nested in v
    ((-3, 2), (1, 2)),    # disjoint, gap -1..0
    ((2, 2), (-3, 2)),    # disjoint, gap -1..1, v below
    ((0, 2), (2, 1)),     # adjacent
    ((0, 1), (0, 1)),     # one mode each
    ((1, 1), (-1, 1)),    # one mode each, gap 0
])
def test_band_sum_and_difference_match_padded_oracle_bit_for_bit(u_band, v_band):
    """u + v and u - v against the zero-padded band arithmetic they replace
    (oracles.padded_band_op): the same band and every value (NaN where the
    oracle has NaN) and every sign bit outside NaN.  Modes of v alone must be
    0.0 + v_m and 0.0 - v_m, which turn a -0.0 of v into +0.0."""
    met = TorusMetric.flat(16, 16)
    rng = np.random.default_rng([m + 3 for m in u_band + v_band])
    u, v = _special_band(rng, met, *u_band), _special_band(rng, met, *v_band)
    with np.errstate(invalid="ignore"):  # inf - inf
        for got, ufunc in ((u + v, np.add), (u - v, np.subtract)):
            ref = padded_band_op(u, v, ufunc)
            assert got.lo == ref.lo and got.coef.shape == ref.coef.shape
            assert got.coef.dtype == ref.coef.dtype
            g, r = _parts(got.coef), _parts(ref.coef)
            assert np.array_equal(g, r, equal_nan=True)
            assert not ((np.signbit(g) != np.signbit(r)) & ~np.isnan(r)).any()


def _real_band(rng, met, k):
    """A band real on SM of modes -k..k: c_{-m} = conj(c_m), mode 0 with a
    -0.0 imaginary part (conjugated to +0.0) and -0.0 entries elsewhere."""
    coef = _random(rng, (2 * k + 1, 3, 3, met.ny, met.nx), True)
    coef[k].imag = -0.0
    coef[k:][rng.random(coef[k:].shape) < 0.2] = complex(-0.0, -0.0)
    coef[:k] = np.conj(coef[:k:-1])
    return coef


def test_is_real_matches_conjugate_copy_oracle():
    """_is_real against the conjugate-copy test it replaced: bands real on
    SM with signed-zero and infinite entries, a band with lo != -hi, NaN in
    two conjugate places (real) and in one place only (not real), one
    flipped bit of an imaginary part and a one-mode band."""
    met = TorusMetric.flat(16, 16)
    rng = np.random.default_rng(7)
    cases = []
    for k in (0, 1, 3):
        cases.append((FourierField.band(met, -k, _real_band(rng, met, k)), True))
    inf = _real_band(rng, met, 2)
    inf[3, 0, 1] = complex(np.inf, -np.inf)
    inf[1, 0, 1] = complex(np.inf, np.inf)
    cases.append((FourierField.band(met, -2, inf), True))
    cases.append((FourierField.band(met, -1, _real_band(rng, met, 2)), False))
    cases.append((FourierField.band(met, 0, _real_band(rng, met, 2)[2:]), False))
    nan = _real_band(rng, met, 2)
    nan[3, 2, 0] = nan[1, 2, 0] = complex(np.nan, 0.0)
    cases.append((FourierField.band(met, -2, nan), True))
    one_nan = _real_band(rng, met, 2)
    one_nan[3, 2, 0] = complex(np.nan, 0.0)
    cases.append((FourierField.band(met, -2, one_nan), False))
    flip = _real_band(rng, met, 1)
    flip.imag[2, 1, 1, 0, 0] = np.nextafter(flip.imag[2, 1, 1, 0, 0], np.inf)
    cases.append((FourierField.band(met, -1, flip), False))
    imag0 = _real_band(rng, met, 0)
    imag0[0, 0, 0, 1, 1] += 1e-300j
    cases.append((FourierField.band(met, 0, imag0), False))
    for u, expect in cases:
        assert _is_real(u) is conjugate_is_real(u) is expect


@pytest.mark.parametrize("n", range(1, 62))
def test_dft_matrix_fiber_transforms_match_fft(n):
    """The real synthesis and analysis matrices of the product (_real_angles,
    _real_modes) against an FFT along the fiber axis (oracles.sample), at
    the nt = 2n - 1 samples of a product of degree k = n - 1: a factor of
    degree k and one of degree k // 2 are sampled, and the modes -k..k of
    their samples give the factor back, real on SM to the bit."""
    met = TorusMetric.flat(16, 16)
    rng = np.random.default_rng(n)
    k, nt = n - 1, 2 * n - 1
    for deg in (k, k // 2):
        u = FourierField.band(met, -deg, _real_band(rng, met, deg))
        vals = _real_angles(u, nt)
        ref = sample(u, nt)
        assert vals.dtype == np.float64
        assert np.abs(vals - ref).max() <= 1e-13 * np.abs(ref).max()
        back = _real_modes(vals, k)
        want = np.zeros_like(back)
        want[k - deg : k + deg + 1] = u.coef
        assert is_real_to_the_bit(FourierField.band(met, -k, back))
        assert np.abs(back - want).max() <= 1e-13 * np.abs(want).max()


def test_modes_are_grid_views_and_file_layout_is_unchanged():
    """A mode is the band's own (3, 3, ny, nx) slice; a file still lays each
    mode grid out point by point."""
    met = curved(16)
    rng = np.random.default_rng(3)
    grids = {m: _random(rng, (3, 3, 16, 16), True) for m in (-2, 0, 1)}
    f = FourierField(met, grids)
    assert f.coef.shape == (4, 3, 3, 16, 16)
    assert np.array_equal(f.coef[1], np.zeros((3, 3, 16, 16)))
    assert set(f.modes) == {-2, -1, 0, 1}
    for m, grid in f.modes.items():
        assert grid.shape == (3, 3, 16, 16) and np.shares_memory(grid, f.coef)
        assert np.array_equal(grid, f.mode(m))
        assert np.array_equal(grid, grids.get(m, np.zeros((3, 3, 16, 16))))
    assert np.array_equal(f.coef, np.stack([f.mode(m) for m in range(-2, 2)]))
    # a file holds the modes m >= 0 of a real field, row-major (y, x, i, j)
    grids[0] = grids[0].real
    grids[2] = np.conj(grids.pop(-2))
    grids[-1] = np.conj(grids[1])
    real = FourierField(met, {**grids, -2: np.conj(grids[2])})
    entries = fieldio.field_to_json(real)["modes"]
    assert [e["m"] for e in entries] == [0, 1, 2]
    for entry in entries:
        grid = points(grids[entry["m"]])
        assert np.array_equal(read_mode_grid(entry["re"]), grid.real.ravel())
        if entry["m"]:
            assert np.array_equal(read_mode_grid(entry["im"]), grid.imag.ravel())
        else:
            assert "im" not in entry


def test_dbar_a_zero_connection_is_eta_minus():
    met = curved(32)
    g = bandlimited_field(met, 0, seed=8).mode(0)
    expect = eta_minus(FourierField.from_grid(met, g)).mode(-1)
    assert np.array_equal(d_A(g, Connection.zero(met)).mode(-1), expect)
