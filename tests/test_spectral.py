import numpy as np
import pytest

from cocyclelab import interp
from cocyclelab.interp import PeriodicCubic2D
from cocyclelab.smfield import Pair
from cocyclelab.spectral import dbar, deriv, dz, refine_grid
from cocyclelab.torus import TorusMetric
from oracles import cauchy_riemann_two_deriv, nyquist_shell_max, spline_eval_fancy


def _trig(nx, ny, lx, ly):
    x = lx * np.arange(nx) / nx
    y = ly * np.arange(ny) / ny
    xg, yg = np.meshgrid(x, y, indexing="xy")
    return xg, yg


def test_deriv_matches_analytic():
    nx, ny, lx, ly = 48, 32, 2.0, 1.5
    xg, yg = _trig(nx, ny, lx, ly)
    f = np.sin(2 * np.pi * 3 * xg / lx) * np.cos(2 * np.pi * 2 * yg / ly)
    fx = (2 * np.pi * 3 / lx) * np.cos(2 * np.pi * 3 * xg / lx) * np.cos(2 * np.pi * 2 * yg / ly)
    fy = -(2 * np.pi * 2 / ly) * np.sin(2 * np.pi * 3 * xg / lx) * np.sin(2 * np.pi * 2 * yg / ly)
    assert np.abs(deriv(f, lx, axis=1) - fx).max() < 1e-11
    assert np.abs(deriv(f, ly, axis=0) - fy).max() < 1e-11


def test_dbar_dz_analytic_oracle():
    """dbar = (d/dx + i d/dy)/2 and dz = (d/dx - i d/dy)/2 on a trig
    polynomial with known partials."""
    nx = ny = 64
    lx, ly = 1.0, 1.5
    xg, yg = _trig(nx, ny, lx, ly)
    px = 2 * np.pi / lx
    py = 2 * np.pi / ly
    f = np.cos(2 * px * xg - py * yg + 0.4) + 0.3 * np.sin(px * xg)
    s = np.sin(2 * px * xg - py * yg + 0.4)
    fx = -2 * px * s + 0.3 * px * np.cos(px * xg)
    fy = py * s
    assert np.abs(dbar(f, lx, ly) - 0.5 * (fx + 1j * fy)).max() < 1e-10
    assert np.abs(dz(f, lx, ly) - 0.5 * (fx - 1j * fy)).max() < 1e-10


@pytest.mark.parametrize("axes", [(0, 1), (3, 4)])
@pytest.mark.parametrize("complex_", [False, True])
def test_dbar_dz_match_two_deriv_route(axes, complex_):
    """The one-fft2 dbar and dz against one 1-D derivative per axis, on
    white-noise data (every wavenumber, Nyquist included) on a 24 x 32 grid
    with lx != ly, with the grid leading or trailing."""
    rng = np.random.default_rng(11)
    shape = (24, 32, 3, 3) if axes == (0, 1) else (2, 3, 3, 24, 32)
    data = rng.normal(size=shape)
    if complex_:
        data = data + 1j * rng.normal(size=shape)
    lx, ly = 1.3, 0.7
    for op, sign in ((dbar, 1), (dz, -1)):
        ref = cauchy_riemann_two_deriv(data, lx, ly, axes, sign)
        err = np.abs(op(data, lx, ly, axes=axes) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max()


def test_dbar_conjugate_roles():
    """Conjugation swaps the split derivatives: dz(conj f) = conj(dbar f)."""
    nx = ny = 48
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    f = np.exp(1j * np.cos(2 * np.pi * xg)) * np.sin(2 * np.pi * yg)
    lhs = dz(np.conj(f), 1.0, 1.0)
    rhs = np.conj(dbar(f, 1.0, 1.0))
    assert np.abs(lhs - rhs).max() < 1e-11
    # additivity back to the full x-derivative
    from cocyclelab.spectral import deriv

    assert np.abs(dbar(f, 1.0, 1.0) + dz(f, 1.0, 1.0)
                  - deriv(f, 1.0, axis=1)).max() < 1e-11


def test_deriv_extra_axes():
    nx = ny = 32
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    f = np.stack([np.sin(2 * np.pi * xg), np.cos(2 * np.pi * xg)], axis=-1)
    d = deriv(f, 1.0, axis=1)
    assert np.abs(d[..., 0] - 2 * np.pi * np.cos(2 * np.pi * xg)).max() < 1e-11


def test_nyquist_shell_detects_roughness():
    nx = ny = 32
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    smooth = np.cos(2 * np.pi * xg)
    rough = smooth + 0.1 * np.cos(np.pi * nx * xg)  # Nyquist wiggle
    assert nyquist_shell_max(smooth) < 1e-14
    assert nyquist_shell_max(rough) > 1e-3


def test_refine_grid_reproduces_bandlimited():
    nx = ny = 16
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    f = 0.7 + np.sin(2 * np.pi * xg) * np.cos(2 * np.pi * 3 * yg)
    fine = refine_grid(f, 4)
    xg4, yg4 = _trig(4 * nx, 4 * ny, 1.0, 1.0)
    expected = 0.7 + np.sin(2 * np.pi * xg4) * np.cos(2 * np.pi * 3 * yg4)
    assert np.abs(fine - expected).max() < 1e-12


def test_interp_spectral_accuracy_on_bandlimited():
    nx = ny = 32
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    f = np.cos(2 * np.pi * (2 * xg - yg) + 0.4)
    itp = PeriodicCubic2D(f[..., None], 1.0, 1.0)
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 1, 400)
    ys = rng.uniform(0, 1, 400)
    got = itp(xs, ys)[:, 0]
    expected = np.cos(2 * np.pi * (2 * xs - ys) + 0.4)
    assert np.abs(got - expected).max() < 1e-6
    # doubling the grid should cut the error by about 2^4
    f2 = np.cos(2 * np.pi * (2 * _trig(64, 64, 1.0, 1.0)[0]
                             - _trig(64, 64, 1.0, 1.0)[1]) + 0.4)
    itp2 = PeriodicCubic2D(f2[..., None], 1.0, 1.0)
    err1 = np.abs(got - expected).max()
    err2 = np.abs(itp2(xs, ys)[:, 0] - expected).max()
    assert err2 < err1 / 8


def test_interp_exact_on_grid_points():
    rng = np.random.default_rng(8)
    f = rng.normal(size=(24, 24))
    fs = np.fft.ifft2(np.fft.fft2(f) * (np.abs(np.fft.fftfreq(24)) < 0.2)[:, None]
                      * (np.abs(np.fft.fftfreq(24)) < 0.2)[None, :]).real
    itp = PeriodicCubic2D(fs[..., None], 1.0, 1.0)
    xs = np.arange(24) / 24.0
    got = itp(xs, np.zeros(24))[:, 0]
    assert np.abs(got - fs[0]).max() < 1e-9


def test_interp_channels_and_chunking():
    """A call on more points than one chunk equals the same points evaluated
    in slices, bit for bit."""
    nx = ny = 32
    xg, yg = _trig(nx, ny, 1.0, 1.0)
    data = np.stack([np.sin(2 * np.pi * xg), np.cos(2 * np.pi * yg)], axis=-1)
    itp = PeriodicCubic2D(data, 1.0, 1.0)
    rng = np.random.default_rng(3)
    n = 2 * interp.CHUNK + 1000
    xs = rng.uniform(-2, 2, n) % 1.0
    ys = rng.uniform(-2, 2, n) % 1.0
    whole = itp(xs, ys)
    sliced = np.concatenate([itp(xs[lo : lo + 700], ys[lo : lo + 700]) for lo in range(0, n, 700)])
    assert whole.shape == (n, 2)
    assert np.array_equal(whole, sliced)
    assert np.abs(whole[:, 0] - np.sin(2 * np.pi * xs)).max() < 2e-7


def test_interp_flat_take_matches_fancy_index():
    """The stencil gathered by one take at flat indices gy * nx + gx gives
    the values of the 2-D fancy index coef[gy, gx], bit for bit: on a
    non-square grid with unequal sides and 9 channels, at points far outside
    the period and on grid lines, so every wrap of both axes is taken."""
    rng = np.random.default_rng(27)
    itp = PeriodicCubic2D(rng.normal(size=(24, 40, 9)), 1.3, 0.7)
    n = 3000
    xs = np.concatenate([rng.uniform(-5, 5, n), 1.3 * np.arange(-3, 4) / 40])
    ys = np.concatenate([rng.uniform(-5, 5, n), 0.7 * np.arange(-3, 4) / 24])
    got = itp(xs, ys)
    ref = spline_eval_fancy(itp, xs, ys)
    assert got.shape == ref.shape == (n + 7, 9)
    assert got.tobytes() == ref.tobytes()


def _two_pass_coefficients(data, factor):
    """The spline build as refinement, then a second forward FFT, the
    division by the B-spline symbol and a second inverse FFT."""
    fine = refine_grid(data, factor)
    ny, nx = fine.shape[:2]
    f = np.fft.fft2(fine, axes=(0, 1))
    f /= ((4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny)) / 6.0)[:, None, None]
    f /= ((4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx)) / 6.0)[None, :, None]
    return np.fft.ifft2(f, axes=(0, 1)).real


def test_interp_one_pass_build_matches_refine_then_prefilter():
    rng = np.random.default_rng(12)
    for shape, factor in (((32, 32, 9), 4), ((24, 40, 5), 4), ((8, 194, 3), 2)):
        data = rng.normal(size=shape)
        got = PeriodicCubic2D(data, 1.0, 2.0).coef
        ref = _two_pass_coefficients(data, factor)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _bandlimited(rng, shape, keep):
    """Random real data with wavenumbers |k| < keep * n on both axes."""
    f = np.fft.fft2(rng.normal(size=shape), axes=(0, 1))
    my = np.abs(np.fft.fftfreq(shape[0])) < keep
    mx = np.abs(np.fft.fftfreq(shape[1])) < keep
    return np.fft.ifft2(f * (my[:, None] & mx)[:, :, None], axes=(0, 1)).real


@pytest.mark.parametrize("shape", [(16, 16, 3), (32, 48, 9), (48, 48, 27), (8, 194, 5)])
def test_interp_direct_and_tensor_orders_agree(shape):
    """A call on at most fy * fx / nx points contracts the data directly
    against each point's axis rows, one more point takes the fine-grid
    coefficient tensor; on band-limited data, at points far outside the
    period and on grid lines, the two agree to 1e-14 of the largest value."""
    rng = np.random.default_rng(sum(shape))
    ny, nx = shape[:2]
    itp = PeriodicCubic2D(_bandlimited(rng, shape, 0.3), 1.3, 0.7)
    limit = itp.ny * itp.nx // nx
    assert limit == (4 if max(ny, nx) <= 192 else 2) ** 2 * ny
    xs = np.concatenate([1.3 * np.arange(-3, 4) / nx, rng.uniform(-5, 5, limit - 6)])
    ys = np.concatenate([0.7 * np.arange(-3, 4) / ny, rng.uniform(-5, 5, limit - 6)])
    tensor = itp(xs, ys)
    assert itp._coef is not None
    direct = itp(xs[:limit], ys[:limit])
    assert direct.shape == (limit, shape[2]) and tensor.shape == (limit + 1, shape[2])
    assert np.abs(direct - tensor[:limit]).max() <= 1e-14 * np.abs(tensor).max()


def test_interp_rejects_complex_and_odd_data():
    with pytest.raises(TypeError):
        PeriodicCubic2D(np.ones((8, 8, 2), dtype=complex), 1.0, 1.0)
    with pytest.raises(ValueError):
        PeriodicCubic2D(np.ones((8, 7, 2)), 1.0, 1.0)


def test_interp_rejects_points_of_different_shapes():
    """x and y are paired by flat order only when their shapes agree: both
    contraction orders (up to 256 points at 16^2, and above) refuse a
    mismatch, and so does the evaluator of FourierField.interpolant for x,
    y and theta."""
    itp = PeriodicCubic2D(np.ones((16, 16, 2)), 1.0, 1.0)
    for xshape, yshape in (((5,), (1,)), ((2, 3), (6,)), ((300,), (1,)), ((2, 300), (600,))):
        with pytest.raises(ValueError, match="one shape"):
            itp(np.zeros(xshape), np.zeros(yshape))
    at = Pair.trivial(TorusMetric.flat(16, 16)).trivializer.interpolant()
    assert at(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))).shape == (2, 3, 3, 3)
    for shapes in (((5,), (1,), (5,)), ((2, 3), (6,), (2, 3)), ((2, 3), (2, 3), (6,)),
                   ((300,), (300,), (1,))):
        with pytest.raises(ValueError, match="one shape"):
            at(*(np.zeros(s) for s in shapes))
