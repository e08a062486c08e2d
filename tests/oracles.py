"""Reference computations the tests compare the package against.

Each one takes a route independent of the code it checks: frame derivatives
taken literally in (x, y, theta), a field's fiber samples and the field of
given samples by an FFT along the fiber axis, dbar and dz from one 1-D
derivative per axis, the metric's derivatives from its grid samples, the transport generator
from a spline of its coefficient grids, a Cauchy integral for p', a
finite-difference speed, readers of the files the package writes, and the
frame-transfer identity of a trivializing u, the 3x3 product as nine planes
of three plane products, the sum and difference of two bands on a
zero-padded band, the modes -K..K of a field written out (full_band) and a
field from them (half_band), the transport CSV
written value by value, the Rodrigues exponential of so(3), the lattice
invariants g2, g3 from Eisenstein series, the covariant dbar from its own
eta_minus, the mode -1 holomorphy routes with each route transforming the
projector on its own, the inverse Backlund step with the q-lemma rows and
the round-trip distance that certify it, the axis of a trivializer's top
mode by a per-point SVD and a column pick, the su(2) isomorphism ell, the
matrix commutator of point arrays, a spline evaluation that gathers its
stencil by a 2-D fancy index, the geodesic RK4 loop on Python floats with
one call per stage (the bits the generated loop must reproduce), and the
largest FFT coefficient on a grid's Nyquist rows.  No verb runs them.  The
SU(2) lift of a sampled SO(3) loop (polar projection, rotation angle and a
quaternion product along the loop) lives here too, with the parity of a
trivializer's fiber loop that it gives: the doubling tests read it, and no
verb does.  So do the sections the holomorphy tests sweep: random elliptic families and
band-limited random unit sections (the negative control).  Grids are
(3, 3, ny, nx), as in the package; hat_grid and points move a lie3 point
array to a grid and back.
"""

import base64
import io
import math

import numpy as np

from cocyclelab import backlund as bk
from cocyclelab import fieldio as fio
from cocyclelab import interp
from cocyclelab import smfield as sm
from cocyclelab import spectral
from cocyclelab.backlund import UnitSection, holomorphic_g_factory, projector
from cocyclelab.elliptic import _check_aspect, weierstrass_p
from cocyclelab.errors import CocycleLabError
from cocyclelab.interp import PeriodicCubic2D
from cocyclelab.lie3 import hat, inner, vee
from cocyclelab.torus import TorusMetric, _eval_harmonics


def lambda_and_grad_at(metric, x, y):
    """(lambda, lambda_x, lambda_y) of a TorusMetric at arbitrary points
    (periodic), from its harmonic series."""
    return _eval_harmonics(metric._series, np.asarray(x, dtype=float),
                           np.asarray(y, dtype=float))


def float_loop_geodesic(metric, p0, t_final, dt):
    """(xs, ys, thetas, times) of classical RK4 on Python floats, one rhs
    call per stage, each evaluating the harmonic series term by term with
    math.cos and math.sin: the loop integrate_geodesic ran before its loop
    was generated per metric, and the bits that loop must reproduce."""
    nsteps = max(1, int(round(abs(t_final) / dt)))
    x, y, th = float(p0.x), float(p0.y), float(p0.theta)
    series = metric._series
    cos, sin, exp = math.cos, math.sin, math.exp

    def eval_harmonics(x, y):
        lam = lam_x = lam_y = 0.0 * x
        for amp, ax, phase_x, ay, phase_y in series:
            if ax:
                cx = cos(ax * x + phase_x)
                sx = sin(ax * x + phase_x)
            else:
                cx, sx = 1.0, 0.0
            if ay:
                cy = cos(ay * y + phase_y)
                sy = sin(ay * y + phase_y)
            else:
                cy, sy = 1.0, 0.0
            lam = lam + amp * cx * cy
            lam_x = lam_x + -amp * ax * sx * cy
            lam_y = lam_y + -amp * ay * cx * sy
        return lam, lam_x, lam_y

    def rhs(x, y, th):
        lam, lam_x, lam_y = eval_harmonics(x, y)
        e = exp(-lam)
        c, s = cos(th), sin(th)
        return e * c, e * s, e * (-lam_x * s + lam_y * c)

    h = t_final / nsteps
    xs, ys, ts = [x], [y], [th]
    for _ in range(nsteps):
        ax1, ay1, at1 = rhs(x, y, th)
        ax2, ay2, at2 = rhs(x + 0.5 * h * ax1, y + 0.5 * h * ay1, th + 0.5 * h * at1)
        ax3, ay3, at3 = rhs(x + 0.5 * h * ax2, y + 0.5 * h * ay2, th + 0.5 * h * at2)
        ax4, ay4, at4 = rhs(x + h * ax3, y + h * ay3, th + h * at3)
        x += h / 6.0 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        y += h / 6.0 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
        th += h / 6.0 * (at1 + 2.0 * at2 + 2.0 * at3 + at4)
        xs.append(x)
        ys.append(y)
        ts.append(th)
    times = np.linspace(0.0, t_final, nsteps + 1)
    return np.array(xs), np.array(ys), np.array(ts), times


def nyquist_shell_max(grid: np.ndarray) -> float:
    """Largest normalized FFT coefficient magnitude on the Nyquist rows/cols."""
    g = np.asarray(grid)
    ny, nx = g.shape[:2]
    f = np.fft.fft2(g, axes=(0, 1)) / (nx * ny)
    mags = np.abs(f)
    while mags.ndim > 2:
        mags = mags.max(axis=-1)
    pieces = []
    if ny % 2 == 0:
        pieces.append(mags[ny // 2, :].max())
    if nx % 2 == 0:
        pieces.append(mags[:, nx // 2].max())
    return float(max(pieces)) if pieces else 0.0


def spectral_lambda_derivatives(metric):
    """(lam_x, lam_y, gauss) of a TorusMetric from its grid samples of lambda
    alone: spectral.deriv along each axis and a spectral Laplacian."""
    lam = metric.lam
    ky = spectral.wavenumbers(metric.ny, metric.ly)
    kx = spectral.wavenumbers(metric.nx, metric.lx)
    laplacian = np.fft.ifft2(-(ky[:, None] ** 2 + kx**2) * np.fft.fft2(lam)).real
    return (spectral.deriv(lam, metric.lx, axis=1), spectral.deriv(lam, metric.ly, axis=0),
            -np.exp(-2.0 * lam) * laplacian)


def coefficient_spline_generator(pair):
    """Evaluator (x, y, theta) -> B = a cos(theta) + b sin(theta) + Phi of a
    pair, from one bicubic spline over the 27 channels of its grids a, b and
    Phi; returns the points' shape + (3, 3)."""
    met = pair.metric
    grids = (pair.conn.a, pair.conn.b, pair.higgs.phi)
    spline = PeriodicCubic2D(
        np.concatenate([points(g).reshape(met.ny, met.nx, 9) for g in grids], axis=-1),
        met.lx, met.ly
    )

    def at(x, y, theta):
        x = np.asarray(x, dtype=float)
        vals = spline(x % met.lx, np.asarray(y, dtype=float) % met.ly)
        a, b, phi = np.moveaxis(vals.reshape(x.shape + (3, 3, 3)), -3, 0)
        th = np.asarray(theta, dtype=float)[..., None, None]
        return a * np.cos(th) + b * np.sin(th) + phi

    return at


def so3_exp(g: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t g) for skew g via the Rodrigues formula, batched.

    Uses series coefficients for small rotation angles so the result is
    orthogonal to rounding for any magnitude of t*|g|.
    """
    g = np.asarray(g, dtype=float)
    w = vee(g) * t
    ang = np.linalg.norm(w, axis=-1)
    small = ang < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - ang**2 / 6.0, np.sin(ang) / np.where(small, 1.0, ang))
        c = np.where(
            small, 0.5 - ang**2 / 24.0, (1.0 - np.cos(ang)) / np.where(small, 1.0, ang**2)
        )
    k = hat(w)
    return np.eye(3) + s[..., None, None] * k + c[..., None, None] * (k @ k)


def hat_grid(v: np.ndarray) -> np.ndarray:
    """hat of a (ny, nx, 3) vector field as a (3, 3, ny, nx) torus grid."""
    return np.moveaxis(hat(v), (-2, -1), (0, 1))


def points(grid: np.ndarray) -> np.ndarray:
    """A (3, 3, ny, nx) torus grid as the (ny, nx, 3, 3) point array that the
    lie3 helpers read."""
    return np.moveaxis(grid, (0, 1), (2, 3))


def so3_norm(g: np.ndarray) -> np.ndarray:
    """Pointwise norm sqrt(inner(g, g)) of so(3) values."""
    return np.sqrt(np.maximum(inner(g, g).real, 0.0))


def plane_matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise 3x3 product of (..., 3, 3, ny, nx) arrays as nine output
    planes, each a[i, 0] b[0, j] written out, then a[i, 1] b[1, j] and
    a[i, 2] b[2, j] added in place."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    dtype = np.result_type(a, b)
    out = np.empty(shape, dtype=dtype)
    tmp = np.empty(shape[:-4] + shape[-2:], dtype=dtype)
    for i, j in np.ndindex(3, 3):
        o = out[..., i, j, :, :]
        np.multiply(a[..., i, 0, :, :], b[..., 0, j, :, :], out=o)
        for k in (1, 2):
            o += np.multiply(a[..., i, k, :, :], b[..., k, j, :, :], out=tmp)
    return out


def padded_band_op(u: sm.FourierField, v: sm.FourierField, ufunc) -> sm.FourierField:
    """u + v (ufunc np.add) or u - v (np.subtract) on a zero band as long as
    the longer one: u is written into it, then v is combined in place."""
    coef = np.zeros((max(len(u.coef), len(v.coef)),) + u.coef.shape[1:], dtype=complex)
    coef[: len(u.coef)] = u.coef
    part = coef[: len(v.coef)]
    ufunc(part, v.coef, out=part)
    return sm.FourierField.band(u.metric, coef)


def full_band(u: sm.FourierField) -> np.ndarray:
    """The modes -K..K of a field, shape (2K + 1, 3, 3, ny, nx): mode -m
    written out as conj(c_m)."""
    return np.concatenate([np.conj(u.coef[:0:-1]), u.coef])


def half_band(metric, full: np.ndarray) -> sm.FourierField:
    """The field of a full band of modes -K..K that is real on SM: its modes
    m > 0 and the real part of its mode 0."""
    k = len(full) // 2
    coef = full[k:].copy()
    coef[0] = coef[0].real
    return sm.FourierField.band(metric, coef)


def band_norm(metric, full: np.ndarray) -> float:
    """The L2 norm of a full band of modes, from its pairing with itself."""
    return math.sqrt(sm.l2_inner(metric, full, full).real)


def sample(full: np.ndarray, ntheta: int) -> np.ndarray:
    """Values at the fiber angles theta_j = 2 pi j / ntheta of the full band
    of modes -K..K, shape (ntheta, 3, 3, ny, nx): mode m placed at index
    m mod ntheta, then an inverse FFT along the fiber axis."""
    k = len(full) // 2
    if ntheta < 2 * k + 1:
        raise ValueError("theta grid too coarse for the field degree")
    out = np.zeros((ntheta,) + full.shape[1:], dtype=complex)
    out[np.arange(-k, k + 1) % ntheta] = full
    return np.fft.ifft(out, axis=0) * ntheta


def from_samples(samples: np.ndarray, degree: int) -> np.ndarray:
    """The full band of modes -degree..degree with the given fiber samples
    (ntheta, 3, 3, ny, nx), by an FFT along the fiber axis: the inverse of
    sample, exact when ntheta > 2 degree."""
    samples = np.asarray(samples, dtype=complex)
    ntheta = samples.shape[0]
    if ntheta < 2 * degree + 1:
        raise ValueError("theta grid too coarse for the requested degree")
    coef = np.fft.fft(samples, axis=0) / ntheta
    return coef[np.arange(-degree, degree + 1) % ntheta]


def frame_apply(metric, samples: np.ndarray, op: str) -> np.ndarray:
    """Apply a frame vector field to a sampled function on the unit tangent bundle.

    samples: shape (ntheta, ny, nx) or (ntheta, 3, 3, ny, nx), uniformly
    sampled in all three periodic variables.  op is one of "X", "H", "V".
    Derivatives are spectral in every variable; the fiber grid must resolve
    the field (ntheta at least 4*(degree+1) is the convention used by the
    Fourier-mode code paths).
    """
    samples = np.asarray(samples)
    if samples.shape[-2:] != (metric.ny, metric.nx):
        raise ValueError("sample grid does not match the metric grid")
    ntheta = samples.shape[0]
    if op == "V":
        return spectral.deriv(samples, 2.0 * np.pi, axis=0)
    # the (ny, nx) grids broadcast against the trailing axes, theta along axis 0
    theta = (2.0 * np.pi * np.arange(ntheta) / ntheta).reshape((-1,) + (1,) * (samples.ndim - 1))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    lam_x, lam_y, e_neg = metric.lam_x, metric.lam_y, metric.e_neg_lam
    du_x = spectral.deriv(samples, metric.lx, axis=-1)
    du_y = spectral.deriv(samples, metric.ly, axis=-2)
    du_t = spectral.deriv(samples, 2.0 * np.pi, axis=0)
    if op == "X":
        return e_neg * (
            cos_t * du_x + sin_t * du_y + (-lam_x * sin_t + lam_y * cos_t) * du_t
        )
    if op == "H":
        return e_neg * (
            -sin_t * du_x + cos_t * du_y - (lam_x * cos_t + lam_y * sin_t) * du_t
        )
    raise ValueError(f"unknown frame op {op!r}")


def cauchy_riemann_two_deriv(arr, lx: float, ly: float, axes: tuple[int, int],
                             sign: int) -> np.ndarray:
    """(d/dx + sign i d/dy)/2 over axes = (y_axis, x_axis) from two separate
    spectral.deriv round trips, one per axis: dbar for sign = +1, dz for
    sign = -1."""
    ay, ax = axes
    return 0.5 * (spectral.deriv(arr, lx, ax) + sign * 1j * spectral.deriv(arr, ly, ay))


def p_derivative_cauchy(z0: complex, lx: float, ly: float, radius: float = 0.05,
                        n: int = 64) -> complex:
    """p'(z0) via the Cauchy integral on a small circle (independent of the
    series expression for the derivative)."""
    t = 2.0 * np.pi * np.arange(n) / n
    w = z0 + radius * np.exp(1j * t)
    vals = weierstrass_p(w, lx, ly)
    return complex(np.mean(vals * np.exp(-1j * t)) / radius)


def invariants(lx: float = 1.0, ly: float = 1.0) -> tuple[float, float]:
    """Lattice invariants (g2, g3) from Eisenstein q-series (real for
    rectangular lattices): the Laurent coefficients p(z) = 1/z^2 + g2 z^2/20
    + g3 z^4/28 + ... that the theta-series p must reproduce."""
    _check_aspect(lx, ly)
    qe = float(np.exp(-2.0 * np.pi * ly / lx))
    e4 = 1.0
    e6 = 1.0
    qn = 1.0
    for n in range(1, 64):
        qn *= qe
        if qn < 1e-300:
            break
        term = qn / (1.0 - qn)
        e4 += 240.0 * n**3 * term
        e6 -= 504.0 * n**5 * term
    g2 = (4.0 * np.pi**4 / 3.0) * e4 / lx**4
    g3 = (8.0 * np.pi**6 / 27.0) * e6 / lx**6
    return g2, g3


def unit_speed_residual(path) -> float:
    """Max deviation of the coordinate speed from e^{-lambda} along a
    GeodesicPath (finite-difference velocity against the conformal factor)."""
    vx = np.gradient(path.xs, path.times)
    vy = np.gradient(path.ys, path.times)
    lam, _, _ = lambda_and_grad_at(path.metric, path.xs, path.ys)
    speed2 = np.exp(2.0 * lam) * (vx**2 + vy**2)
    interior = slice(1, -1)
    return float(np.abs(speed2[interior] - 1.0).max())


def write_transport_csv(path, result) -> None:
    """The transport CSV formatted one value at a time, each value its own
    repr token."""
    buf = io.StringIO()
    buf.write(fio.CSV_HEADER + "\n")
    for t, c, d in zip(result.times, result.matrices, result.drift):
        row = [repr(float(t))]
        row.extend(repr(float(v)) for v in c.ravel())
        row.append(repr(float(d)))
        buf.write(",".join(row) + "\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def read_transport_csv(path) -> dict:
    """The columns of a file written by fieldio.write_transport_csv."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "times": data[:, 0],
        "matrices": data[:, 1:10].reshape(-1, 3, 3),
        "drift": data[:, 10],
    }


def read_mode_grid(payload: str) -> np.ndarray:
    """A mode grid of a field file (base64 of little-endian float64 bytes) as
    a flat float array, decoded with the base64 module."""
    return np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")


def mode_grid_payload(values) -> str:
    """The base64 payload a field file holds for a float array."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM back into pixel values (not rescaled)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM file")
    parts = data.split(b"\n", 3)
    nx, ny = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    raw = parts[3]
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    img = np.frombuffer(raw, dtype=dtype, count=nx * ny).reshape(ny, nx)
    return img.astype(float)


def frame_transfer_residual(pair) -> float:
    """Residual of V(A) = -u X(f) u^{-1} - H(u) u^{-1} with f = u^{-1} V(u),
    an identity that holds when the pair's trivializer u trivializes it;
    H = i (eta_plus - eta_minus) (smfield.frame_ops)."""
    u = pair.trivializer
    ut = u.transpose()
    f = ut @ sm.vertical(u)
    va = sm.vertical(pair.conn.as_field())
    t2 = u @ sm.x_op(f) @ ut
    t3 = sm.frame_ops(u)[1] @ ut
    res = va + t2 + t3
    den = va.l2_norm() + t2.l2_norm() + t3.l2_norm() + f.l2_norm() + 1e-300
    return res.l2_norm() / den


def section_family(metric: TorusMetric, count: int, seed: int) -> list[UnitSection]:
    """Random elliptic sections for sweep studies: log-normal scale with a
    random phase, normal complex offset, uniform off-grid pole location; the
    sweep measures their residuals."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x0 = float(rng.uniform(0.1, 0.9) * metric.lx + 0.3 * metric.lx / metric.nx)
        y0 = float(rng.uniform(0.1, 0.9) * metric.ly + 0.3 * metric.ly / metric.ny)
        mag = float(np.exp(rng.normal(0.0, 0.5)))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        scale = mag * np.exp(1j * phase)
        offset = complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))
        out.append(
            holomorphic_g_factory(metric, z0=(x0, y0), scale=scale, offset=offset)
        )
    return out


def random_unit_section(metric: TorusMetric, seed: int) -> UnitSection:
    """Band-limited random unit section (wavenumbers up to 2 per axis);
    generically fails the holomorphy gate, which makes it a negative control."""
    rng = np.random.default_rng(seed)
    xg, yg = np.meshgrid(
        2.0 * np.pi * np.arange(metric.nx) / metric.nx,
        2.0 * np.pi * np.arange(metric.ny) / metric.ny,
        indexing="xy",
    )
    n = np.zeros((metric.ny, metric.nx, 3))
    n[..., 2] = 1.0
    for c in range(3):
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                if kx == 0 and ky == 0:
                    continue
                amp = 0.6 * rng.normal() / (1 + kx * kx + ky * ky)
                n[..., c] += amp * np.cos(kx * xg + ky * yg + rng.uniform(0, 2 * np.pi))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return UnitSection(metric, n, meta={"kind": "random", "seed": seed})


def svd_column_axis(b_top: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(axis, mask, axis-norm-dev) of a trivializer's top mode b_N = C + iD
    by a per-point SVD and a column pick: the mask holds the points whose top
    singular value is below 1e-8 of its maximum, the axis is
    unit(Cy) x unit(Dy) for the column y of largest |Cy| (zero on the mask),
    and axis-norm-dev is max | |unit(Cy) x unit(Dy)| - 1 | off the mask."""
    pts = np.moveaxis(b_top, (0, 1), (2, 3))
    s1 = np.linalg.svd(pts, compute_uv=False)[..., 0]
    mask = s1 < 1e-8 * s1.max()
    col = np.argmax(np.linalg.norm(pts.real, axis=-2), axis=-1)[..., None, None]
    cy, dy = (np.take_along_axis(part, np.broadcast_to(col, part.shape[:-1] + (1,)), -1)[..., 0]
              for part in (pts.real, pts.imag))
    n = np.cross(cy / np.maximum(np.linalg.norm(cy, axis=-1, keepdims=True), 1e-300),
                 dy / np.maximum(np.linalg.norm(dy, axis=-1, keepdims=True), 1e-300))
    norms = np.linalg.norm(n, axis=-1)
    dev = float(np.abs(norms[~mask] - 1.0).max())
    return np.where(mask[..., None], 0.0, n / np.maximum(norms[..., None], 1e-300)), mask, dev


def dbar_A(g: np.ndarray, conn: sm.Connection) -> np.ndarray:
    """Covariant dbar of a matrix function of the base point, e^{-lam}
    dbar(g) + [A_{-1}, g], from its own eta_minus and two products with
    A_{-1}, not as mode -1 of smfield.d_A."""
    c = sm.eta_minus(conn.metric, g[None], [0])[0]
    if not conn.is_zero():
        am1 = conn.mode(-1)
        c = c + sm._matmul3(am1, g) - sm._matmul3(g, am1)
    return c


def dbar_routes_reference(g: UnitSection, conn: sm.Connection,
                          q: np.ndarray) -> dict[str, float]:
    """The dbar-bracket, subbundle and projector residuals of
    backlund.holomorphy_residuals, with the dbar-bracket taken from the given
    q = dbar_A g, the subbundle route through eta_minus twisted by A_{-1} (the
    product taken even for a zero connection) and the projector route
    through dbar_A above, so pi is transformed once per route."""
    met = g.metric
    res2_g = q - 1j * (sm._matmul3(q, g.grid) - sm._matmul3(g.grid, q))
    den2 = sm.grid_l2_norm(met, q) + sm.grid_l2_norm(met, g.grid) + 1e-300
    res2 = sm.grid_l2_norm(met, res2_g) / den2

    pi = projector(g)
    pi_perp = np.eye(3)[:, :, None, None] - pi
    ds = sm.eta_minus(met, pi[None], [0], conn.mode(-1))[0]
    num3 = np.sqrt((np.abs(sm._matmul3(pi_perp, ds)) ** 2).sum())
    dencols = np.sqrt((np.abs(ds) ** 2).sum(axis=(0, 2, 3))).sum()
    res3 = float(num3 / (1e-300 + dencols + np.sqrt((np.abs(pi) ** 2).sum())))

    dpi = dbar_A(pi, conn)
    den4 = sm.grid_l2_norm(met, dpi) + sm.grid_l2_norm(met, pi) + 1e-300
    res4 = sm.grid_l2_norm(met, sm._matmul3(dpi, pi)) / den4
    return {"dbar-bracket": res2, "subbundle": res3, "projector": res4}


def q_lemma_residuals(cert: bk.BacklundCertificate) -> dict[str, float]:
    """Certificates for q = a g a^{-1} on the output pair, with q computed
    as that product (it is g, since a = exp(theta g) commutes with g):

      vertical      V(q) = 0 (off-mode content of a g a^{-1})
      covariant     d_{A_g} q = [a Phi a^{-1}, q]
      star-bracket  d_{A_g} q + [*d_{A_g} q, q] = 0

    The last one makes -q an admissible axis section for the inverse step.
    """
    met = cert.pair_in.metric
    a, at = cert.vertical, cert.vertical.transpose()
    full = a @ cert.g.field() @ at
    q_tot = max(full.l2_norm(), 1e-300)
    q_off = bk._off_modes(full, 0, q_tot)
    q = bk._real_skew(met, full.coef[0].real)[0]
    qf = sm.FourierField.from_grid(met, q)
    conn_out = cert.pair_out.conn
    dq = sm.d_A(q, conn_out)
    rhs = a @ cert.pair_in.higgs.as_field() @ at
    rhs_brk = sm.bracket(rhs, qf)
    den = dq.l2_norm() + rhs_brk.l2_norm() + sm.grid_l2_norm(met, q) + 1e-300
    covariant = (dq - rhs_brk).l2_norm() / den
    star_dq = sm.hodge_star(dq)
    res3 = dq + sm.bracket(star_dq, qf)
    star = res3.l2_norm() / den
    return {
        "vertical": q_off,
        "covariant": covariant,
        "star-bracket": star,
    }


def inverse_backlund(
    cert: bk.BacklundCertificate, gmero_tol: float = bk.DEFAULT_GMERO_TOL
) -> bk.BacklundCertificate:
    """Undo a transform step: run the forward transform on the output pair
    with axis section -q = -g, whose vertical solution exp(-theta g) is
    a^{-1} = a^T."""
    g_inv = UnitSection(cert.g.metric, -cert.g.axis, meta={"kind": "inverse"})
    return bk.backlund_transform(cert, g_inv, gmero_tol=gmero_tol)


def round_trip_residuals(cert_fwd: bk.BacklundCertificate,
                         cert_back: bk.BacklundCertificate) -> dict[str, float]:
    """Relative distance between the original pair and the inverse-transform
    output: connection, Higgs field and trivializer."""
    a0, b0 = cert_fwd.pair_in.conn.a, cert_fwd.pair_in.conn.b
    a1, b1 = cert_back.pair_out.conn.a, cert_back.pair_out.conn.b
    met = cert_fwd.pair_in.metric
    conn_scale = cert_fwd.pair_in.conn.norm() + 1.0
    dconn = np.sqrt(
        sm.grid_l2_norm(met, a1 - a0) ** 2 + sm.grid_l2_norm(met, b1 - b0) ** 2
    ) / conn_scale
    dphi = sm.grid_l2_norm(met, cert_back.pair_out.higgs.phi - cert_fwd.pair_in.higgs.phi) \
        / (cert_fwd.pair_in.higgs.norm() + 1.0)
    du = (cert_back.pair_out.trivializer - cert_fwd.pair_in.trivializer).l2_norm() \
        / cert_fwd.pair_in.trivializer.l2_norm()
    return {"conn": float(dconn), "higgs": float(dphi), "trivializer": float(du)}


def ell(g: np.ndarray) -> np.ndarray:
    """Lie algebra isomorphism so(3) -> su(2), half the quaternion cover's
    derivative.

    In axis coordinates v = vee(g) it sends hat(v) to
    (1/2) [[ i v3, -v2 + i v1 ], [ v2 + i v1, -i v3 ]],
    which maps the standard basis brackets onto each other.  For a unit
    section value g, ell(2g) squares to -Id.
    """
    v = vee(g)
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5j * v[..., 2]
    out[..., 0, 1] = 0.5 * (-v[..., 1] + 1j * v[..., 0])
    out[..., 1, 0] = 0.5 * (v[..., 1] + 1j * v[..., 0])
    out[..., 1, 1] = -0.5j * v[..., 2]
    return out


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] = ab - ba of point arrays (..., 3, 3) or (..., 2, 2)."""
    return a @ b - b @ a


def spline_eval_fancy(spline: PeriodicCubic2D, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PeriodicCubic2D at 1-D point arrays x, y with the 4x4 stencil gathered
    by a 2-D fancy index coef[gy, gx], the gather the spline's flat take
    replaces; shape (P, C)."""
    tx = x / spline.lx * spline.nx
    ty = y / spline.ly * spline.ny
    ix = np.floor(tx)
    iy = np.floor(ty)
    wx = interp._bspline_weights(tx - ix)
    wy = interp._bspline_weights(ty - iy)
    gx = (ix[:, None].astype(int) + np.arange(-1, 3)) % spline.nx
    gy = (iy[:, None].astype(int) + np.arange(-1, 3)) % spline.ny
    patch = spline.coef[gy[:, :, None], gx[:, None, :]].reshape(x.size, 16, -1)
    w = (wy[:, :, None] * wx[:, None, :]).reshape(x.size, 1, 16)
    return (w @ patch)[:, 0]


class SamplingTooCoarse(CocycleLabError):
    """Consecutive samples of a rotation loop differ by too large an angle to lift."""


MAX_LIFT_STEP = np.pi / 4


def polar_project(r: np.ndarray) -> np.ndarray:
    """Nearest special-orthogonal matrix (Frobenius) via SVD, batched."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    det = np.linalg.det(u @ vt)
    fix = np.ones(u.shape[:-2] + (3,))
    fix[..., -1] = np.sign(det)
    return (u * fix[..., None, :]) @ vt


def rotation_angle(r: np.ndarray) -> np.ndarray:
    tr = np.einsum("...ii->...", r)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def _quat_from_small_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation with angle < pi/2."""
    tr = np.einsum("...ii->...", r)
    w = 0.5 * np.sqrt(np.maximum(1.0 + tr, 0.0))
    s = 0.25 / w
    return np.stack(
        [
            w,
            s * (r[..., 2, 1] - r[..., 1, 2]),
            s * (r[..., 0, 2] - r[..., 2, 0]),
            s * (r[..., 1, 0] - r[..., 0, 1]),
        ],
        axis=-1,
    )


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def su2_path_lift(loop: np.ndarray) -> int:
    """Lift a sampled SO(3) loop to SU(2) and report the holonomy sign.

    loop has shape (n, 3, 3) with loop[-1] equal to loop[0].  The lift is
    continued stepwise through relative rotations loop[k]^T loop[k+1]; each
    step must rotate by less than MAX_LIFT_STEP or SamplingTooCoarse is raised,
    since the continuation is otherwise ambiguous.  Returns +1 if the lift
    closes at the same SU(2) element and -1 if it closes at its negative
    (i.e. the loop is nontrivial in the fundamental group of SO(3)).
    """
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 3 or loop.shape[1:] != (3, 3):
        raise ValueError("loop must have shape (n, 3, 3)")
    if loop.shape[0] < 3:
        raise SamplingTooCoarse("need at least 3 samples to lift a loop")
    steps = np.swapaxes(loop[:-1], -1, -2) @ loop[1:]
    angles = rotation_angle(steps)
    amax = float(angles.max())
    if amax >= MAX_LIFT_STEP:
        raise SamplingTooCoarse(
            f"largest step rotates by {amax:.3f} rad >= {MAX_LIFT_STEP:.3f}"
        )
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for dq in _quat_from_small_rotation(steps):
        q = _quat_mul(q, dq)
    w = float(q[0])
    if abs(w) < 0.9:
        raise SamplingTooCoarse(f"lift did not close near +-Id (scalar part {w:.3f})")
    return 1 if w > 0 else -1


def fiber_loop_parity(u: sm.FourierField) -> int:
    """Lift parity of the loop theta -> u(0, 0, theta) in SO(3).

    Returns +1 when the loop lifts to a closed path in SU(2) (homotopically
    trivial) and -1 otherwise.  The loop is sampled at 513 angles over the
    grid point at the origin, so closure at theta = 2 pi is exact.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 513)
    mats = np.zeros((513, 3, 3), dtype=complex)
    for m in range(-u.degree, u.degree + 1):
        mats += u.mode(m)[:, :, 0, 0] * np.exp(1j * m * thetas)[:, None, None]
    return su2_path_lift(polar_project(mats.real))
