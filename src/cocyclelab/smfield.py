"""Matrix-valued functions on the unit tangent bundle as fiber Fourier sums.

A field u(x, y, theta) with values in 3x3 matrices is a finite Fourier
series in the fiber angle, u = sum_m c_m(x, y) e^{i m theta}.  The pair, the
trivializer and every Bäcklund factor are real maps, so c_{-m} = conj(c_m)
and a field stores its modes 0..K only: one complex array coef of shape
(K + 1, 3, 3, ny, nx), c_0 first, whose imaginary part is exactly zero.
Mode -m is conj(c_m) wherever a caller asks for it (mode(m)).  Every grid on
the torus has the layout of one mode, (3, 3, ny, nx): mode(m) for m >= 0 and
modes hand out the band's own slices, and a connection's, a Higgs field's
and a unit section's grids are stored so.  Only point arrays keep the matrix
axes last (lie3's helpers, transport, the interpolant's values); a grid
reaches them through one np.moveaxis view.  Every operation maps such bands
to such bands: sums, differences, real scalar multiples, transposes, the
vertical field V (multiplication by i*m on mode m), the frame operators and
products.

The raising and lowering parts of the frame act on stacks of grids with
given mode numbers (one fft2 over the trailing (ny, nx) axes of the whole
stack, one product with a cached symbol, one ifft2):

  eta_minus : mode m -> m-1,  c |-> e^{-(1+m) lam} dbar(c e^{m lam})
  eta_plus  : mode m -> m+1,  c |-> e^{(m-1) lam} dz(c e^{-m lam})

with dbar = (d/dx + i d/dy)/2 and dz = (d/dx - i d/dy)/2 spectral.  Since
dz(conj f) = conj(dbar f) and lam is real, eta_plus(c_j) is the conjugate of
eta_minus(conj c_j) at mode -j, so the frame operators of a degree-K band
take one eta_minus of the 2K + 1 grids conj(c_K)..conj(c_1), c_0..c_K:

  X(u)_m = eta_plus(c_{m-1}) + eta_minus(c_{m+1}),    X(u)_0 = 2 Re eta_minus(c_1)
  H(u)_m = i (eta_plus(c_{m-1}) - eta_minus(c_{m+1})), H(u)_0 = 2 Im eta_minus(c_1)

Single complex grids (the energy identity's random one-mode fields, the
projector of a unit section) call the grid kernels themselves; given the
grid A_1 (A_{-1}) of a connection as twist, eta_plus (eta_minus) adds
A_1 c (A_{-1} c) and is mu_plus (mu_minus).

A product has two routes.  A degree-0 factor is fiber-constant: the kernel
multiplies the two bands as they are.  Two bands of higher degree are
multiplied pseudo-spectrally (Boyd, Chebyshev and Fourier Spectral Methods,
2nd ed., ch. 11) in real arithmetic: each factor is sampled at
2 (K_u + K_v) + 1 equispaced fiber angles from [Re c_0..Re c_K,
Im c_1..Im c_K] by a real synthesis matrix (cached by size, which beats an
FFT along the short mode axis), the kernel multiplies float64 samples, and a
real analysis matrix returns the modes 0..K_u + K_v.  That many samples
resolve the whole product, so nothing aliases and nothing is truncated;
the product is exact to rounding; bracket forms [u, v] from the same
samples.  Every pointwise 3x3 product, of bands and of grids alike, runs
through one kernel (_matmul3) that sums the three products a[i, k] b[k, j]
in the order k = 0, 1, 2: two float64 factors by one einsum contraction, any
other dtype by three broadcast products per output row.  Both forms give the
values of nine planes of three plane products each, to the bit; only the
sign of a zero can differ (einsum turns a sum of three -0.0 products into
+0.0).

Allocation rule: an arithmetic result is one new band, written once.  u + v
and u - v fill one band as long as the longer one (_combine): a mode of both
bands is the ufunc of the two, a mode of u alone a copy, a mode of v alone
0.0 +- v_m (what padding v with zeros gives); so u - v is exactly u + (-v)
with no negated copy of v.

The L2 pairing of grids is <c, d> = integral over the torus of trace(c d*)
with measure e^{2 lam} dx dy, evaluated as a plain grid sum (spectrally
accurate for smooth integrands), times 2 pi for the fiber.  The norm of a
band counts each mode m > 0 twice, for m and -m: ||u||^2 = 2 pi sum_grid
(|c_0|^2 + 2 sum_m |c_m|^2) e^{2 lam} dx dy, summed as re^2 + im^2 of the
entries, which needs no conjugate copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import spectral
from .errors import gate, worst
from .interp import PeriodicCubic2D
from .lie3 import hat, vee
from .torus import TorusMetric


def _matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise 3x3 product of (..., 3, 3, ny, nx) arrays, broadcast over the
    leading axes: out[i, j] = (a[i, 0] b[0, j] + a[i, 1] b[1, j]) + a[i, 2] b[2, j].

    Two float64 factors take one einsum, which adds the three products in
    this order, with no fused multiply-add, onto a +0.0 start: the same
    value, and the same bits except that a sum of three -0.0 products comes
    out +0.0.  Other dtypes take three broadcast products per output row,
    since einsum's complex loops round differently."""
    if a.dtype == np.float64 and b.dtype == np.float64:
        return np.einsum("...ikyx,...kjyx->...ijyx", a, b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(3):
        row = out[..., i, :, :, :]
        np.multiply(a[..., i, 0, None, :, :], b[..., 0, :, :, :], out=row)
        for k in (1, 2):
            row += a[..., i, k, None, :, :] * b[..., k, :, :, :]
    return out


@lru_cache(maxsize=64)
def _real_synthesis(nt: int, k: int) -> np.ndarray:
    """The read-only (nt, 2k + 1) matrix taking [Re c_0..Re c_k, Im c_1..Im c_k]
    of a field real on SM to its values at theta_j = 2 pi j / nt: columns 1,
    2 cos(m theta_j) and -2 sin(m theta_j), m = 1..k."""
    ang = 2 * np.pi / nt * (np.multiply.outer(np.arange(nt), np.arange(1, k + 1)) % nt)
    mat = np.concatenate([np.ones((nt, 1)), 2 * np.cos(ang), -2 * np.sin(ang)], axis=1)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=64)
def _real_analysis(nt: int, k: int) -> np.ndarray:
    """The read-only (2k + 1, nt) matrix taking real samples at theta_j =
    2 pi j / nt to [Re c_0..Re c_k, Im c_1..Im c_k]: rows cos(m theta_j) / nt,
    m = 0..k, and -sin(m theta_j) / nt, m = 1..k."""
    ang = 2 * np.pi / nt * (np.multiply.outer(np.arange(k + 1), np.arange(nt)) % nt)
    mat = np.concatenate([np.cos(ang), -np.sin(ang[1:])]) / nt
    mat.setflags(write=False)
    return mat


def _is_skew(u: "FourierField") -> bool:
    """Every mode of u is antisymmetric to the bit, c == -c^T: each entry
    pair (i, j), i < j, and each diagonal entry compared with np.array_equal
    (NaN compares unequal, so it fails the test)."""
    c = u.coef
    return all(np.array_equal(c[:, i, j], -c[:, j, i])
               for i, j in ((1, 0), (2, 0), (2, 1), (0, 0), (1, 1), (2, 2)))


def _real_angles(u: "FourierField", nt: int) -> np.ndarray:
    """Values at theta_j = 2 pi j / nt of u, nt > 2 K: a real
    (nt, 3, 3, ny, nx) array computed from its modes 0..K."""
    c, k = u.coef, u.degree
    data = np.concatenate([c.real, c[1:].imag]).reshape(2 * k + 1, -1)
    return (_real_synthesis(nt, k) @ data).reshape((nt,) + c.shape[1:])


def _real_modes(samples: np.ndarray, k: int) -> np.ndarray:
    """The modes 0..k of nt > 2k real equispaced samples, by the real
    analysis matrix; mode 0 with an imaginary part of exactly zero."""
    nt = len(samples)
    parts = _real_analysis(nt, k) @ samples.reshape(nt, -1)
    parts = parts.reshape((2 * k + 1,) + samples.shape[1:])
    out = np.empty((k + 1,) + samples.shape[1:], dtype=complex)
    out.real = parts[: k + 1]
    out[0].imag = 0.0
    out[1:].imag = parts[k + 1:]
    return out


def _commutator3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise commutator ab - ba of (..., 3, 3, ny, nx) arrays."""
    out = _matmul3(a, b)
    out -= _matmul3(b, a)
    return out


def _pointwise(u: "FourierField", v: "FourierField", kernel) -> "FourierField":
    """kernel (_matmul3 or _commutator3) of u and v pointwise on SM (module
    docstring): a degree-0 factor is fiber-constant, so the kernel takes the
    two bands as they are; two bands of higher degree are multiplied in real
    arithmetic."""
    u._check_same(v)
    a, b = u.coef, v.coef
    if min(len(a), len(b)) == 1:
        out = kernel(a, b)
    else:
        k = u.degree + v.degree
        out = _real_modes(kernel(_real_angles(u, 2 * k + 1), _real_angles(v, 2 * k + 1)), k)
    return FourierField.band(u.metric, out)


def bracket(u: "FourierField", v: "FourierField") -> "FourierField":
    """[u, v] = u v - v u pointwise, sampling each factor once."""
    return _pointwise(u, v, _commutator3)


def _combine(u: "FourierField", v: "FourierField", ufunc) -> "FourierField":
    """u + v (ufunc np.add) or u - v (np.subtract), written once into one new
    band as long as the longer one: a mode of both is ufunc(u_m, v_m), a mode
    of u only is a copy of u_m, and a mode of v only is ufunc(0.0, v_m) (what
    padding v's band with zeros gives, +0.0 included)."""
    u._check_same(v)
    n = min(len(u.coef), len(v.coef))
    out = np.empty((max(len(u.coef), len(v.coef)),) + u.coef.shape[1:], dtype=complex)
    ufunc(u.coef[:n], v.coef[:n], out=out[:n])
    out[n: len(u.coef)] = u.coef[n:]
    ufunc(0.0, v.coef[n:], out=out[n: len(v.coef)])
    return FourierField.band(u.metric, out)


class FourierField:
    """The modes 0..K of a real matrix field on SM (module docstring)."""

    __slots__ = ("metric", "coef")

    def __init__(self, metric: TorusMetric, modes: dict[int, np.ndarray]):
        """The field with the given grids c_m, m >= 0, and zero in the modes
        between them; an empty dict is the zero field of degree 0.  ValueError
        for a negative mode, a grid of the wrong shape, or a mode-0 grid with
        a nonzero imaginary part: those are not the modes of a real field."""
        grids = {int(m): np.asarray(c) for m, c in modes.items()}
        for m, c in grids.items():
            if m < 0:
                raise ValueError(f"a field stores its modes m >= 0, got mode {m}")
            if c.shape != (3, 3, metric.ny, metric.nx):
                raise ValueError(f"mode grid must have shape (3, 3, {metric.ny}, {metric.nx}), "
                                 f"got {c.shape}")
        if 0 in grids and np.iscomplexobj(grids[0]) and np.any(grids[0].imag):
            raise ValueError("mode 0 of a real field has a nonzero imaginary part")
        coef = np.zeros((max(grids, default=0) + 1, 3, 3, metric.ny, metric.nx), dtype=complex)
        for m, c in grids.items():
            coef[m] = c
        self.metric = metric
        self.coef = coef

    # -- constructors -------------------------------------------------------

    @classmethod
    def band(cls, metric: TorusMetric, coef: np.ndarray) -> "FourierField":
        """Field with modes 0 .. len(coef) - 1 taken from coef (not copied);
        the imaginary part of coef[0] must be zero."""
        out = cls.__new__(cls)
        out.metric = metric
        out.coef = coef
        return out

    @classmethod
    def identity(cls, metric: TorusMetric) -> "FourierField":
        return cls.from_grid(metric, np.eye(3)[:, :, None, None] * np.ones((metric.ny, metric.nx)))

    @classmethod
    def from_grid(cls, metric: TorusMetric, grid: np.ndarray) -> "FourierField":
        """Mode-0 field c(x, y) of a real grid, constant along the fiber."""
        return cls(metric, {0: grid})

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coef) - 1

    @property
    def modes(self):
        """Read-only mapping from each mode 0..K to its slice of the band."""
        return MappingProxyType(dict(enumerate(self.coef)))

    def mode(self, m: int) -> np.ndarray:
        """c_m: the band's own slice for m >= 0, conj(c_{-m}) (a new grid)
        for m < 0, zero outside -K..K."""
        if abs(m) <= self.degree:
            return self.coef[m] if m >= 0 else np.conj(self.coef[-m])
        return np.zeros((3, 3, self.metric.ny, self.metric.nx), dtype=complex)

    def mode_norms(self) -> dict[int, float]:
        """The norm of each single mode c_m e^{i m theta}, m = 0..K."""
        return {m: grid_l2_norm(self.metric, c, fiber=True) for m, c in self.modes.items()}

    def truncate(self, degree: int) -> "FourierField":
        """Field restricted to the modes |m| <= degree."""
        return FourierField.band(self.metric, self.coef[: degree + 1])

    # -- algebra -------------------------------------------------------------

    def _check_same(self, other: "FourierField") -> None:
        if self.metric is not other.metric and self.metric != other.metric:
            raise ValueError("fields live on different metrics")

    def __add__(self, other: "FourierField") -> "FourierField":
        return _combine(self, other, np.add)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return _combine(self, other, np.subtract)

    def __mul__(self, scalar: float) -> "FourierField":
        """Multiple by a real scalar (a complex one raises TypeError)."""
        return FourierField.band(self.metric, self.coef * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "FourierField") -> "FourierField":
        """Pointwise matrix product on SM (module docstring)."""
        return _pointwise(self, other, _matmul3)

    def transpose(self) -> "FourierField":
        """Pointwise matrix transpose (the inverse for SO(3)-valued fields)."""
        return FourierField.band(self.metric, np.swapaxes(self.coef, 1, 2))

    # -- sampling ------------------------------------------------------------

    def interpolant(self):
        """Evaluator (x, y, theta) -> real values at arbitrary SM points, shape
        (..., 3, 3): one bicubic spline over the real channels [Re c_0,
        2 Re c_m, -2 Im c_m], m = 1..K, summed against 1, cos(m theta) and
        sin(m theta).  When every mode is antisymmetric to the bit (_is_skew,
        as for A + Phi), each channel is splined as its vee triple, 3 values
        instead of 9, and the sum is returned as its hat."""
        met = self.metric
        k = self.degree
        # the spline reads point arrays: (ny, nx, mode, 3, 3)
        pos = np.moveaxis(self.coef, (0, 1, 2), (2, 3, 4))
        stack = np.concatenate([pos.real, -pos.imag[:, :, 1:]], axis=2)
        stack[:, :, 1:] *= 2.0
        skew = _is_skew(self)
        stack = vee(stack) if skew else stack.reshape(stack.shape[:3] + (9,))
        width = stack.shape[-1]
        spline = PeriodicCubic2D(stack.reshape(met.ny, met.nx, -1), met.lx, met.ly)
        ms = np.arange(1, k + 1, dtype=float)

        def at(x, y, theta) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            vals = spline(x % met.lx, np.asarray(y, dtype=float) % met.ly)
            mt = np.multiply.outer(np.asarray(theta, dtype=float), ms)
            basis = np.concatenate([np.ones(mt.shape[:-1] + (1,)), np.cos(mt), np.sin(mt)], axis=-1)
            out = np.einsum("...kc,...k->...c", vals.reshape(x.shape + (2 * k + 1, width)), basis)
            return hat(out) if skew else out.reshape(x.shape + (3, 3))

        return at

    # -- norms and checks ------------------------------------------------------

    def l2_norm(self) -> float:
        """||u||, each mode m > 0 counted for m and -m (module docstring)."""
        c = self.coef
        return _integral(self.metric, _square_sum(c[:1]) + 2.0 * _square_sum(c[1:]), True)

    def orthogonality_residual(self) -> float:
        """Max pointwise ||R^T R - Id|| over max(8, 4 (degree + 1)) fiber
        angles, sampled in real arithmetic as a product factor is."""
        r = _real_angles(self, max(8, 4 * (self.degree + 1)))
        g = _matmul3(np.swapaxes(r, 1, 2), r)
        g -= np.eye(3)[:, :, None, None]
        return float(np.sqrt(np.einsum("tijyx,tijyx->tyx", g, g)).max())


# -- L2 structure ---------------------------------------------------------------


def l2_inner(metric: TorusMetric, c: np.ndarray, d: np.ndarray) -> complex:
    """<c, d> = 2 pi sum over the grid of trace(c d*) e^{2 lam} dx dy, for
    two (n, 3, 3, ny, nx) stacks of grids paired grid by grid."""
    dxdy = (metric.lx / metric.nx) * (metric.ly / metric.ny)
    total = np.einsum("mijyx,mijyx,yx->", c, np.conj(d), metric.e_2lam)
    return complex(2.0 * np.pi * dxdy * total)


def grid_l2_norm(metric: TorusMetric, grid: np.ndarray, fiber: bool = False) -> float:
    """L2 norm of a single (3, 3, ny, nx) grid over the torus (e^{2 lam}
    weight).

    With fiber=True the 2 pi fiber factor is included, matching the L2 norm
    of the single-mode field with this coefficient.
    """
    return _integral(metric, _square_sum(grid[None]), fiber)


def _square_sum(band: np.ndarray) -> np.ndarray:
    """The (ny, nx) sum of re^2 + im^2 over every entry of a (n, 3, 3, ny,
    nx) stack; no conjugate copy is made."""
    sq = np.einsum("mijyx,mijyx->yx", band.real, band.real)
    if np.iscomplexobj(band):
        sq += np.einsum("mijyx,mijyx->yx", band.imag, band.imag)
    return sq


def _integral(metric: TorusMetric, sq: np.ndarray, fiber: bool) -> float:
    """sqrt of the grid sum of sq e^{2 lam} dx dy, times 2 pi with fiber=True."""
    val = np.vdot(sq, metric.e_2lam) * (metric.lx / metric.nx) * (metric.ly / metric.ny)
    if fiber:
        val *= 2.0 * np.pi
    return float(np.sqrt(val))


# -- first order operators ------------------------------------------------------


def vertical(u: FourierField) -> FourierField:
    """V(u) = du/dtheta: multiplication by i*m on mode m."""
    ms = np.arange(u.degree + 1)
    return FourierField.band(u.metric, 1j * ms[:, None, None, None, None] * u.coef)


def _exp_lam(metric: TorusMetric, ks: np.ndarray) -> np.ndarray:
    """e^{k lam} for each k in ks, shaped to scale a stack of grids."""
    return np.exp(np.multiply.outer(ks, metric.lam))[:, None, None]


def eta_minus(metric: TorusMetric, grids: np.ndarray, ms, twist: np.ndarray | None = None
              ) -> np.ndarray:
    """eta_minus of each grid of an (n, 3, 3, ny, nx) stack, grid j taken as
    mode ms[j]: e^{-(1+m) lam} dbar(c e^{m lam}), the coefficient of mode
    m - 1; with a (3, 3, ny, nx) grid twist, plus twist c (mu_minus, for
    twist = A_{-1})."""
    ms = np.asarray(ms)
    d = spectral.dbar(grids * _exp_lam(metric, ms), metric.lx, metric.ly, axes=(3, 4))
    d *= _exp_lam(metric, -(1 + ms))
    if twist is not None:
        d += _matmul3(twist, grids)
    return d


def eta_plus(metric: TorusMetric, grids: np.ndarray, ms, twist: np.ndarray | None = None
             ) -> np.ndarray:
    """eta_plus of each grid of an (n, 3, 3, ny, nx) stack, grid j taken as
    mode ms[j]: e^{(m-1) lam} dz(c e^{-m lam}), the coefficient of mode
    m + 1; with a (3, 3, ny, nx) grid twist, plus twist c (mu_plus, for
    twist = A_1)."""
    ms = np.asarray(ms)
    d = spectral.dz(grids * _exp_lam(metric, -ms), metric.lx, metric.ly, axes=(3, 4))
    d *= _exp_lam(metric, ms - 1)
    if twist is not None:
        d += _matmul3(twist, grids)
    return d


def _eta_parts(u: FourierField) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) for a degree-K band: up[j] = eta_plus(c_j), j = 0..K, the
    coefficients of the modes 1..K + 1, and down[j] = eta_minus(c_{j+1}),
    j = 0..K - 1, those of the modes 0..K - 1.  One eta_minus of the modes
    -K..K serves both, since eta_plus(c_j) = conj(eta_minus(conj c_j) at
    mode -j) (module docstring)."""
    c, k = u.coef, u.degree
    em = eta_minus(u.metric, np.concatenate([np.conj(c[:0:-1]), c]), np.arange(-k, k + 1))
    return np.conj(em[k::-1]), em[k + 1:]


def _frame_band(u: FourierField, up: np.ndarray, down: np.ndarray, h: bool) -> FourierField:
    """X(u) (h False) or H(u) (h True) from _eta_parts(u) (module docstring):
    up + down, or (up - down) * 1j, in the modes 1..K + 1, and mode 0 as
    2 Re or 2 Im of eta_minus(c_1)."""
    k = u.degree
    out = np.empty((k + 2,) + u.coef.shape[1:], dtype=complex)
    out[1:] = up
    (np.subtract if h else np.add)(out[1:k], down[1:], out=out[1:k])
    if h:
        out[1:] *= 1j
    out[0] = 2.0 * (down[0].imag if h else down[0].real) if k else 0.0
    return FourierField.band(u.metric, out)


def x_op(u: FourierField) -> FourierField:
    """Geodesic vector field X = eta_plus + eta_minus in mode calculus."""
    return _frame_band(u, *_eta_parts(u), h=False)


def frame_ops(u: FourierField) -> tuple[FourierField, FourierField]:
    """(X(u), H(u)) from one _eta_parts pass, H = i (eta_plus - eta_minus)."""
    up, down = _eta_parts(u)
    return _frame_band(u, up, down, False), _frame_band(u, up, down, True)


# -- connections and Higgs fields -------------------------------------------------


def _antisym_residual(grid: np.ndarray) -> float:
    """max |c + c^T| over a (..., 3, 3, ny, nx) array: a grid, or a band of them."""
    s = grid + np.swapaxes(grid, -4, -3)
    return float(np.abs(s).max())


@dataclass
class Connection:
    """SO(3) connection restricted to SM: A = a cos(theta) + b sin(theta).

    a, b are real antisymmetric (3, 3, ny, nx) grids; in terms of the 1-form
    A_x dx + A_y dy they are a = e^{-lam} A_x, b = e^{-lam} A_y.
    """

    metric: TorusMetric
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        shape = (3, 3, self.metric.ny, self.metric.nx)
        if self.a.shape != shape or self.b.shape != shape:
            raise ValueError(f"connection grids must have shape {shape}")

    @classmethod
    def zero(cls, metric: TorusMetric) -> "Connection":
        z = np.zeros((3, 3, metric.ny, metric.nx))
        return cls(metric, z, z.copy())

    @classmethod
    def from_field(cls, f: FourierField, tol: float = 1e-8) -> "Connection":
        """Build from a field of mode 1, a = 2 Re c_1 and b = -2 Im c_1
        (_connection_grids); raises ValueError if another mode holds content,
        and on any non-finite coefficient (errors.gate's rule)."""
        scale = float(np.abs(f.coef).max())
        for m, c in f.modes.items():
            if m != 1:
                gate(np.abs(c).max(), tol * scale, ValueError,
                     f"connection field content in mode {m}")
        return cls(f.metric, *_connection_grids(f.mode(1)))

    def mode(self, m: int) -> np.ndarray:
        """A_m, the (3, 3, ny, nx) grid of mode m = +-1 of A, (a - i m b)/2:
        A_1 = (A - i V(A))/2 and its conjugate A_{-1}."""
        out = np.empty((3, 3, self.metric.ny, self.metric.nx), dtype=complex)
        np.multiply(1j, self.b, out=out)
        (np.subtract if m == 1 else np.add)(self.a, out, out=out)
        np.multiply(0.5, out, out=out)
        return out

    def as_field(self) -> FourierField:
        """A as one band of modes 0 and 1 (mode 0 is zero)."""
        return FourierField(self.metric, {1: self.mode(1)})

    def antisymmetry_residual(self) -> float:
        return worst([_antisym_residual(self.a), _antisym_residual(self.b)])

    def norm(self) -> float:
        return self.as_field().l2_norm()

    def is_zero(self) -> bool:
        return max(np.abs(self.a).max(), np.abs(self.b).max()) <= 0.0


@dataclass
class Higgs:
    """Higgs field: antisymmetric real matrix function of the base point, a
    (3, 3, ny, nx) grid."""

    metric: TorusMetric
    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        shape = (3, 3, self.metric.ny, self.metric.nx)
        if self.phi.shape != shape:
            raise ValueError(f"higgs grid must have shape {shape}")

    @classmethod
    def zero(cls, metric: TorusMetric) -> "Higgs":
        return cls(metric, np.zeros((3, 3, metric.ny, metric.nx)))

    def as_field(self) -> FourierField:
        return FourierField.from_grid(self.metric, self.phi)

    def antisymmetry_residual(self) -> float:
        return _antisym_residual(self.phi)

    def norm(self) -> float:
        return grid_l2_norm(self.metric, self.phi, fiber=True)

    def is_zero(self) -> bool:
        return np.abs(self.phi).max() <= 0.0


@dataclass
class Pair:
    """Connection + Higgs field, optionally with a certified trivializer."""

    conn: Connection
    higgs: Higgs
    trivializer: FourierField | None = None

    def __post_init__(self):
        if self.conn.metric is not self.higgs.metric and self.conn.metric != self.higgs.metric:
            raise ValueError("connection and Higgs live on different metrics")

    @property
    def metric(self) -> TorusMetric:
        return self.conn.metric

    @classmethod
    def trivial(cls, metric: TorusMetric) -> "Pair":
        return cls(Connection.zero(metric), Higgs.zero(metric), FourierField.identity(metric))

    def total_field(self) -> FourierField:
        """A + Phi as one field (modes 0 and 1)."""
        return self.conn.as_field() + self.higgs.as_field()


def _connection_grids(c1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) = (2 Re c_1, -2 Im c_1) of the mode-1 grid of a connection
    field, real by construction; b is 0.0 - 2 Im c_1, so that its zeros are
    +0.0 whatever the sign of Im c_1."""
    return 2.0 * c1.real, 0.0 - 2.0 * c1.imag


def hodge_star(f: FourierField) -> FourierField:
    """Hodge star of a 1-form field omega(x, v) = <1-form, v> (modes +-1),
    realized fiberwise as -V."""
    return vertical(f) * (-1.0)


def d_A(g: np.ndarray, conn: Connection) -> FourierField:
    """Covariant derivative of a matrix function of the base point, as a field.

    g is a real (3, 3, ny, nx) grid; the result is X(g) + [A, g], mode 1:
    the 1-form d g + [A, g] evaluated on unit tangent vectors.
    """
    gf = FourierField.from_grid(conn.metric, g)
    out = x_op(gf)
    if not conn.is_zero():
        out = out + bracket(conn.as_field(), gf)
    return out


def star_curvature(conn: Connection) -> np.ndarray:
    """The function *F_A = *(dA + A wedge A) on the base, an so(3) grid.

    In terms of the coefficient grids (a, b) and the conformal factor:
    e^{-lam}(b_x + b lam_x - a_y - a lam_y) + [a, b].
    """
    met = conn.metric
    b_x = spectral.deriv(conn.b, met.lx, axis=-1)
    a_y = spectral.deriv(conn.a, met.ly, axis=-2)
    lin = b_x + conn.b * met.lam_x - a_y - conn.a * met.lam_y
    lin *= met.e_neg_lam
    return lin + _commutator3(conn.a, conn.b)
