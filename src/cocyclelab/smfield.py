"""Matrix-valued functions on the unit tangent bundle as fiber Fourier sums.

A field u(x, y, theta) with values in 3x3 complex matrices is a finite
Fourier series in the fiber angle, u = sum_m c_m(x, y) e^{i m theta}, stored
as one contiguous band of modes: the lowest mode lo and an array coef of
shape (n_modes, 3, 3, ny, nx) holding c_lo, ..., c_{lo+n_modes-1} in order.
Every grid on the torus has the layout of one mode, (3, 3, ny, nx): mode(m)
and modes hand out the band's own slices, and a connection's, a Higgs
field's and a unit section's grids are stored so.  Only point arrays keep
the matrix axes last (lie3's helpers, transport, the interpolant's values);
a grid reaches them through one np.moveaxis view.  Modes inside the band
may be zero.  The vertical field V acts as multiplication by i*m on mode m,
the raising/lowering parts of the frame act on the whole band at once:

  eta_minus : mode m -> m-1,  c |-> e^{-(1+m) lam} dbar(c e^{m lam})
  eta_plus  : mode m -> m+1,  c |-> e^{(m-1) lam} dz(c e^{-m lam})

with dbar = (d/dx + i d/dy)/2, dz = (d/dx - i d/dy)/2 spectral (one fft2
over the trailing (ny, nx) axes of the whole band, one product with a cached
symbol, one ifft2), and X = eta_plus + eta_minus, H = i (eta_plus - eta_minus).

Connections are fields A = a cos(theta) + b sin(theta) with antisymmetric
real coefficient grids (so modes +-1 only); Higgs fields are antisymmetric
real mode-0 grids.  The pair, the trivializer and every Bäcklund factor are
real maps, so every band the program multiplies is real on SM to the bit
(lo = -hi and c_{-m} == conj(c_m)), and a product has two routes.  A one-mode
factor is fiber-constant: the kernel multiplies the two bands as they are,
complex or not.  Two multi-mode bands real on SM are multiplied
pseudo-spectrally (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed.,
ch. 11) in real arithmetic: each factor is sampled at len_u + len_v - 1
equispaced fiber angles from [Re c_0..Re c_hi, Im c_1..Im c_hi] by a real
synthesis matrix (cached by size, which beats an FFT along the short mode
axis), the kernel multiplies float64 samples, a real analysis matrix returns
the modes 0..K, and the modes m < 0 are filled by conjugation, so the product
is real to the bit as well.  That many samples resolve the whole product band
[-K, K], K = hi_u + hi_v, so nothing aliases and nothing is truncated; the
product is exact to rounding; bracket forms [u, v] from the same samples.
Two multi-mode bands of which one is not real on SM raise ValueError.  Every
pointwise 3x3 product, of bands and of grids alike, runs through one kernel
(_matmul3) that sums the three products a[i, k] b[k, j] in the order
k = 0, 1, 2: two float64 factors by one einsum contraction, any other dtype
by three broadcast products per output row.  Both forms give the
values of nine planes of three plane products each, to the bit; only the
sign of a zero can differ (einsum turns a sum of three -0.0 products into
+0.0).
X of a real field takes one eta_minus: eta_plus(u) is its conjugate, since
dz(conj f) = conj(dbar f) and lam is real (eta_pair).

Allocation rule: an arithmetic result is one new band, written once.  u + v
and u - v fill one band spanning both (_combine): a mode of both bands is
the ufunc of the two, a mode of u alone a copy, a mode of v alone 0.0 +- v_m
(what padding v with zeros gives), a gap between disjoint bands zero; so
u - v is exactly u + (-v) with no negated copy of v.  A connection's modes
+-1 are written straight into the band that uses them (Connection.band,
Connection.as_field), and the reality test compares real and imaginary
parts with no conjugate band.

The L2 pairing is <u, v> = integral over SM of trace(u v*) with measure
e^{2 lam} dx dy dtheta, evaluated as a plain grid sum (spectrally accurate
for smooth integrands): 2 pi * sum_m sum_grid trace(c_m d_m^*) e^{2 lam} dx dy.
A norm is the same sum for v = u taken as re^2 + im^2 of the entries, which
needs no conjugate copy of the band.
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


def _is_real(u: "FourierField") -> bool:
    """u is real on SM to the bit: lo = -hi and c_{-m} == conj(c_m), compared
    for all m >= 0 at once as Re c_m == Re c_{-m} and Im c_m == -Im c_{-m},
    with no conjugate band.  A NaN counts as its own mirror image, so a
    field that holds NaN in conjugate places is real and its NaN reaches
    every product and residual (except a NaN in Im c_0 alone: the real
    route reads Re c_0 only); that NaN-aware comparison costs three times
    the strict one, so it runs only when the strict one fails."""
    c, k = u.coef, u.hi
    return u.lo == -k and any(
        np.array_equal(c[k:].real, c[k::-1].real, equal_nan=nan)
        and np.array_equal(c[k:].imag, -c[k::-1].imag, equal_nan=nan) for nan in (False, True))


def _is_skew(u: "FourierField") -> bool:
    """Every mode of u is antisymmetric to the bit, c == -c^T: each entry
    pair (i, j), i < j, and each diagonal entry compared with np.array_equal
    (NaN compares unequal, so it fails the test)."""
    c = u.coef
    return all(np.array_equal(c[:, i, j], -c[:, j, i])
               for i, j in ((1, 0), (2, 0), (2, 1), (0, 0), (1, 1), (2, 2)))


def _real_angles(u: "FourierField", nt: int) -> np.ndarray:
    """Values at theta_j = 2 pi j / nt of a field real on SM, nt > 2 hi: a
    real (nt, 3, 3, ny, nx) array computed from its modes m >= 0."""
    c = u.coef[u.hi:]
    data = np.concatenate([c.real, c[1:].imag]).reshape(2 * u.hi + 1, -1)
    return (_real_synthesis(nt, u.hi) @ data).reshape((nt,) + c.shape[1:])


def _real_modes(samples: np.ndarray, k: int) -> np.ndarray:
    """The modes -k..k of nt > 2k real equispaced samples: 0..k by the real
    analysis matrix, m < 0 by conjugation, so they are real on SM to the bit."""
    nt = len(samples)
    parts = _real_analysis(nt, k) @ samples.reshape(nt, -1)
    parts = parts.reshape((2 * k + 1,) + samples.shape[1:])
    out = np.empty(parts.shape, dtype=complex)
    out[k:].real = parts[: k + 1]
    out[k].imag = 0.0
    out[k + 1:].imag = parts[k + 1:]
    np.conjugate(out[:k:-1], out=out[:k])
    return out


def _commutator3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise commutator ab - ba of (..., 3, 3, ny, nx) arrays."""
    out = _matmul3(a, b)
    out -= _matmul3(b, a)
    return out


def _pointwise(u: "FourierField", v: "FourierField", kernel) -> "FourierField":
    """kernel (_matmul3 or _commutator3) of u and v pointwise on SM (module
    docstring) by one of two routes: a one-mode factor is fiber-constant, so
    the kernel takes the two bands as they are, whatever their dtype; two
    bands real on SM are multiplied in real arithmetic.  Any other pair of
    multi-mode bands raises ValueError."""
    u._check_same(v)
    a, b = u.coef, v.coef
    if min(len(a), len(b)) == 1:
        out = kernel(a, b)
    elif _is_real(u) and _is_real(v):
        nt = len(a) + len(b) - 1
        out = _real_modes(kernel(_real_angles(u, nt), _real_angles(v, nt)), u.hi + v.hi)
    else:
        raise ValueError("a product of two multi-mode fields needs both real on SM")
    return FourierField.band(u.metric, u.lo + v.lo, out)


def bracket(u: "FourierField", v: "FourierField") -> "FourierField":
    """[u, v] = u v - v u pointwise, sampling each factor once."""
    return _pointwise(u, v, _commutator3)


def _combine(u: "FourierField", v: "FourierField", ufunc) -> "FourierField":
    """u + v (ufunc np.add) or u - v (np.subtract) on the union of the two
    bands, written once into one new band: a mode of both is ufunc(u_m, v_m),
    a mode of u only is a copy of u_m, a mode of v only is ufunc(0.0, v_m)
    (what padding v's band with zeros gives, +0.0 included), and the modes
    in a gap between two disjoint bands are zero."""
    u._check_same(v)
    lo = min(u.lo, v.lo)
    out = np.empty((max(u.hi, v.hi) - lo + 1,) + u.coef.shape[1:], dtype=complex)
    # the modes of both bands; empty (olo > ohi) when they are disjoint, and
    # then ohi + 1 .. olo - 1 is the gap between them
    olo, ohi = max(u.lo, v.lo), min(u.hi, v.hi)

    def modes(arr, first, a, b):
        """Modes a..b of arr, whose first mode is first."""
        return arr[a - first : b + 1 - first]

    for a, b in ((u.lo, min(u.hi, olo - 1)), (max(u.lo, ohi + 1), u.hi)):
        modes(out, lo, a, b)[...] = modes(u.coef, u.lo, a, b)
    for a, b in ((v.lo, min(v.hi, olo - 1)), (max(v.lo, ohi + 1), v.hi)):
        ufunc(0.0, modes(v.coef, v.lo, a, b), out=modes(out, lo, a, b))
    if olo <= ohi:
        ufunc(modes(u.coef, u.lo, olo, ohi), modes(v.coef, v.lo, olo, ohi),
              out=modes(out, lo, olo, ohi))
    modes(out, lo, ohi + 1, olo - 1)[...] = 0.0
    return FourierField.band(u.metric, lo, out)


class FourierField:
    """A contiguous band of fiber modes of a matrix field on SM."""

    __slots__ = ("metric", "lo", "coef")

    def __init__(self, metric: TorusMetric, modes: dict[int, np.ndarray]):
        grids = {int(m): np.asarray(c) for m, c in modes.items()}
        for c in grids.values():
            if c.shape != (3, 3, metric.ny, metric.nx):
                raise ValueError(f"mode grid must have shape (3, 3, {metric.ny}, {metric.nx}), "
                                 f"got {c.shape}")
        lo = min(grids, default=0)
        hi = max(grids, default=0)
        coef = np.zeros((hi - lo + 1, 3, 3, metric.ny, metric.nx), dtype=complex)
        for m, c in grids.items():
            coef[m - lo] = c
        self.metric = metric
        self.lo = lo
        self.coef = coef

    # -- constructors -------------------------------------------------------

    @classmethod
    def band(cls, metric: TorusMetric, lo: int, coef: np.ndarray) -> "FourierField":
        """Field with modes lo .. lo + len(coef) - 1 taken from coef (not copied)."""
        out = cls.__new__(cls)
        out.metric = metric
        out.lo = int(lo)
        out.coef = coef
        return out

    @classmethod
    def identity(cls, metric: TorusMetric) -> "FourierField":
        return cls.from_grid(metric, np.eye(3)[:, :, None, None] * np.ones((metric.ny, metric.nx)))

    @classmethod
    def from_grid(cls, metric: TorusMetric, grid: np.ndarray) -> "FourierField":
        """Mode-0 field c(x, y), constant along the fiber."""
        return cls(metric, {0: np.asarray(grid, dtype=complex)})

    # -- basic structure -----------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.coef) - 1

    @property
    def modes(self):
        """Read-only mapping from each mode of the band to its slice of the band."""
        return MappingProxyType({self.lo + k: c for k, c in enumerate(self.coef)})

    @property
    def degree(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def _ms(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def mode(self, m: int) -> np.ndarray:
        if self.lo <= m <= self.hi:
            return self.coef[m - self.lo]
        return np.zeros((3, 3, self.metric.ny, self.metric.nx), dtype=complex)

    def mode_norms(self) -> dict[int, float]:
        return {m: grid_l2_norm(self.metric, c, fiber=True) for m, c in self.modes.items()}

    def truncate(self, degree: int) -> "FourierField":
        """Field restricted to the modes |m| <= degree."""
        lo, hi = max(self.lo, -degree), min(self.hi, degree)
        return FourierField.band(self.metric, lo, self.coef[lo - self.lo : hi + 1 - self.lo])

    # -- algebra -------------------------------------------------------------

    def _check_same(self, other: "FourierField") -> None:
        if self.metric is not other.metric and self.metric != other.metric:
            raise ValueError("fields live on different metrics")

    def __add__(self, other: "FourierField") -> "FourierField":
        return _combine(self, other, np.add)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return _combine(self, other, np.subtract)

    def __mul__(self, scalar) -> "FourierField":
        return FourierField.band(self.metric, self.lo, self.coef * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "FourierField") -> "FourierField":
        """Pointwise matrix product on SM (module docstring)."""
        return _pointwise(self, other, _matmul3)

    def transpose(self) -> "FourierField":
        """Pointwise matrix transpose (the inverse for SO(3)-valued fields)."""
        return FourierField.band(self.metric, self.lo, np.swapaxes(self.coef, 1, 2))

    def conj(self) -> "FourierField":
        """Pointwise complex conjugate of the field (mode m -> -m, conjugated)."""
        return FourierField.band(self.metric, -self.hi, np.conj(self.coef[::-1]))

    # -- sampling ------------------------------------------------------------

    def interpolant(self):
        """Evaluator (x, y, theta) -> real values at arbitrary SM points, shape
        (..., 3, 3), of a field that is real on SM (c_{-m} = conj(c_m), which
        reality_residual measures).  It reads modes m >= 0 only: one bicubic
        spline over the real channels [Re c_0, 2 Re c_m, -2 Im c_m], m = 1..hi,
        summed against 1, cos(m theta) and sin(m theta).  When every mode is
        antisymmetric to the bit (_is_skew, as for A + Phi), each channel is
        splined as its vee triple, 3 values instead of 9, and the sum is
        returned as its hat."""
        met = self.metric
        hi = max(self.hi, 0)
        # the spline reads point arrays: (ny, nx, mode, 3, 3)
        pos = np.moveaxis(np.stack([self.mode(m) for m in range(hi + 1)]), (0, 1, 2), (2, 3, 4))
        stack = np.concatenate([pos.real, -pos.imag[:, :, 1:]], axis=2)
        stack[:, :, 1:] *= 2.0
        skew = _is_skew(self)
        stack = vee(stack) if skew else stack.reshape(stack.shape[:3] + (9,))
        width = stack.shape[-1]
        spline = PeriodicCubic2D(stack.reshape(met.ny, met.nx, -1), met.lx, met.ly)
        ms = np.arange(1, hi + 1, dtype=float)

        def at(x, y, theta) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            vals = spline(x % met.lx, np.asarray(y, dtype=float) % met.ly)
            mt = np.multiply.outer(np.asarray(theta, dtype=float), ms)
            basis = np.concatenate([np.ones(mt.shape[:-1] + (1,)), np.cos(mt), np.sin(mt)], axis=-1)
            out = np.einsum("...kc,...k->...c", vals.reshape(x.shape + (2 * hi + 1, width)), basis)
            return hat(out) if skew else out.reshape(x.shape + (3, 3))

        return at

    # -- norms and checks ------------------------------------------------------

    def l2_norm(self) -> float:
        return _norm(self.metric, self.coef, fiber=True)

    def reality_residual(self) -> float:
        """Max norm of c_m - conj(c_{-m}) over modes, relative to the field size.
        Modes m and -m give the same norm (the real parts differ only in sign,
        the imaginary parts add), so modes m >= 0 of the band padded to
        -degree..degree suffice."""
        scale = float(np.abs(self.coef).max())
        if scale == 0.0:
            return 0.0
        c, k = self.coef, self.degree
        if self.lo != -k or self.hi != k:
            c = np.zeros((2 * k + 1,) + c.shape[1:], dtype=c.dtype)
            c[self.lo + k : self.hi + k + 1] = self.coef
        return float(np.abs(c[k:] - np.conj(c[k::-1])).max()) / scale

    def orthogonality_residual(self) -> float:
        """Max pointwise ||R^T R - Id|| over max(8, 4 (degree + 1)) fiber
        angles, of a field R real on SM, sampled in real arithmetic from its
        modes m >= 0 as a product factor is; ValueError for a field not real
        on SM."""
        if not _is_real(self):
            raise ValueError("orthogonality_residual needs a field real on SM")
        r = _real_angles(self, max(8, 4 * (self.degree + 1)))
        g = _matmul3(np.swapaxes(r, 1, 2), r)
        g -= np.eye(3)[:, :, None, None]
        return float(np.sqrt(np.einsum("tijyx,tijyx->tyx", g, g)).max())


# -- L2 structure ---------------------------------------------------------------


def l2_inner(u: FourierField, v: FourierField) -> complex:
    u._check_same(v)
    met = u.metric
    dxdy = (met.lx / met.nx) * (met.ly / met.ny)
    lo = max(u.lo, v.lo)
    n = max(min(u.hi, v.hi) - lo + 1, 0)
    cu = u.coef[lo - u.lo : lo - u.lo + n]
    cv = v.coef[lo - v.lo : lo - v.lo + n]
    total = np.einsum("mijyx,mijyx,yx->", cu, np.conj(cv), met.e_2lam)
    return complex(2.0 * np.pi * dxdy * total)


def grid_l2_norm(metric: TorusMetric, grid: np.ndarray, fiber: bool = False) -> float:
    """L2 norm of a single (3, 3, ny, nx) grid over the torus (e^{2 lam}
    weight), read as a one-mode band.

    With fiber=True the 2 pi fiber factor is included, matching the L2 norm
    of the single-mode field with this coefficient.
    """
    return _norm(metric, grid[None], fiber)


def _norm(metric: TorusMetric, band: np.ndarray, fiber: bool) -> float:
    """sqrt of the grid sum of e^{2 lam} (re^2 + im^2) dx dy over every entry
    of a (n_modes, 3, 3, ny, nx) band, times 2 pi with fiber=True.  No
    conjugate copy is made."""
    sq = np.einsum("mijyx,mijyx->yx", band.real, band.real)
    if np.iscomplexobj(band):
        sq += np.einsum("mijyx,mijyx->yx", band.imag, band.imag)
    val = np.vdot(sq, metric.e_2lam) * (metric.lx / metric.nx) * (metric.ly / metric.ny)
    if fiber:
        val *= 2.0 * np.pi
    return float(np.sqrt(val))


# -- first order operators ------------------------------------------------------


def vertical(u: FourierField) -> FourierField:
    """V(u) = du/dtheta: multiplication by i*m on mode m."""
    return FourierField.band(u.metric, u.lo, 1j * u._ms()[:, None, None, None, None] * u.coef)


def _exp_lam(metric: TorusMetric, ks: np.ndarray) -> np.ndarray:
    """e^{k lam} for each k in ks, shaped to scale a band of modes."""
    return np.exp(np.multiply.outer(ks, metric.lam))[:, None, None]


def eta_minus(u: FourierField) -> FourierField:
    met = u.metric
    ms = u._ms()
    d = spectral.dbar(u.coef * _exp_lam(met, ms), met.lx, met.ly, axes=(3, 4))
    d *= _exp_lam(met, -(1 + ms))
    return FourierField.band(met, u.lo - 1, d)


def eta_plus(u: FourierField) -> FourierField:
    met = u.metric
    ms = u._ms()
    d = spectral.dz(u.coef * _exp_lam(met, -ms), met.lx, met.ly, axes=(3, 4))
    d *= _exp_lam(met, ms - 1)
    return FourierField.band(met, u.lo + 1, d)


def eta_pair(u: FourierField) -> tuple[FourierField, FourierField]:
    """(eta_plus(u), eta_minus(u)).  For u real on SM eta_plus(u) is the
    conjugate of eta_minus(u), since dz(conj f) = conj(dbar f) and lam is
    real, so one spectral transform serves both."""
    em = eta_minus(u)
    return (em.conj() if _is_real(u) else eta_plus(u)), em


def x_op(u: FourierField) -> FourierField:
    """Geodesic vector field X = eta_plus + eta_minus in mode calculus."""
    ep, em = eta_pair(u)
    return ep + em


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
        """Build from a field with modes +-1; raises ValueError if structure
        is violated, and on any non-finite coefficient (errors.gate's rule)."""
        scale = float(np.abs(f.coef).max())
        for m, c in f.modes.items():
            if m not in (-1, 1):
                gate(np.abs(c).max(), tol * scale, ValueError,
                     f"connection field content in mode {m}")
        c1 = f.mode(1)
        cm1 = f.mode(-1)
        a = c1 + cm1
        b = 1j * (c1 - cm1)
        gate(worst([np.abs(a.imag).max(), np.abs(b.imag).max()]), tol * max(scale, 1e-300),
             ValueError, "connection coefficients' imaginary part")
        return cls(f.metric, a.real, b.real)

    def _mode_into(self, m: int, out: np.ndarray) -> None:
        """Write mode m = +-1 of A, (a - i m b)/2, into the (3, 3, ny, nx)
        complex array out, with the operations of 0.5 * (a -+ 1j * b)."""
        np.multiply(1j, self.b, out=out)
        (np.subtract if m == 1 else np.add)(self.a, out, out=out)
        np.multiply(0.5, out, out=out)

    def band(self, m: int) -> FourierField:
        """A_m, the one-mode field of mode m = +-1 of A: A_1 = (A - i V(A))/2
        for m = 1, its conjugate A_{-1} for m = -1."""
        met = self.metric
        out = np.empty((1, 3, 3, met.ny, met.nx), dtype=complex)
        self._mode_into(m, out[0])
        return FourierField.band(met, m, out)

    def as_field(self) -> FourierField:
        """A as one band of modes -1, 0, 1 (mode 0 is zero)."""
        met = self.metric
        out = np.empty((3, 3, 3, met.ny, met.nx), dtype=complex)
        self._mode_into(-1, out[0])
        out[1] = 0.0
        self._mode_into(1, out[2])
        return FourierField.band(met, -1, out)

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
        return FourierField(self.metric, {0: self.phi.astype(complex)})

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
        """A + Phi as one field (modes -1, 0, 1)."""
        return self.conn.as_field() + self.higgs.as_field()


def mu_plus(u: FourierField, conn: Connection) -> FourierField:
    return eta_plus(u) + conn.band(1) @ u


def mu_minus(u: FourierField, conn: Connection) -> FourierField:
    return eta_minus(u) + conn.band(-1) @ u


def hodge_star(f: FourierField) -> FourierField:
    """Hodge star of a 1-form field omega(x, v) = <1-form, v> (modes +-1),
    realized fiberwise as -V."""
    return vertical(f) * (-1.0)


def d_A(g: np.ndarray, conn: Connection) -> FourierField:
    """Covariant derivative of a matrix function of the base point, as a field.

    g is a (3, 3, ny, nx) grid; the result is X(g) + [A, g] with modes +-1:
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
