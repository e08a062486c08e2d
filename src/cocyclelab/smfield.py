"""Matrix-valued functions on the unit tangent bundle as fiber Fourier sums.

A field u(x, y, theta) with values in 3x3 complex matrices is a finite
Fourier series in the fiber angle, u = sum_m c_m(x, y) e^{i m theta}, stored
as one contiguous band of modes: the lowest mode lo and an array coef of
shape (n_modes, 3, 3, ny, nx) holding c_lo, ..., c_{lo+n_modes-1} in order
(mode(m) and modes hand out (ny, nx, 3, 3) views).  Modes inside the band may
be zero.  The vertical field V acts as multiplication by i*m on mode m, the
raising/lowering parts of the frame act on the whole band at once:

  eta_minus : mode m -> m-1,  c |-> e^{-(1+m) lam} dbar(c e^{m lam})
  eta_plus  : mode m -> m+1,  c |-> e^{(m-1) lam} dz(c e^{-m lam})

with dbar = (d/dx + i d/dy)/2, dz = (d/dx - i d/dy)/2 spectral, and
X = eta_plus + eta_minus, H = i (eta_plus - eta_minus).

Connections are fields A = a cos(theta) + b sin(theta) with antisymmetric
real coefficient grids (so modes +-1 only); Higgs fields are antisymmetric
real mode-0 grids.  The product of two fields is pseudo-spectral (Boyd,
Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 11): both bands are
sampled at len_u + len_v - 1 equispaced fiber angles, multiplied pointwise
and transformed back.  That many samples resolve the whole product band
[lo_u + lo_v, hi_u + hi_v], so nothing aliases and nothing is truncated; the
product is exact to rounding.  The fiber transforms are products with small
dense DFT matrices, cached by size, which beat an FFT along the short mode
axis.  Every pointwise 3x3 product, of bands and of (ny, nx, 3, 3) grids
alike, runs through one unrolled kernel of nine output planes, each a sum
of three plane products.

The L2 pairing is <u, v> = integral over SM of trace(u v*) with measure
e^{2 lam} dx dy dtheta, evaluated as a plain grid sum (spectrally accurate
for smooth integrands): 2 pi * sum_m sum_grid trace(c_m d_m^*) e^{2 lam} dx dy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import spectral
from .errors import worst
from .interp import PeriodicCubic2D
from .torus import TorusMetric


def _matrix_first(grid: np.ndarray) -> np.ndarray:
    """A (..., ny, nx, 3, 3) grid as a (..., 3, 3, ny, nx) view."""
    return np.moveaxis(grid, (-2, -1), (-4, -3))


def _grid_first(arr: np.ndarray) -> np.ndarray:
    """A (..., 3, 3, ny, nx) array as a (..., ny, nx, 3, 3) view."""
    return np.moveaxis(arr, (-4, -3), (-2, -1))


def _matmul3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise 3x3 product of (..., 3, 3, ny, nx) arrays, broadcast over the
    leading axes: plane out[i, j] is the sum over k of a[i, k] b[k, j]."""
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


def grid_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of (..., ny, nx, 3, 3) grids through _matmul3."""
    return _grid_first(_matmul3(_matrix_first(a), _matrix_first(b)))


@lru_cache(maxsize=64)
def _fiber_dft(nt: int, n: int) -> np.ndarray:
    """The read-only (nt, n) matrix e^{i k theta_j} of modes k = 0 .. n-1 at
    the fiber angles theta_j = 2 pi j / nt."""
    mat = np.exp(2j * np.pi / nt * (np.multiply.outer(np.arange(nt), np.arange(n)) % nt))
    mat.setflags(write=False)
    return mat


def _to_angles(coef: np.ndarray, nt: int) -> np.ndarray:
    """sum_k coef[k] e^{i k theta} at theta_j = 2 pi j / nt, nt >= len(coef)."""
    vals = _fiber_dft(nt, len(coef)) @ coef.reshape(len(coef), -1)
    return vals.reshape((nt,) + coef.shape[1:])


def _from_angles(samples: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Coefficients of the modes ks (taken mod nt) of nt equispaced samples."""
    nt = len(samples)
    coef = (_fiber_dft(nt, nt)[ks].conj() / nt) @ samples.reshape(nt, -1)
    return coef.reshape((len(ks),) + samples.shape[1:])


class FourierField:
    """A contiguous band of fiber modes of a matrix field on SM."""

    __slots__ = ("metric", "lo", "coef")

    def __init__(self, metric: TorusMetric, modes: dict[int, np.ndarray]):
        grids = {int(m): np.asarray(c) for m, c in modes.items()}
        for c in grids.values():
            if c.shape != (metric.ny, metric.nx, 3, 3):
                raise ValueError(f"mode grid must have shape ({metric.ny}, {metric.nx}, 3, 3), "
                                 f"got {c.shape}")
        lo = min(grids, default=0)
        hi = max(grids, default=0)
        coef = np.zeros((hi - lo + 1, 3, 3, metric.ny, metric.nx), dtype=complex)
        for m, c in grids.items():
            coef[m - lo] = _matrix_first(c)
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
        return cls.from_grid(metric, np.broadcast_to(np.eye(3), (metric.ny, metric.nx, 3, 3)))

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
        """Read-only mapping from each mode of the band to its (ny, nx, 3, 3) grid."""
        return MappingProxyType({self.lo + k: _grid_first(c) for k, c in enumerate(self.coef)})

    @property
    def degree(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def _ms(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def mode(self, m: int) -> np.ndarray:
        if self.lo <= m <= self.hi:
            return _grid_first(self.coef[m - self.lo])
        return np.zeros((self.metric.ny, self.metric.nx, 3, 3), dtype=complex)

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
        self._check_same(other)
        lo = min(self.lo, other.lo)
        coef = np.zeros((max(self.hi, other.hi) - lo + 1,) + self.coef.shape[1:], dtype=complex)
        coef[self.lo - lo : self.hi + 1 - lo] = self.coef
        coef[other.lo - lo : other.hi + 1 - lo] += other.coef
        return FourierField.band(self.metric, lo, coef)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "FourierField":
        return FourierField.band(self.metric, self.lo, self.coef * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "FourierField") -> "FourierField":
        """Pointwise matrix product on SM at len_u + len_v - 1 fiber angles,
        exact to rounding; a one-mode factor is fiber-constant and needs no
        transform (module docstring)."""
        self._check_same(other)
        u, v = self.coef, other.coef
        if min(len(u), len(v)) == 1:
            prod = _matmul3(u, v)
        else:
            nt = len(u) + len(v) - 1
            prod = _matmul3(_to_angles(u, nt), _to_angles(v, nt))
            prod = _from_angles(prod, np.arange(nt))
        return FourierField.band(self.metric, self.lo + other.lo, prod)

    def transpose(self) -> "FourierField":
        """Pointwise matrix transpose (the inverse for SO(3)-valued fields)."""
        return FourierField.band(self.metric, self.lo, np.swapaxes(self.coef, 1, 2))

    def conj(self) -> "FourierField":
        """Pointwise complex conjugate of the field (mode m -> -m, conjugated)."""
        return FourierField.band(self.metric, -self.hi, np.conj(self.coef[::-1]))

    # -- sampling ------------------------------------------------------------

    def sample(self, ntheta: int | None = None) -> np.ndarray:
        """Pointwise values on the (theta, y, x) product grid: (ntheta, ny, nx, 3, 3)."""
        ntheta = max(8, 4 * (self.degree + 1)) if ntheta is None else ntheta
        if ntheta < 2 * self.degree + 1:
            raise ValueError("theta grid too coarse for the field degree")
        phase = np.exp(1j * self.lo * self.metric.theta_grid(ntheta))
        return _grid_first(_to_angles(self.coef, ntheta) * phase[:, None, None, None, None])

    @classmethod
    def from_samples(
        cls, metric: TorusMetric, samples: np.ndarray, degree: int | None = None
    ) -> "FourierField":
        """Inverse of sample(); exact when ntheta > 2*degree."""
        samples = np.asarray(samples, dtype=complex)
        ntheta = samples.shape[0]
        if degree is None:
            degree = (ntheta - 1) // 2
        if ntheta < 2 * degree + 1:
            raise ValueError("theta grid too coarse for the requested degree")
        coef = _from_angles(_matrix_first(samples), np.arange(-degree, degree + 1) % ntheta)
        return cls.band(metric, -degree, coef)

    def interpolant(self):
        """Evaluator (x, y, theta) -> real values at arbitrary SM points, shape
        (..., 3, 3), of a field that is real on SM (c_{-m} = conj(c_m), which
        reality_residual measures).  It reads modes m >= 0 only: one bicubic
        spline over the real channels [Re c_0, 2 Re c_m, -2 Im c_m], m = 1..hi,
        summed against 1, cos(m theta) and sin(m theta)."""
        met = self.metric
        hi = max(self.hi, 0)
        pos = np.stack([self.mode(m) for m in range(hi + 1)], axis=2).reshape(
            met.ny, met.nx, hi + 1, 9
        )
        stack = np.concatenate([pos.real, -pos.imag[:, :, 1:]], axis=2)
        stack[:, :, 1:] *= 2.0
        spline = PeriodicCubic2D(stack.reshape(met.ny, met.nx, -1), met.lx, met.ly)
        ms = np.arange(1, hi + 1, dtype=float)

        def at(x, y, theta) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            vals = spline(x % met.lx, np.asarray(y, dtype=float) % met.ly)
            mt = np.multiply.outer(np.asarray(theta, dtype=float), ms)
            basis = np.concatenate([np.ones(mt.shape[:-1] + (1,)), np.cos(mt), np.sin(mt)], axis=-1)
            out = np.einsum("...kc,...k->...c", vals.reshape(x.shape + (2 * hi + 1, 9)), basis)
            return out.reshape(x.shape + (3, 3))

        return at

    # -- norms and checks ------------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.sqrt(max(l2_inner(self, self).real, 0.0)))

    def reality_residual(self) -> float:
        """Max norm of c_{-m} - conj(c_m) over modes, relative to the field size."""
        scale = float(np.abs(self.coef).max())
        if scale == 0.0:
            return 0.0
        return float(np.abs((self - self.conj()).coef).max()) / scale

    def orthogonality_residual(self) -> float:
        """Max pointwise ||R^T R - Id|| + imaginary part, over the default
        theta grid."""
        s = _matrix_first(self.sample())
        im = float(np.abs(s.imag).max())
        r = s.real
        g = _matmul3(np.swapaxes(r, 1, 2), r) - np.eye(3)[:, :, None, None]
        return float(np.sqrt(np.einsum("tijyx,tijyx->tyx", g, g)).max() + im)


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
    """L2 norm of a single (ny, nx, 3, 3) grid over the torus (e^{2 lam} weight).

    With fiber=True the 2 pi fiber factor is included, matching the L2 norm
    of the single-mode field with this coefficient.
    """
    dxdy = (metric.lx / metric.nx) * (metric.ly / metric.ny)
    val = np.einsum("yxij,yxij,yx->", grid, np.conj(grid), metric.e_2lam).real * dxdy
    if fiber:
        val *= 2.0 * np.pi
    return float(np.sqrt(max(val, 0.0)))


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


def x_op(u: FourierField) -> FourierField:
    """Geodesic vector field X = eta_plus + eta_minus in mode calculus."""
    return eta_plus(u) + eta_minus(u)


def h_op(u: FourierField) -> FourierField:
    """Horizontal complement H = i (eta_plus - eta_minus)."""
    return (eta_plus(u) - eta_minus(u)) * 1j


# -- connections and Higgs fields -------------------------------------------------


def _antisym_residual(arr: np.ndarray) -> float:
    s = arr + np.swapaxes(arr, -1, -2)
    return float(np.abs(s).max())


@dataclass
class Connection:
    """SO(3) connection restricted to SM: A = a cos(theta) + b sin(theta).

    a, b are real antisymmetric (ny, nx, 3, 3) grids; in terms of the 1-form
    A_x dx + A_y dy they are a = e^{-lam} A_x, b = e^{-lam} A_y.
    """

    metric: TorusMetric
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        shape = (self.metric.ny, self.metric.nx, 3, 3)
        if self.a.shape != shape or self.b.shape != shape:
            raise ValueError(f"connection grids must have shape {shape}")

    @classmethod
    def zero(cls, metric: TorusMetric) -> "Connection":
        z = np.zeros((metric.ny, metric.nx, 3, 3))
        return cls(metric, z, z.copy())

    @classmethod
    def from_field(cls, f: FourierField, tol: float = 1e-8) -> "Connection":
        """Build from a field with modes +-1; raises if structure is violated."""
        scale = float(np.abs(f.coef).max())
        for m, c in f.modes.items():
            if m not in (-1, 1) and np.abs(c).max() > tol * scale:
                raise ValueError(f"connection field has content in mode {m}")
        c1 = f.mode(1)
        cm1 = f.mode(-1)
        a = c1 + cm1
        b = 1j * (c1 - cm1)
        if max(np.abs(a.imag).max(), np.abs(b.imag).max()) > tol * max(scale, 1e-300):
            raise ValueError("connection coefficients are not real")
        return cls(f.metric, a.real, b.real)

    def as_field(self) -> FourierField:
        c1 = 0.5 * (self.a - 1j * self.b)
        cm1 = 0.5 * (self.a + 1j * self.b)
        return FourierField(self.metric, {1: c1, -1: cm1})

    def antisymmetry_residual(self) -> float:
        return worst([_antisym_residual(self.a), _antisym_residual(self.b)])

    def norm(self) -> float:
        return self.as_field().l2_norm()

    def is_zero(self) -> bool:
        return max(np.abs(self.a).max(), np.abs(self.b).max()) <= 0.0


@dataclass
class Higgs:
    """Higgs field: antisymmetric real matrix function of the base point."""

    metric: TorusMetric
    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        shape = (self.metric.ny, self.metric.nx, 3, 3)
        if self.phi.shape != shape:
            raise ValueError(f"higgs grid must have shape {shape}")

    @classmethod
    def zero(cls, metric: TorusMetric) -> "Higgs":
        return cls(metric, np.zeros((metric.ny, metric.nx, 3, 3)))

    def as_field(self) -> FourierField:
        return FourierField(self.metric, {0: self.phi.astype(complex)})

    def antisymmetry_residual(self) -> float:
        return _antisym_residual(self.phi)

    def norm(self) -> float:
        return grid_l2_norm(self.metric, self.phi, fiber=True)

    def max_pointwise_norm(self) -> float:
        from .lie3 import so3_norm

        return float(so3_norm(self.phi).max())

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


def decompose_connection(conn: Connection) -> tuple[FourierField, FourierField]:
    """(A_1, A_{-1}) with A_1 = (A - i V(A))/2 in mode +1 and its conjugate in -1."""
    f = conn.as_field()  # modes -1, 0, 1
    return FourierField.band(f.metric, 1, f.coef[2:]), FourierField.band(f.metric, -1, f.coef[:1])


def mu_plus(u: FourierField, conn: Connection) -> FourierField:
    a1, _ = decompose_connection(conn)
    return eta_plus(u) + a1 @ u


def mu_minus(u: FourierField, conn: Connection) -> FourierField:
    _, am1 = decompose_connection(conn)
    return eta_minus(u) + am1 @ u


def hodge_star(f: FourierField) -> FourierField:
    """Hodge star of a 1-form field omega(x, v) = <1-form, v> (modes +-1),
    realized fiberwise as -V."""
    return vertical(f) * (-1.0)


def d_A(g: np.ndarray, conn: Connection) -> FourierField:
    """Covariant derivative of a matrix function of the base point, as a field.

    g is a (ny, nx, 3, 3) grid; the result is X(g) + [A, g] with modes +-1:
    the 1-form d g + [A, g] evaluated on unit tangent vectors.
    """
    gf = FourierField.from_grid(conn.metric, g)
    out = x_op(gf)
    if not conn.is_zero():
        af = conn.as_field()
        out = out + (af @ gf - gf @ af)
    return out


def dbar_A(g: np.ndarray, conn: Connection) -> np.ndarray:
    """Covariant dbar of a matrix function of the base point: the mode -1
    coefficient grid e^{-lam} dbar(g) + [A_{-1}, g] of d_A g."""
    c = eta_minus(FourierField.from_grid(conn.metric, g)).mode(-1)
    if not conn.is_zero():
        am1 = conn.as_field().mode(-1)
        c = c + grid_matmul(am1, g) - grid_matmul(g, am1)
    return c


def star_curvature(conn: Connection) -> np.ndarray:
    """The function *F_A = *(dA + A wedge A) on the base, an so(3) grid.

    In terms of the coefficient grids (a, b) and the conformal factor:
    e^{-lam}(b_x + b lam_x - a_y - a lam_y) + [a, b].
    """
    met = conn.metric
    b_x = spectral.deriv(conn.b, met.lx, axis=1)
    a_y = spectral.deriv(conn.a, met.ly, axis=0)
    lin = b_x + conn.b * met.lam_x[..., None, None] - a_y - conn.a * met.lam_y[..., None, None]
    lin *= met.e_neg_lam[..., None, None]
    return lin + (conn.a @ conn.b - conn.b @ conn.a)
