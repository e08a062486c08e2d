"""Conformally flat torus metrics, the canonical frame on the unit tangent
bundle, and geodesic integration.

The torus is R^2 / (Lx Z x Ly Z) with metric e^{2 lambda(x,y)} (dx^2 + dy^2)
in isothermal coordinates; the unit tangent bundle carries coordinates
(x, y, theta) where theta is the angle of the unit vector against d/dx.
The canonical frame is

  X = e^{-lambda} (cos t d/dx + sin t d/dy + (-lam_x sin t + lam_y cos t) d/dt)
  H = e^{-lambda} (-sin t d/dx + cos t d/dy - (lam_x cos t + lam_y sin t) d/dt)
  V = d/dt

with t = theta; X generates the geodesic flow, V the fiber rotation, and
H = [V, X].  Gauss curvature: K = -e^{-2 lambda} Laplacian(lambda).

Grids are (ny, nx) row-major with x fastest: grid[j, i] is the value at
x = i*Lx/nx, y = j*Ly/ny.  Sample cubes over the fiber use (ntheta, ny, nx)
leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import NonSmoothLambda, StepTooLarge
from .interp import PeriodicCubic2D

NYQUIST_TOL = 1e-10
MAX_EXACT_HARMONICS = 8
MAX_STEP_FRACTION = 1e-2


@dataclass(frozen=True)
class Harmonic:
    """One separable term amp * cx * cy of a conformal factor, where
    cx = cos(2 pi kx x / Lx + phase_x) for kx != 0 and 1 otherwise (same in y)."""

    amp: float
    kx: int = 0
    ky: int = 0
    phase_x: float = 0.0
    phase_y: float = 0.0


@dataclass(frozen=True)
class SMPoint:
    """Point of the unit tangent bundle in (x, y, theta) coordinates."""

    x: float
    y: float
    theta: float

    def wrapped(self, lx: float, ly: float) -> "SMPoint":
        return SMPoint(self.x % lx, self.y % ly, self.theta % (2.0 * np.pi))


def _eval_harmonics(harmonics, x, y, lx, ly):
    """(lambda, lambda_x, lambda_y) of a harmonic sum at arbitrary points."""
    lam = np.zeros_like(np.asarray(x, dtype=float))
    lam_x = np.zeros_like(lam)
    lam_y = np.zeros_like(lam)
    for h in harmonics:
        if h.kx:
            ax = 2.0 * np.pi * h.kx / lx
            cx = np.cos(ax * x + h.phase_x)
            sx = np.sin(ax * x + h.phase_x)
        else:
            ax, cx, sx = 0.0, 1.0, 0.0
        if h.ky:
            ay = 2.0 * np.pi * h.ky / ly
            cy = np.cos(ay * y + h.phase_y)
            sy = np.sin(ay * y + h.phase_y)
        else:
            ay, cy, sy = 0.0, 1.0, 0.0
        lam += h.amp * cx * cy
        lam_x += -h.amp * ax * sx * cy
        lam_y += -h.amp * ay * cx * sy
    return lam, lam_x, lam_y


class TorusMetric:
    """Discretized conformal factor with cached derivatives and curvature.

    Construct with flat(), from_harmonics() or from_grid().  Off-grid values
    of lambda and its gradient come from the exact trigonometric series when
    the metric was built from at most 8 harmonics, otherwise from bicubic
    interpolation on a spectrally refined grid.
    """

    def __init__(self, nx, ny, lx, ly, lam, harmonics=None):
        if nx < 16 or ny < 16:
            raise ValueError("grid must be at least 16x16")
        if not (0 < lx < np.inf and 0 < ly < np.inf):
            raise ValueError("torus side lengths must be positive and finite")
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (ny, nx):
            raise ValueError(f"lambda grid must have shape ({ny}, {nx})")
        if not np.isfinite(lam).all():
            raise ValueError("lambda must be finite")
        nyq = spectral.nyquist_shell_max(lam)
        if nyq > NYQUIST_TOL:
            raise NonSmoothLambda(
                f"lambda Nyquist coefficient {nyq:.3e} exceeds {NYQUIST_TOL:.1e}"
            )
        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)
        self.lam = lam
        self.harmonics = tuple(harmonics) if harmonics is not None else None
        self.lam_x = spectral.deriv(lam, self.lx, axis=1)
        self.lam_y = spectral.deriv(lam, self.ly, axis=0)
        self.e_lam = np.exp(lam)
        self.e_neg_lam = np.exp(-lam)
        self.e_2lam = np.exp(2.0 * lam)
        self.gauss = -np.exp(-2.0 * lam) * spectral.laplacian(lam, self.lx, self.ly)
        self._interp = None

    @classmethod
    def flat(cls, nx=64, ny=64, lx=1.0, ly=1.0):
        return cls(nx, ny, lx, ly, np.zeros((ny, nx)), harmonics=())

    @classmethod
    def from_harmonics(cls, nx, ny, lx, ly, harmonics):
        harmonics = tuple(
            h if isinstance(h, Harmonic)
            else Harmonic(**h) if isinstance(h, dict)
            else Harmonic(*h)
            for h in harmonics
        )
        xg, yg = grid_coords(nx, ny, lx, ly)
        lam, _, _ = _eval_harmonics(harmonics, xg, yg, lx, ly)
        return cls(nx, ny, lx, ly, lam, harmonics=harmonics)

    @classmethod
    def from_grid(cls, lx, ly, lam):
        lam = np.asarray(lam, dtype=float)
        ny, nx = lam.shape
        return cls(nx, ny, lx, ly, lam)

    @property
    def is_flat(self) -> bool:
        return float(np.abs(self.lam).max()) < 1e-14

    def area(self) -> float:
        return float(self.e_2lam.mean() * self.lx * self.ly)

    def _exact_series(self) -> bool:
        return self.harmonics is not None and len(self.harmonics) <= MAX_EXACT_HARMONICS

    def lambda_and_grad_at(self, x, y):
        """(lambda, lambda_x, lambda_y) at arbitrary points (periodic)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._exact_series():
            return _eval_harmonics(self.harmonics, x, y, self.lx, self.ly)
        if self._interp is None:
            stack = np.stack([self.lam, self.lam_x, self.lam_y], axis=-1)
            self._interp = PeriodicCubic2D(stack, self.lx, self.ly)
        vals = self._interp(x % self.lx, y % self.ly)
        return vals[..., 0], vals[..., 1], vals[..., 2]

    def theta_grid(self, ntheta: int) -> np.ndarray:
        return 2.0 * np.pi * np.arange(ntheta) / ntheta

    def __eq__(self, other):
        return (
            isinstance(other, TorusMetric)
            and self.nx == other.nx
            and self.ny == other.ny
            and self.lx == other.lx
            and self.ly == other.ly
            and np.array_equal(self.lam, other.lam)
        )

    def __hash__(self):
        return hash((self.nx, self.ny, self.lx, self.ly))


def grid_coords(nx, ny, lx, ly):
    """Meshgrid arrays (xg, yg) of shape (ny, nx)."""
    x = np.arange(nx) * (lx / nx)
    y = np.arange(ny) * (ly / ny)
    return np.meshgrid(x, y, indexing="xy")


def _expand(grid: np.ndarray, sample_ndim: int, lead: int = 1) -> np.ndarray:
    """Reshape a (ny, nx) grid for broadcasting against (ntheta, ny, nx, ...)."""
    shape = (1,) * lead + grid.shape + (1,) * (sample_ndim - lead - grid.ndim)
    return grid.reshape(shape)


def frame_apply(metric: TorusMetric, samples: np.ndarray, op: str) -> np.ndarray:
    """Apply a frame vector field to a sampled function on the unit tangent bundle.

    samples: shape (ntheta, ny, nx) or (ntheta, ny, nx, 3, 3), uniformly
    sampled in all three periodic variables.  op is one of "X", "H", "V".
    Derivatives are spectral in every variable; the fiber grid must resolve
    the field (ntheta at least 4*(degree+1) is the convention used by the
    Fourier-mode code paths).
    """
    samples = np.asarray(samples)
    if samples.shape[1:3] != (metric.ny, metric.nx):
        raise ValueError("sample grid does not match the metric grid")
    ntheta = samples.shape[0]
    nd = samples.ndim
    if op == "V":
        return spectral.deriv(samples, 2.0 * np.pi, axis=0)
    theta = metric.theta_grid(ntheta)
    cos_t = _expand(np.cos(theta), nd, lead=0)
    sin_t = _expand(np.sin(theta), nd, lead=0)
    lam_x = _expand(metric.lam_x, nd)
    lam_y = _expand(metric.lam_y, nd)
    e_neg = _expand(metric.e_neg_lam, nd)
    du_x = spectral.deriv(samples, metric.lx, axis=2)
    du_y = spectral.deriv(samples, metric.ly, axis=1)
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


@dataclass
class GeodesicPath:
    """Geodesic flow trajectory sampled at uniform time steps.

    Positions are stored unwrapped (x, y may leave the fundamental domain,
    theta may wind); consumers reduce modulo the periods as needed.
    """

    metric: TorusMetric
    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray
    dt: float

    def endpoint(self) -> SMPoint:
        return SMPoint(float(self.xs[-1]), float(self.ys[-1]), float(self.thetas[-1]))

    def point(self, k: int) -> SMPoint:
        return SMPoint(float(self.xs[k]), float(self.ys[k]), float(self.thetas[k]))

    def unit_speed_residual(self) -> float:
        """Max deviation of the coordinate speed from e^{-lambda} along the path
        (finite-difference velocity against the stored conformal factor)."""
        vx = np.gradient(self.xs, self.times)
        vy = np.gradient(self.ys, self.times)
        lam, _, _ = self.metric.lambda_and_grad_at(self.xs, self.ys)
        speed2 = np.exp(2.0 * lam) * (vx**2 + vy**2)
        interior = slice(1, -1)
        return float(np.abs(speed2[interior] - 1.0).max())


def _geodesic_rhs(metric, x, y, theta):
    lam, lam_x, lam_y = metric.lambda_and_grad_at(x, y)
    e = np.exp(-lam)
    c, s = np.cos(theta), np.sin(theta)
    return e * c, e * s, e * (-lam_x * s + lam_y * c)


def integrate_geodesic(
    metric: TorusMetric, p0: SMPoint, t_final: float, dt: float
) -> GeodesicPath:
    """Classical RK4 integration of the geodesic equations from p0.

    t_final may be negative (time-reversed flow).  dt is a magnitude; it is
    adjusted slightly so an integer number of steps lands exactly on t_final.
    Raises StepTooLarge if dt exceeds 1e-2 * min(Lx, Ly).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > MAX_STEP_FRACTION * min(metric.lx, metric.ly):
        raise StepTooLarge(
            f"dt = {dt:g} exceeds {MAX_STEP_FRACTION:g} * min(Lx, Ly) = "
            f"{MAX_STEP_FRACTION * min(metric.lx, metric.ly):g}"
        )
    if t_final == 0:
        raise ValueError("t_final must be nonzero")
    nsteps = max(1, int(round(abs(t_final) / dt)))
    h = t_final / nsteps
    xs = np.empty(nsteps + 1)
    ys = np.empty(nsteps + 1)
    ts = np.empty(nsteps + 1)
    xs[0], ys[0], ts[0] = p0.x, p0.y, p0.theta
    x, y, th = float(p0.x), float(p0.y), float(p0.theta)
    for k in range(nsteps):
        ax1, ay1, at1 = _geodesic_rhs(metric, x, y, th)
        ax2, ay2, at2 = _geodesic_rhs(
            metric, x + 0.5 * h * ax1, y + 0.5 * h * ay1, th + 0.5 * h * at1
        )
        ax3, ay3, at3 = _geodesic_rhs(
            metric, x + 0.5 * h * ax2, y + 0.5 * h * ay2, th + 0.5 * h * at2
        )
        ax4, ay4, at4 = _geodesic_rhs(metric, x + h * ax3, y + h * ay3, th + h * at3)
        x += h / 6.0 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        y += h / 6.0 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
        th += h / 6.0 * (at1 + 2.0 * at2 + 2.0 * at3 + at4)
        xs[k + 1], ys[k + 1], ts[k + 1] = x, y, th
    times = np.linspace(0.0, t_final, nsteps + 1)
    return GeodesicPath(metric, times, xs, ys, ts, h)


def torus_distance(metric: TorusMetric, p: SMPoint, q: SMPoint) -> float:
    """Coordinate distance between unit tangent vectors modulo the periods."""

    def circ(a, b, period):
        d = (a - b) % period
        return min(d, period - d)

    return float(
        np.hypot(
            np.hypot(circ(p.x, q.x, metric.lx), circ(p.y, q.y, metric.ly)),
            circ(p.theta, q.theta, 2.0 * np.pi),
        )
    )


def flat_closed_geodesics(metric: TorusMetric, count: int, seed: int = 0):
    """(p0, T) pairs of closed geodesics on a flat torus, rational slopes.

    Only meaningful for flat metrics (constant lambda = 0); raises ValueError
    otherwise.  Base points are drawn from a seeded generator so runs are
    reproducible.
    """
    if not metric.is_flat:
        raise ValueError("closed geodesics by slope require a flat metric")
    slopes = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 1), (3, 1), (1, 3), (3, 2), (2, 3)]
    rng = np.random.default_rng(seed)
    out = []
    for p, q in slopes[:count]:
        theta = float(np.arctan2(q * metric.ly, p * metric.lx))
        t_final = float(np.hypot(p * metric.lx, q * metric.ly))
        x0 = float(rng.uniform(0, metric.lx))
        y0 = float(rng.uniform(0, metric.ly))
        out.append((SMPoint(x0, y0, theta), t_final))
    return out
