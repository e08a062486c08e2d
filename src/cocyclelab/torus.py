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

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import spectral
from .errors import NonSmoothLambda, StepTooLarge
from .interp import PeriodicCubic2D

NYQUIST_TOL = 1e-10
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


def _harmonic_table(harmonics, lx, ly):
    """(amp, ax, phase_x, ay, phase_y) per harmonic, with ax = 2 pi kx / Lx
    (0 when kx = 0, and the same in y): the series as _eval_harmonics reads it."""
    return tuple(
        (h.amp, 2.0 * math.pi * h.kx / lx, h.phase_x,
         2.0 * math.pi * h.ky / ly, h.phase_y)
        for h in harmonics
    )


def _eval_harmonics(table, x, y, lib=np):
    """(lambda, lambda_x, lambda_y) of a harmonic sum at x, y of one shape.

    lib supplies cos and sin: numpy for arrays, math for Python floats (the
    geodesic loop, where a numpy call on a scalar costs more than the sum)."""
    lam = lam_x = lam_y = 0.0 * x
    for amp, ax, phase_x, ay, phase_y in table:
        if ax:
            cx = lib.cos(ax * x + phase_x)
            sx = lib.sin(ax * x + phase_x)
        else:
            cx, sx = 1.0, 0.0
        if ay:
            cy = lib.cos(ay * y + phase_y)
            sy = lib.sin(ay * y + phase_y)
        else:
            cy, sy = 1.0, 0.0
        lam = lam + amp * cx * cy
        lam_x = lam_x + -amp * ax * sx * cy
        lam_y = lam_y + -amp * ay * cx * sy
    return lam, lam_x, lam_y


def _check_grid(nx, ny, lx, ly) -> None:
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16x16")
    if not (0 < lx < np.inf and 0 < ly < np.inf):
        raise ValueError("torus side lengths must be positive and finite")


class TorusMetric:
    """Discretized conformal factor with cached derivatives and curvature.

    Construct with flat(), from_harmonics() or from_grid().  Off-grid values
    of lambda and its gradient come from the exact trigonometric series when
    the metric was built from harmonics, and from bicubic interpolation on a
    spectrally refined grid when it was built from a grid alone.
    """

    def __init__(self, nx, ny, lx, ly, lam, harmonics=None):
        _check_grid(nx, ny, lx, ly)
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
        self._series = (None if self.harmonics is None
                        else _harmonic_table(self.harmonics, self.lx, self.ly))
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
        # checked before sampling, where they would turn into NaN and warnings
        _check_grid(nx, ny, lx, ly)
        if not all(math.isfinite(v) for h in harmonics for v in astuple(h)):
            raise ValueError("harmonic parameters must be finite")
        xg, yg = grid_coords(nx, ny, lx, ly)
        lam, _, _ = _eval_harmonics(_harmonic_table(harmonics, lx, ly), xg, yg)
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

    def lambda_and_grad_at(self, x, y):
        """(lambda, lambda_x, lambda_y) at arbitrary points (periodic)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._series is not None:
            return _eval_harmonics(self._series, x, y)
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


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of magnitude about dt that land exactly on t_final.
    Raises ValueError unless t_final is finite and nonzero and dt finite and
    positive."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_final) and t_final != 0):
        raise ValueError("t_final must be nonzero and finite")
    return max(1, int(round(abs(t_final) / dt)))


def integrate_geodesic(
    metric: TorusMetric, p0: SMPoint, t_final: float, dt: float
) -> GeodesicPath:
    """Classical RK4 integration of the geodesic equations from p0.

    t_final may be negative (time-reversed flow).  dt is a magnitude; it is
    adjusted slightly so an integer number of steps lands exactly on t_final.
    Raises ValueError on a non-finite p0, t_final or dt, and StepTooLarge if
    dt exceeds 1e-2 * min(Lx, Ly).

    The loop runs on Python floats: a step is four evaluations of lambda and
    its gradient plus a few float operations, where numpy calls on scalars
    would cost more than the arithmetic.
    """
    nsteps = step_count(t_final, dt)
    if dt > MAX_STEP_FRACTION * min(metric.lx, metric.ly):
        raise StepTooLarge(
            f"dt = {dt:g} exceeds {MAX_STEP_FRACTION:g} * min(Lx, Ly) = "
            f"{MAX_STEP_FRACTION * min(metric.lx, metric.ly):g}"
        )
    x, y, th = float(p0.x), float(p0.y), float(p0.theta)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
        raise ValueError("start point must be finite")
    series = metric._series
    if series is not None:
        def grad(x, y):
            return _eval_harmonics(series, x, y, math)
    else:
        def grad(x, y):
            lam, lam_x, lam_y = metric.lambda_and_grad_at(x, y)
            return lam.item(), lam_x.item(), lam_y.item()
    cos, sin, exp = math.cos, math.sin, math.exp

    def rhs(x, y, th):
        lam, lam_x, lam_y = grad(x, y)
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
    return GeodesicPath(metric, times, np.array(xs), np.array(ys), np.array(ts), h)


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


# the first slopes (p, q) of flat_closed_geodesics, in this order
FIRST_SLOPES = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 1), (3, 1), (1, 3), (3, 2), (2, 3))


def _closed_slopes(lx: float, ly: float, count: int) -> list:
    """FIRST_SLOPES, then the other primitive (p, q) (gcd 1, one of +-(p, q),
    namely q > 0 or (p, q) = (1, 0)) by increasing length hypot(p Lx, q Ly),
    ties by (p, q); count of them."""
    slopes = list(FIRST_SLOPES[:count])
    bound = max(lx, ly)
    while len(slopes) < count:
        # every slope of length <= bound has |p| <= bound / Lx and q <= bound / Ly
        pmax, qmax = int(bound / lx), int(bound / ly)
        extra = sorted(
            (math.hypot(p * lx, q * ly), p, q)
            for q in range(1, qmax + 1)
            for p in range(-pmax, pmax + 1)
            if math.gcd(p, q) == 1 and (p, q) not in FIRST_SLOPES
        )
        extra = [(p, q) for length, p, q in extra if length <= bound]
        if len(FIRST_SLOPES) + len(extra) >= count:
            slopes += extra[: count - len(slopes)]
        bound *= 2.0
    return slopes


def flat_closed_geodesics(metric: TorusMetric, count: int, seed: int = 0):
    """(p0, T) pairs of count closed geodesics on a flat torus, rational slopes
    (see _closed_slopes).

    Only meaningful for flat metrics (constant lambda = 0); raises ValueError
    otherwise.  Base points are drawn from a seeded generator so runs are
    reproducible.
    """
    if not metric.is_flat:
        raise ValueError("closed geodesics by slope require a flat metric")
    rng = np.random.default_rng(seed)
    out = []
    for p, q in _closed_slopes(metric.lx, metric.ly, count):
        theta = float(np.arctan2(q * metric.ly, p * metric.lx))
        t_final = float(np.hypot(p * metric.lx, q * metric.ly))
        x0 = float(rng.uniform(0, metric.lx))
        y0 = float(rng.uniform(0, metric.ly))
        out.append((SMPoint(x0, y0, theta), t_final))
    return out
