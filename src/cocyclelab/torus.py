"""Conformally flat torus metrics, the canonical frame on the unit tangent
bundle, and geodesic integration.

The torus is R^2 / (Lx Z x Ly Z) with metric e^{2 lambda(x,y)} (dx^2 + dy^2)
in isothermal coordinates, lambda a finite sum of separable harmonics
(Harmonic): the grid samples, the geodesic equations and every off-grid
value come from that one series.  The unit tangent bundle carries coordinates
(x, y, theta) where theta is the angle of the unit vector against d/dx.
The canonical frame is

  X = e^{-lambda} (cos t d/dx + sin t d/dy + (-lam_x sin t + lam_y cos t) d/dt)
  H = e^{-lambda} (-sin t d/dx + cos t d/dy - (lam_x cos t + lam_y sin t) d/dt)
  V = d/dt

with t = theta; X generates the geodesic flow, V the fiber rotation, and
H = [V, X].  Gauss curvature: K = -e^{-2 lambda} Laplacian(lambda).

Grids are (ny, nx) row-major with x fastest: grid[j, i] is the value at
x = i*Lx/nx, y = j*Ly/ny.  The geodesic RK4 loop is generated per metric
(_compile_geodesic_loop), its series written out as straight-line float code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import NonSmoothLambda, StepTooLarge, check_keys, json_int, json_number

MAX_STEP_FRACTION = 1e-2
# The most steps one geodesic run may take.  A transport run holds about
# 0.9 kB per step (the generator at its 2n + 1 half steps, the step
# propagators and the path), so 1e6 steps hold about 1 GB; the longest runs
# of the benchmark and the acceptance gate take 5e3 and 2e4 steps.
MAX_STEPS = 10**6


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


def _eval_harmonics(table, x, y):
    """(lambda, lambda_x, lambda_y) of a harmonic sum at grids x, y of one
    shape.  A table whose amplitudes are scaled by -(ax^2 + ay^2) gives the
    Laplacian of lambda in place of lambda, since each term is separable.
    _compile_geodesic_loop writes out the same sum on Python floats."""
    lam = lam_x = lam_y = 0.0 * x
    for amp, ax, phase_x, ay, phase_y in table:
        if ax:
            cx = np.cos(ax * x + phase_x)
            sx = np.sin(ax * x + phase_x)
        else:
            cx, sx = 1.0, 0.0
        if ay:
            cy = np.cos(ay * y + phase_y)
            sy = np.sin(ay * y + phase_y)
        else:
            cy, sy = 1.0, 0.0
        lam = lam + amp * cx * cy
        lam_x = lam_x + -amp * ax * sx * cy
        lam_y = lam_y + -amp * ay * cx * sy
    return lam, lam_x, lam_y


def _compile_geodesic_loop(table):
    """loop(x, y, th, h, n) -> lists xs, ys, ts of n classical RK4 steps of
    size h of the geodesic equations from (x, y, th), compiled from
    straight-line source for one harmonic table: the four stages inlined, each
    with the series of _eval_harmonics written out term by term, its table
    entries as float literals.  The float operations and their order are
    those of one rhs call per stage and _eval_harmonics on floats, and a zero
    wavenumber keeps its factors 1.0 and 0.0, so every bit (and the sign of
    every zero) is theirs.  Raises ValueError on a non-finite table entry."""
    def lit(v):
        v = float(v)
        if not math.isfinite(v):
            raise ValueError(f"harmonic series entry {v!r} is not finite")
        return repr(v)

    code = ["def loop(x, y, th, h, n, cos=cos, sin=sin, exp=exp):",
            " h2, h6 = 0.5 * h, h / 6.0", " xs, ys, ts = [x], [y], [th]",
            " xa, ya, ta = xs.append, ys.append, ts.append", " for _ in range(n):"]
    for k, step in enumerate(("", "h2", "h2", "h"), 1):
        u, v, w = ("x", "y", "th") if k == 1 else ("u", "v", "w")
        if step:
            code.append(f"  u = x + {step} * ax{k - 1}; v = y + {step} * ay{k - 1}; "
                        f"w = th + {step} * at{k - 1}")
        lam, lam_x, lam_y = "z", "z", "z"
        code.append(f"  z = 0.0 * {u}")
        for i, (amp, ax, px, ay, py) in enumerate(table):
            cx, sx, cy, sy = "1.0", "0.0", "1.0", "0.0"
            if ax:
                cx, sx = f"cx{i}", f"sx{i}"
                code.append(f"  a = {lit(ax)} * {u} + {lit(px)}; {cx} = cos(a); {sx} = sin(a)")
            if ay:
                cy, sy = f"cy{i}", f"sy{i}"
                code.append(f"  a = {lit(ay)} * {v} + {lit(py)}; {cy} = cos(a); {sy} = sin(a)")
            lam += f" + {lit(amp)} * {cx} * {cy}"
            lam_x += f" + {lit(-amp * ax)} * {sx} * {cy}"
            lam_y += f" + {lit(-amp * ay)} * {cx} * {sy}"
        code += [f"  lam = {lam}; lam_x = {lam_x}; lam_y = {lam_y}",
                 f"  e = exp(-lam); c = cos({w}); s = sin({w})",
                 f"  ax{k} = e * c; ay{k} = e * s; at{k} = e * (-lam_x * s + lam_y * c)"]
    code += [f"  {q} += h6 * (a{p}1 + 2.0 * a{p}2 + 2.0 * a{p}3 + a{p}4); {p}a({q})"
             for q, p in (("x", "x"), ("y", "y"), ("th", "t"))]
    code.append(" return xs, ys, ts")
    namespace = {"cos": math.cos, "sin": math.sin, "exp": math.exp}
    exec(compile("\n".join(code), "<geodesic loop>", "exec"), namespace)
    return namespace["loop"]


def _harmonic(h, k: int) -> Harmonic:
    """Harmonic k of a series: a Harmonic, a dict of its fields with amp, or
    a list of its first 1 to 5 fields in order; ValueError naming it otherwise."""
    if isinstance(h, Harmonic):
        return h
    names = [f.name for f in fields(Harmonic)]
    if isinstance(h, dict):
        check_keys(h, names, f"harmonic {k}")
        if "amp" in h:
            return Harmonic(**h)
    elif isinstance(h, (list, tuple)) and 1 <= len(h) <= len(names):
        return Harmonic(*h)
    raise ValueError(f"harmonic {k} must be an object with amp or a list of 1 to "
                     f"{len(names)} numbers ({', '.join(names)}), got {h!r}")


def _check_grid(nx, ny, lx, ly) -> None:
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16x16")
    if not (0 < lx < np.inf and 0 < ly < np.inf):
        raise ValueError("torus side lengths must be positive and finite")


class TorusMetric:
    """A conformal factor given by its harmonic series, sampled on the grid
    with its gradient and Gauss curvature.

    Construct with flat() or from_harmonics().  lambda, its gradient and its
    Laplacian, on the grid and off it, are the exact trigonometric series.
    """

    def __init__(self, nx, ny, lx, ly, harmonics):
        if not isinstance(harmonics, (list, tuple)):
            raise ValueError(f"harmonics must be a list, got {harmonics!r}")
        harmonics = tuple(_harmonic(h, k) for k, h in enumerate(harmonics))
        # a wavenumber is a JSON integer: true would read as 1 and 1.5 as no
        # period of the torus; amplitudes and phases are finite JSON numbers
        harmonics = tuple(replace(h, kx=json_int(h.kx, f"harmonic {k} kx"),
                                  ky=json_int(h.ky, f"harmonic {k} ky"))
                          for k, h in enumerate(harmonics))
        for k, h in enumerate(harmonics):
            for name in ("amp", "phase_x", "phase_y"):
                json_number(getattr(h, name), f"harmonic {k} {name}")
        _check_grid(nx, ny, lx, ly)
        self.nx, self.ny = int(nx), int(ny)
        # the grid samples alias a wavenumber of Nyquist or above to a lower
        # one, which the series (geodesics, curvature) does not
        for k, h in enumerate(harmonics):
            if not (2 * abs(h.kx) < self.nx and 2 * abs(h.ky) < self.ny):
                raise NonSmoothLambda(
                    f"harmonic {k} wavenumber ({h.kx}, {h.ky}) is not resolved by the "
                    f"{self.nx}x{self.ny} grid: 2|kx| < nx and 2|ky| < ny are needed")
        self.lx, self.ly = float(lx), float(ly)
        self.harmonics = harmonics
        self._series = _harmonic_table(harmonics, lx, ly)
        xg, yg = grid_coords(nx, ny, lx, ly)
        lam, lam_x, lam_y = _eval_harmonics(self._series, xg, yg)
        if not np.isfinite(lam).all():
            raise ValueError("lambda must be finite")
        laplacian = tuple((-amp * (ax * ax + ay * ay), ax, px, ay, py)
                          for amp, ax, px, ay, py in self._series)
        self.lam, self.lam_x, self.lam_y = lam, lam_x, lam_y
        self.e_neg_lam = np.exp(-lam)
        self.e_2lam = np.exp(2.0 * lam)
        self.gauss = -np.exp(-2.0 * lam) * _eval_harmonics(laplacian, xg, yg)[0]

    @classmethod
    def flat(cls, nx=64, ny=64, lx=1.0, ly=1.0):
        return cls(nx, ny, lx, ly, ())

    @classmethod
    def from_harmonics(cls, nx, ny, lx, ly, harmonics):
        """Harmonics are Harmonic objects, dicts of its fields or tuples."""
        return cls(nx, ny, lx, ly, harmonics)

    @cached_property
    def _geodesic_loop(self):
        return _compile_geodesic_loop(self._series)

    @property
    def is_flat(self) -> bool:
        return float(np.abs(self.lam).max()) < 1e-14

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

    def endpoint(self) -> SMPoint:
        return SMPoint(float(self.xs[-1]), float(self.ys[-1]), float(self.thetas[-1]))


def step_count(metric: TorusMetric, t_final: float, dt: float, cocycle: bool = False) -> int:
    """The step rule of every geodesic run: n = max(1, round(|t_final| / dt))
    steps of |t_final| / n land exactly on t_final, and the geodesic's step,
    that step or half of a cocycle step (cocycle=True: transport runs the
    geodesic at half steps), is at most MAX_STEP_FRACTION * min(Lx, Ly), else
    StepTooLarge (a ValueError).  ValueError unless t_final is finite and
    nonzero, dt finite and positive, and |t_final| / dt at most MAX_STEPS."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(t_final) and t_final != 0):
        raise ValueError("t_final must be nonzero and finite")
    count = abs(t_final) / dt
    if count > MAX_STEPS:
        raise ValueError(f"|t_final| / dt = {count:.3g} steps exceeds MAX_STEPS = {MAX_STEPS}")
    n = max(1, int(round(count)))
    step = abs(t_final) / n
    geodesic = step / 2 if cocycle else step
    limit = MAX_STEP_FRACTION * min(metric.lx, metric.ly)
    if geodesic > limit:
        note = f" (half of the cocycle step {step:g})" if cocycle else ""
        raise StepTooLarge(f"geodesic step {geodesic:g} exceeds {MAX_STEP_FRACTION:g} * "
                           f"min(Lx, Ly) = {limit:g}{note}")
    return n


def integrate_geodesic(
    metric: TorusMetric, p0: SMPoint, t_final: float, dt: float
) -> GeodesicPath:
    """Classical RK4 integration of the geodesic equations from p0.

    t_final may be negative (time-reversed flow).  dt is a magnitude, rounded
    so that whole steps land exactly on t_final; step_count checks the step
    taken (ValueError, StepTooLarge), and a non-finite p0 is a ValueError.

    The steps run in the metric's generated loop (_compile_geodesic_loop,
    compiled on first use and kept on the metric): one straight-line block
    of Python float operations per step, where numpy calls on scalars would
    cost more than the arithmetic.
    """
    nsteps = step_count(metric, t_final, dt)
    x, y, th = float(p0.x), float(p0.y), float(p0.theta)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
        raise ValueError("start point must be finite")
    xs, ys, ts = metric._geodesic_loop(x, y, th, t_final / nsteps, nsteps)
    times = np.linspace(0.0, t_final, nsteps + 1)
    return GeodesicPath(metric, times, np.array(xs), np.array(ys), np.array(ts))


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
