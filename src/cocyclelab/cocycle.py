"""Parallel transport of the pair cocycle along geodesics, and the residual
suites that certify cohomological triviality.

The cocycle C(x, v, t) solves C' = -(A + Phi)C along the geodesic through
(x, v), C(0) = Id.  A pair is cohomologically trivial when
C(x, v, t) = u(phi_t(x, v)) u(x, v)^{-1} for a smooth u: SM -> SO(3), which
is equivalent to the first-order field equation X(u) + (A + Phi) u = 0.
Both certificates are implemented: the field residual (mode calculus) and
direct ODE transport compared against the trivializer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smfield as sm
from .errors import NonOrthogonalDrift, NotClosed, passes
from .interp import PeriodicCubic2D
from .smfield import FourierField, Higgs, Pair
from .torus import SMPoint, integrate_geodesic, step_count, torus_distance

DRIFT_TOL = 1e-6


class TransportContext:
    """Interpolators of a pair across transports; the trivializer's is built
    on the first trivializer_at call and kept."""

    def __init__(self, pair: Pair):
        self.pair = pair
        met = pair.metric
        channels = np.concatenate(
            [
                pair.conn.a.reshape(met.ny, met.nx, 9),
                pair.conn.b.reshape(met.ny, met.nx, 9),
                pair.higgs.phi.reshape(met.ny, met.nx, 9),
            ],
            axis=-1,
        )
        self._field_interp = PeriodicCubic2D(channels, met.lx, met.ly)
        self._trivializer_at = None

    def coefficients_at(self, xs, ys):
        """(a, b, phi) matrices at arbitrary base points; shapes (n, 3, 3)."""
        met = self.pair.metric
        vals = self._field_interp(np.asarray(xs) % met.lx, np.asarray(ys) % met.ly)
        n = vals.shape[0]
        return (
            vals[:, 0:9].reshape(n, 3, 3),
            vals[:, 9:18].reshape(n, 3, 3),
            vals[:, 18:27].reshape(n, 3, 3),
        )

    def generator_at(self, xs, ys, thetas):
        """B = A + Phi evaluated at unit tangent vectors; shape (n, 3, 3)."""
        a, b, phi = self.coefficients_at(xs, ys)
        ct = np.cos(thetas)[:, None, None]
        st = np.sin(thetas)[:, None, None]
        return a * ct + b * st + phi

    def trivializer_at(self, xs, ys, thetas):
        if self._trivializer_at is None:
            if self.pair.trivializer is None:
                raise ValueError("pair has no trivializer")
            self._trivializer_at = self.pair.trivializer.interpolant()
        return self._trivializer_at(xs, ys, thetas)


@dataclass
class CocycleResult:
    """Transport output sampled every save_every steps (always includes both ends)."""

    times: np.ndarray
    matrices: np.ndarray
    drift: np.ndarray
    path_times: np.ndarray
    path_points: np.ndarray  # (n, 3) unwrapped (x, y, theta) at saved times

    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def orthogonality_drift(self) -> float:
        return float(self.drift.max())


def _ortho_defect(c: np.ndarray) -> float:
    g = c.T @ c - np.eye(3)
    return float(np.sqrt((g * g).sum()))


def _rk4_propagators(b_all: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step propagators P_k = I + D_k of C' = -B C, returned as the
    D_k: step k is C <- C + D_k C.

    b_all holds B at the 2n + 1 half-step points of n steps of size h, so
    step k reads B0 = b_all[2k], Bh = b_all[2k+1] and B1 = b_all[2k+2].  The
    four RK4 stages multiply out to the propagator P = I + D with

      D = -h/6 (B0 + 4 Bh + B1) + h^2/6 (Bh B0 + Bh Bh + B1 Bh)
          - h^3/12 (Bh Bh B0 + B1 Bh Bh) + h^4/24 B1 Bh Bh B0,

    built for all n steps at once by (n, 3, 3) products; shape (n, 3, 3).
    D is kept apart from I: rounding I + D would repeat the same error at
    every step of a constant generator instead of one relative to D.
    """
    b0, bh, b1 = b_all[0:-1:2], b_all[1::2], b_all[2::2]
    hb0 = bh @ b0
    b1h = b1 @ bh
    t1 = b0 + 4.0 * bh + b1
    t2 = hb0 + bh @ bh + b1h
    t3 = bh @ hb0 + b1h @ bh
    t4 = b1h @ hb0
    return -(h / 6.0) * t1 + (h * h / 6.0) * t2 - (h**3 / 12.0) * t3 + (h**4 / 24.0) * t4


def transport(
    pair: Pair,
    p0: SMPoint,
    t_final: float,
    dt: float,
    save_every: int = 10,
    context: TransportContext | None = None,
) -> CocycleResult:
    """RK4 transport of C' = -(A + Phi) C along the geodesic from p0.

    The cocycle takes n = max(1, round(|t_final| / dt)) steps and the geodesic
    exactly 2n half steps, so the generator is available at RK4 midpoints and
    both land on t_final; both pieces are fourth order.  The equation is
    linear, so each step is one precomputed matrix product (_rk4_propagators).
    Orthogonality of C is monitored at every saved sample and
    NonOrthogonalDrift is raised beyond DRIFT_TOL.
    """
    met = pair.metric
    ctx = context if context is not None else TransportContext(pair)
    nsteps = step_count(t_final, dt)
    path = integrate_geodesic(met, p0, t_final, abs(t_final) / (2 * nsteps))
    h = t_final / nsteps
    steps = _rk4_propagators(ctx.generator_at(path.xs, path.ys, path.thetas), h)
    c = np.eye(3)
    saved_t = [0.0]
    saved_c = [c]
    saved_drift = [0.0]
    saved_idx = [0]
    for k in range(nsteps):
        c = c + steps[k] @ c
        step = k + 1
        if step % save_every == 0 or step == nsteps:
            d = _ortho_defect(c)
            if not passes(d, DRIFT_TOL):
                raise NonOrthogonalDrift(
                    f"orthogonality defect {d:.3e} exceeds {DRIFT_TOL:.1e} at t={step * h:.4f}"
                )
            saved_t.append(step * h)
            saved_c.append(c)
            saved_drift.append(d)
            saved_idx.append(2 * step)
    pts = np.stack(
        [path.xs[saved_idx], path.ys[saved_idx], path.thetas[saved_idx]], axis=-1
    )
    return CocycleResult(
        times=np.array(saved_t),
        matrices=np.array(saved_c),
        drift=np.array(saved_drift),
        path_times=path.times,
        path_points=pts,
    )


@dataclass
class TrivialityResult:
    times: np.ndarray
    residuals: np.ndarray
    max_residual: float
    cocycle: CocycleResult


def triviality_residual(
    pair: Pair,
    p0: SMPoint,
    t_final: float,
    dt: float,
    save_every: int = 20,
    context: TransportContext | None = None,
) -> TrivialityResult:
    """max_t || C(t) - u(phi_t p) u(p)^{-1} || along one geodesic.

    The trivializer is evaluated off-grid by bicubic interpolation of its
    modes m >= 0 (FourierField.interpolant); the ODE solution is the
    independent route.
    """
    ctx = context if context is not None else TransportContext(pair)
    res = transport(pair, p0, t_final, dt, save_every=save_every, context=ctx)
    xs, ys, ths = res.path_points.T
    uvals = ctx.trivializer_at(xs, ys, ths)
    u0_inv = uvals[0].T
    pred = uvals @ u0_inv
    diff = res.matrices - pred
    r = np.sqrt(np.einsum("kij,kij->k", diff, diff))
    return TrivialityResult(res.times, r, float(r.max()), res)


def holonomy_closed(
    pair: Pair,
    p0: SMPoint,
    t_final: float,
    dt: float,
    context: TransportContext | None = None,
) -> float:
    """|| C(T) - Id || along a closed geodesic; NotClosed if the endpoint
    does not return to p0 within 1e-8 (coordinate distance mod periods)."""
    res = transport(pair, p0, t_final, dt, context=context)
    met = pair.metric
    xe, ye, te = res.path_points[-1]
    gap = torus_distance(met, SMPoint(xe, ye, te), p0)
    if gap > 1e-8:
        raise NotClosed(f"geodesic endpoint misses start by {gap:.3e}")
    d = res.final() - np.eye(3)
    return float(np.sqrt((d * d).sum()))


# -- field-equation certificates ---------------------------------------------------


def transport_residual_field(pair: Pair) -> float:
    """|| X(u) + (A + Phi) u ||_{L2} / || u ||_{L2} in mode calculus, for the
    pair's trivializer u."""
    u = pair.trivializer
    if u is None:
        raise ValueError("no trivializer to test")
    res = sm.x_op(u) + pair.total_field() @ u
    return res.l2_norm() / max(u.l2_norm(), 1e-300)


def recurrence_residuals(pair: Pair) -> dict[int, float]:
    """Per-mode residuals mu_plus(u_{m-1}) + mu_minus(u_{m+1}) + Phi u_m of
    the pair's trivializer u, relative to ||u||.  mu_plus and mu_minus shift
    every mode by exactly +1 and -1, so mode m of mu_plus(u) + mu_minus(u) +
    Phi u is that sum."""
    u = pair.trivializer
    if u is None:
        raise ValueError("no trivializer to test")
    unorm = max(u.l2_norm(), 1e-300)
    res = sm.mu_plus(u, pair.conn) + sm.mu_minus(u, pair.conn) + pair.higgs.as_field() @ u
    return {m: n / unorm for m, n in res.mode_norms().items()}


def gauge_transform(pair: Pair, r: np.ndarray) -> Pair:
    """Act by a gauge transformation r: M -> SO(3) on (A, Phi) and the trivializer.

    A -> r^{-1} dr + r^{-1} A r (realized on SM), Phi -> r^{-1} Phi r,
    u -> r^{-1} u.
    """
    met = pair.metric
    r = np.asarray(r, dtype=float)
    rf = FourierField.from_grid(met, r)
    rt = rf.transpose()
    a_new = rt @ sm.x_op(rf) + rt @ pair.conn.as_field() @ rf
    conn = sm.Connection.from_field(a_new, tol=1e-8)
    rT = np.swapaxes(r, -1, -2)
    higgs = Higgs(met, rT @ pair.higgs.phi @ r)
    triv = rt @ pair.trivializer if pair.trivializer is not None else None
    return Pair(conn, higgs, triv)


def h0_residuals(u: FourierField, higgs: Higgs | None = None) -> dict[str, float]:
    """Residuals of the two compatibility equations satisfied by
    f = u^{-1} V(u) and Psi = u^{-1} Phi u for a trivializing u:

      h0-frame:     H(f) + V(X(f)) - [X(f), f] + Psi = 0
      h0-vertical:  V(Psi) + [f, Psi] = 0

    With higgs=None, Psi is *defined* by the first equation (so h0-frame is
    zero by construction) and h0-vertical measures whether the pair
    reconstructed from u alone is consistent; for certified trivializers
    pass the actual Higgs field.  Residuals are relative to the sum of the
    norms of the constituent terms.
    """
    ut = u.transpose()
    f = ut @ sm.vertical(u)
    # X = eta_+ + eta_- and H = i (eta_+ - eta_-), from one eta of each sign;
    # every band is dropped once its norm is taken, which bounds the peak
    ep, em = sm.eta_plus(f), sm.eta_minus(f)
    xf = ep + em
    hf = (ep - em) * 1j
    del ep, em
    vxf = sm.vertical(xf)
    brk = xf @ f - f @ xf
    del xf
    lhs = hf + vxf - brk
    den1 = hf.l2_norm() + vxf.l2_norm() + brk.l2_norm()
    del hf, vxf, brk
    psi = lhs * (-1.0) if higgs is None else ut @ higgs.as_field() @ u
    k1 = lhs + psi
    del lhs
    frame = k1.l2_norm()
    del k1
    # the scale floor keeps the ratio meaningful when the equations hold
    # degenerately: f and Psi can both sit at rounding level (e.g. a constant
    # trivializer with a certified-zero Higgs field), and the orthogonal u is
    # the natural O(1) unit against which such a Psi counts as zero
    scale = f.l2_norm() + psi.l2_norm() + u.l2_norm()
    den1 = den1 + psi.l2_norm() + scale
    vpsi = sm.vertical(psi)
    brk2 = f @ psi - psi @ f
    k2 = vpsi + brk2
    den2 = vpsi.l2_norm() + brk2.l2_norm() + scale
    return {
        "h0-frame": frame / den1,
        "h0-vertical": k2.l2_norm() / den2,
    }


def frame_transfer_residual(pair: Pair) -> float:
    """Residual of V(A) = -u X(f) u^{-1} - H(u) u^{-1} with f = u^{-1} V(u),
    an identity that holds when the pair's trivializer u trivializes it."""
    u = pair.trivializer
    if u is None:
        raise ValueError("no trivializer to test")
    ut = u.transpose()
    f = ut @ sm.vertical(u)
    va = sm.vertical(pair.conn.as_field())
    t2 = u @ sm.x_op(f) @ ut
    t3 = sm.h_op(u) @ ut
    res = va + t2 + t3
    den = va.l2_norm() + t2.l2_norm() + t3.l2_norm() + f.l2_norm() + 1e-300
    return res.l2_norm() / den
