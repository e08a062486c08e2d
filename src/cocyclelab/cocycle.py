"""Parallel transport of the pair cocycle along geodesics, and the residual
suites that certify cohomological triviality.

The cocycle C(x, v, t) solves C' = -(A + Phi)C along the geodesic through
(x, v), C(0) = Id.  A pair is cohomologically trivial when
C(x, v, t) = u(phi_t(x, v)) u(x, v)^{-1} for a smooth u: SM -> SO(3), which
is equivalent to the first-order field equation X(u) + (A + Phi) u = 0.
Both certificates are implemented: the mode-calculus rows (mode_residuals)
and direct ODE transport compared against the trivializer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smfield as sm
from .errors import NonOrthogonalDrift, NotClosed, gate, json_int, worst
from .lie3 import vee
from .smfield import FourierField, Higgs, Pair
from .torus import SMPoint, integrate_geodesic, step_count, torus_distance

DRIFT_TOL = 1e-6


class TransportContext:
    """Off-grid evaluators of a pair across transports, both built by
    FourierField.interpolant: generator_at, of A + Phi (modes -1, 0, 1), at
    once, and trivializer_at on its first call; both are kept.  A + Phi of a
    loaded or generated pair is antisymmetric to the bit, so its spline holds
    the vee triples of modes 0 and 1 (9 channels); the orthogonal
    trivializer's holds all nine entries of each mode.  Each takes point
    arrays (x, y, theta) of one shape and returns that shape + (3, 3)."""

    def __init__(self, pair: Pair):
        self.pair = pair
        self.generator_at = pair.total_field().interpolant()
        self._trivializer_at = None

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


def _rk4_propagators(b_all: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step propagators P_k = I + D_k of C' = -B C, returned as the
    D_k: step k takes C to C + D_k C.

    b_all holds B at the 2n + 1 half-step points of n steps of size h, so
    step k reads B0 = b_all[2k], Bh = b_all[2k+1] and B1 = b_all[2k+2].  The
    four RK4 stages multiply out to the propagator P = I + D with

      D = -h/6 (B0 + 4 Bh + B1) + h^2/6 (Bh B0 + Bh Bh + B1 Bh)
          - h^3/12 (Bh Bh B0 + B1 Bh Bh) + h^4/24 B1 Bh Bh B0,

    built for all n steps at once by (n, 3, 3) products; shape (n, 3, 3).
    D is kept apart from I: rounding I + D would repeat the same error at
    every step of a constant generator instead of one relative to D.
    transport composes the D_k of each block between saved samples
    (_compose_blocks) the same way.
    """
    b0, bh, b1 = b_all[0:-1:2], b_all[1::2], b_all[2::2]
    hb0 = bh @ b0
    b1h = b1 @ bh
    t1 = b0 + 4.0 * bh + b1
    t2 = hb0 + bh @ bh + b1h
    t3 = bh @ hb0 + b1h @ bh
    t4 = b1h @ hb0
    return -(h / 6.0) * t1 + (h * h / 6.0) * t2 - (h**3 / 12.0) * t3 + (h**4 / 24.0) * t4


def _compose_blocks(d: np.ndarray, s: int) -> np.ndarray:
    """E_j with I + E_j = P_{js+s-1} ... P_{js+1} P_{js} for the step
    propagators P_k = I + D_k of d (shape (n, 3, 3)), in blocks of s steps;
    shape (ceil(n / s), 3, 3).  Each block is composed as
    E <- E + D_i + D_i E, s - 1 products over all blocks at once, keeping E
    apart from I as _rk4_propagators keeps D.  Only a last partial block is
    padded, with D = 0 (P = I), which leaves its E unchanged."""
    pad = -len(d) % s
    if pad:
        d = np.concatenate([d, np.zeros((pad, 3, 3))])
    d = d.reshape(-1, s, 3, 3)
    e = d[:, 0]
    for i in range(1, s):
        di = d[:, i]
        e = e + di + di @ e
    return e


def transport(
    pair: Pair,
    p0: SMPoint,
    t_final: float,
    dt: float,
    save_every: int = 10,
    context: TransportContext | None = None,
) -> CocycleResult:
    """RK4 transport of C' = -(A + Phi) C along the geodesic from p0.

    The cocycle takes n steps of t_final / n (step_count, its bound on the
    geodesic's half step) and the geodesic exactly 2n half steps, so the
    generator is available at RK4 midpoints and both land on t_final; both
    pieces are fourth order.  The equation is linear, so each step is a
    precomputed propagator (_rk4_propagators), and C is only read at the
    samples saved every save_every steps (and at t_final): the propagators of
    each block between two samples are composed in one batch
    (_compose_blocks), and C <- C + E_j C takes one 3x3 product per block.
    Orthogonality of C is checked at each sample as it is reached, and
    NonOrthogonalDrift is raised beyond DRIFT_TOL before any later block is
    applied.  save_every must be an integer >= 1 (json_int) and p0 finite
    (ValueError before any computation); step_count's StepTooLarge (bad input)
    names the geodesic half step and the cocycle step it comes from.
    """
    if json_int(save_every, "save_every") < 1:
        raise ValueError(f"save_every must be at least 1, got {save_every!r}")
    met = pair.metric
    nsteps = step_count(met, t_final, dt, cocycle=True)
    h = t_final / nsteps
    if not np.isfinite([p0.x, p0.y, p0.theta]).all():
        raise ValueError("start point must be finite")
    ctx = context if context is not None else TransportContext(pair)
    path = integrate_geodesic(met, p0, t_final, abs(t_final) / (2 * nsteps))
    s = min(int(save_every), nsteps)
    steps = _rk4_propagators(ctx.generator_at(path.xs, path.ys, path.thetas), h)
    blocks = _compose_blocks(steps, s)
    saved_steps = np.minimum(np.arange(len(blocks) + 1) * s, nsteps)
    times = saved_steps * h
    times[0] = 0.0  # not -0.0 when t_final < 0
    eye = np.eye(3)
    mats = np.empty((len(blocks) + 1, 3, 3))
    drift = np.zeros(len(blocks) + 1)
    mats[0] = c = eye
    for j, e in enumerate(blocks, 1):
        c = c + e @ c
        g = c.T @ c - eye
        d = float(np.sqrt((g * g).sum()))
        gate(d, DRIFT_TOL, NonOrthogonalDrift, "orthogonality defect", f" at t={times[j]:.4f}")
        mats[j] = c
        drift[j] = d
    idx = 2 * saved_steps
    return CocycleResult(
        times=times,
        matrices=mats,
        drift=drift,
        path_times=path.times,
        path_points=np.stack([path.xs[idx], path.ys[idx], path.thetas[idx]], axis=-1),
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
    gate(gap, 1e-8, NotClosed, "geodesic endpoint gap")
    d = res.final() - np.eye(3)
    return float(np.sqrt((d * d).sum()))


# -- field-equation certificates ---------------------------------------------------


def _transport_band(pair: Pair) -> tuple[FourierField, float]:
    """X(u) + (A + Phi) u for the pair's trivializer u, and ||u||.  Since
    X + A = mu_plus + mu_minus, which shift modes by +1 and -1, mode m of this
    band is the recurrence mu_plus(u_{m-1}) + mu_minus(u_{m+1}) + Phi u_m,
    with u_{-1} = conj(u_1)."""
    u = pair.trivializer
    if u is None:
        raise ValueError("no trivializer to test")
    return sm.x_op(u) + pair.total_field() @ u, max(u.l2_norm(), 1e-300)


def transport_residual_field(pair: Pair) -> float:
    """|| X(u) + (A + Phi) u ||_{L2} / || u ||_{L2} in mode calculus, for the
    pair's trivializer u."""
    band, unorm = _transport_band(pair)
    return band.l2_norm() / unorm


def recurrence_residuals(pair: Pair) -> dict[int, float]:
    """Per-mode norms of X(u) + (A + Phi) u relative to ||u||, m = 0..K + 1
    (mode -m has the norm of mode m): the residuals of the recurrence."""
    band, unorm = _transport_band(pair)
    return {m: n / unorm for m, n in band.mode_norms().items()}


def mode_residuals(pair: Pair) -> dict[str, float]:
    """verify's mode-calculus rows structure, transport, recurrence, h0-frame
    and h0-vertical.  transport and recurrence are the L2 norm and the largest
    mode norm, over ||u||, of one band (_transport_band)."""
    u = pair.trivializer
    structure = [pair.conn.antisymmetry_residual(), pair.higgs.antisymmetry_residual(),
                 u.orthogonality_residual()]
    band, unorm = _transport_band(pair)
    rows = {
        "structure": worst(structure),
        "transport": band.l2_norm() / unorm,
        "recurrence": worst(n / unorm for n in band.mode_norms().values()),
    }
    del band  # h0_residuals does not read it, and its temporaries would sit on top
    return rows | h0_residuals(u, pair.higgs)


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
    higgs = Higgs(met, sm._matmul3(sm._matmul3(np.swapaxes(r, 0, 1), pair.higgs.phi), r))
    triv = rt @ pair.trivializer if pair.trivializer is not None else None
    return Pair(conn, higgs, triv)


def _vee(w: FourierField) -> FourierField:
    """The vee triples (K + 1, 3, ny, nx) of w's modes, their antisymmetric
    part, copied triple-first for the FFTs and products downstream."""
    triples = vee(np.moveaxis(w.coef, (1, 2), (3, 4)))
    return FourierField.band(w.metric, np.ascontiguousarray(np.moveaxis(triples, 3, 1)))


def _frobenius(w: FourierField) -> float:
    """||hat w||, the norm of the so(3) field whose vee triples w holds:
    |hat a|_F = sqrt(2) |a|."""
    return math.sqrt(2.0) * w.l2_norm()


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

    f, Psi and every term lie in so(3) and are carried as bands of vee
    triples (_vee); each bracket is a cross product, [hat a, hat b] =
    hat(a x b), and each norm that of the hat (_frobenius), so the ratios
    and the ||u|| floor read as on 3x3 fields.  _vee drops the symmetric
    part of u^T V(u), V(u^T u) / 2, which the structure row bounds.
    """
    ut = u.transpose()
    f = _vee(ut @ sm.vertical(u))
    # X = eta_+ + eta_- and H = i (eta_+ - eta_-) from one eta_- pass
    # (sm.frame_ops); every band is dropped once its norm is taken, which
    # bounds the peak
    xf, hf = sm.frame_ops(f)
    vxf = sm.vertical(xf)
    hf_norm, vxf_norm = _frobenius(hf), _frobenius(vxf)
    lhs = hf + vxf
    del hf, vxf
    brk = sm.cross(xf, f)
    del xf
    lhs = lhs - brk
    den1 = hf_norm + vxf_norm + _frobenius(brk)
    del brk
    psi = lhs * (-1.0) if higgs is None else _vee(ut @ higgs.as_field() @ u)
    k1 = lhs + psi
    del lhs
    frame = _frobenius(k1)
    del k1
    # the scale floor keeps the ratio meaningful when the equations hold
    # degenerately: f and Psi can both sit at rounding level (e.g. a constant
    # trivializer with a certified-zero Higgs field), and the orthogonal u is
    # the natural O(1) unit against which such a Psi counts as zero
    psi_norm = _frobenius(psi)
    scale = _frobenius(f) + psi_norm + u.l2_norm()
    den1 = den1 + psi_norm + scale
    vpsi = sm.vertical(psi)
    brk2 = sm.cross(f, psi)
    k2 = vpsi + brk2
    den2 = _frobenius(vpsi) + _frobenius(brk2) + scale
    return {
        "h0-frame": frame / den1,
        "h0-vertical": _frobenius(k2) / den2,
    }
