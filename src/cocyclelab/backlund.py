"""Bäcklund transformations that build cohomologically trivial SO(3) pairs.

Starting from a certified pair (A, Phi) with trivializer u and a unit section
g: M -> so(3) whose complex eigenbundle is holomorphic for the induced
dbar-operator, the transform produces a new certified pair

    Phi_g = a (g<g,Phi> + *d_A g) a^{-1},
    A_g   = -X(a) a^{-1} + a (A + Phi - g<g,Phi> - *d_A g) a^{-1},

with trivializer a u, where a(x, y, theta) = r(x, y) exp(theta g) solves the
vertical equation a g = V(a).  Every identity used along the way is checked
numerically and the residuals are recorded in a certificate.  The module also
implements the inverse transform, the Higgs-free two-step transform that
lifts to SU(2), a factory of holomorphic unit sections from elliptic
functions, and degree reduction of trivializers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import smfield as sm
from .cocycle import transport_residual_field
from .elliptic import weierstrass_p
from .errors import (
    FactoryValidationFailed,
    GNotHolomorphic,
    InputNotCertified,
    PhiNotZero,
    RankDeficient,
    ReductionFailed,
    passes,
    worst,
)
from .lie3 import check_unit, hat, inner, polar_project, su2_path_lift, vee
from .smfield import Connection, FourierField, Higgs, Pair, grid_l2_norm
from .spectral import dbar
from .torus import TorusMetric

DEFAULT_CERT_TOL = 1e-6
DEFAULT_GMERO_TOL = 1e-6
FACTORY_TOL = 1e-5


class UnitSection:
    """A section g: M -> so(3) with |g| = 1 pointwise, sampled on the metric grid.

    Unit length (g^3 = -g) is enforced at construction.  meta holds how the
    section was built (its kind and, for the elliptic factory, its parameters);
    certificates copy it.
    """

    def __init__(self, metric: TorusMetric, grid: np.ndarray, meta: dict | None = None):
        grid = np.asarray(grid, dtype=float)
        if grid.shape != (metric.ny, metric.nx, 3, 3):
            raise ValueError(f"grid shape {grid.shape} does not match metric grid")
        check_unit(grid)
        self.metric = metric
        self.grid = grid
        self.meta = dict(meta) if meta else {}

    @classmethod
    def constant(cls, metric: TorusMetric, axis) -> "UnitSection":
        v = np.asarray(axis, dtype=float)
        v = v / np.linalg.norm(v)
        g = np.broadcast_to(hat(v), (metric.ny, metric.nx, 3, 3)).copy()
        return cls(metric, g, meta={"kind": "constant", "axis": v.tolist()})

    @classmethod
    def from_axis(cls, metric: TorusMetric, axis_grid: np.ndarray,
                  meta: dict | None = None) -> "UnitSection":
        """Build from a unit-vector field n(x, y); normalizes defensively."""
        n = np.asarray(axis_grid, dtype=float)
        n = n / np.linalg.norm(n, axis=-1, keepdims=True)
        return cls(metric, hat(n), meta=meta)

    def axis(self) -> np.ndarray:
        return vee(self.grid)

    def field(self) -> FourierField:
        return FourierField(self.metric, {0: self.grid.astype(complex)})


def projector(g: UnitSection) -> np.ndarray:
    """pi = -g(g + i Id)/2, the Hermitian rank-one projector onto the
    i-eigenbundle E_i of g acting on C^3."""
    return -0.5 * (sm.grid_matmul(g.grid, g.grid) + 1j * g.grid)


def vertical_solution(g: UnitSection, r: np.ndarray | None = None) -> FourierField:
    """a(x, y, theta) = r exp(theta g), the solution of a g = V(a), as a
    degree-one field: exp(theta g) = (Id + g^2) - cos(theta) g^2 + sin(theta) g."""
    c1 = projector(g)
    c0 = np.eye(3) - 2.0 * c1.real
    if r is not None:
        r = np.asarray(r, dtype=float)
        c0 = r @ c0
        c1 = r @ c1
    return FourierField(g.metric, {0: c0, 1: c1, -1: c1.conj()})


def vertical_residual(a: FourierField, g: UnitSection) -> float:
    """|| a g - V(a) || / || a ||; zero for any vertical solution."""
    res = a @ g.field() - sm.vertical(a)
    return res.l2_norm() / max(a.l2_norm(), 1e-300)


def holomorphy_residuals(g: UnitSection, conn: Connection) -> dict[str, float]:
    """Four equivalent certificates that the eigenbundle E_i of g is
    holomorphic for the dbar-operator twisted by the connection:

      star-bracket   *d_A g + [d_A g, g] = 0      (1-form calculus)
      dbar-bracket   Q - i[Q, g] = 0 with Q = dbar_A g   (mode -1 route)
      subbundle      pi_perp dbar_A (pi e_j) = 0 column by column
      projector      (dbar_A pi) pi = 0

    Residuals are relative; they agree up to discretization, and all vanish
    exactly when the axis of g is constant and the connection commutes.
    """
    met = g.metric
    dg = sm.d_A(g.grid, conn)
    res1 = _star_bracket(g, dg, sm.hodge_star(dg))

    q = sm.dbar_A(g.grid, conn)
    res2_g = q - 1j * (sm.grid_matmul(q, g.grid) - sm.grid_matmul(g.grid, q))
    den2 = grid_l2_norm(met, q) + grid_l2_norm(met, g.grid) + 1e-300
    res2 = grid_l2_norm(met, res2_g) / den2

    pi = projector(g)
    pi_perp = np.broadcast_to(np.eye(3), pi.shape) - pi
    # column j of ds is the covariant dbar of the section pi e_j of C^3
    ds = dbar(pi, met.lx, met.ly) + sm.grid_matmul(conn.as_field().mode(-1), pi)
    num3 = np.sqrt((np.abs(sm.grid_matmul(pi_perp, ds)) ** 2).sum())
    dencols = np.sqrt((np.abs(ds) ** 2).sum(axis=(0, 1, 2))).sum()
    res3 = float(num3 / (1e-300 + dencols + np.sqrt((np.abs(pi) ** 2).sum())))

    dpi = sm.dbar_A(pi, conn)
    den4 = grid_l2_norm(met, dpi) + grid_l2_norm(met, pi) + 1e-300
    res4 = grid_l2_norm(met, sm.grid_matmul(dpi, pi)) / den4

    return {
        "star-bracket": res1,
        "dbar-bracket": res2,
        "subbundle": res3,
        "projector": res4,
    }


def _star_bracket(g: UnitSection, dg: FourierField, star_dg: FourierField) -> float:
    """|| *d_A g + [d_A g, g] || relative to || d_A g || + || g ||: the
    star-bracket holomorphy residual, from d_A g and its Hodge star."""
    gf = g.field()
    res = star_dg + (dg @ gf - gf @ dg)
    return res.l2_norm() / (dg.l2_norm() + grid_l2_norm(g.metric, g.grid) + 1e-300)


@dataclass
class BacklundCertificate:
    """Inputs, outputs and the full residual record of one transform step.
    q = a g a^{-1} is theta-independent and unit; the axis section of the
    inverse transform is -q."""

    pair_in: Pair
    g: UnitSection
    vertical: FourierField
    pair_out: Pair
    residuals: dict[str, float]
    q: np.ndarray
    meta: dict = dc_field(default_factory=dict)


def _project_structure(full: FourierField, keep: tuple[int, ...],
                       scale: float) -> tuple[dict, float]:
    """Split a field into its kept modes and the norm of the others / scale."""
    norms = full.mode_norms()
    off = np.sqrt(sum(v * v for m, v in norms.items() if m not in keep))
    return {m: full.mode(m) for m in keep}, off / scale


def _real_skew(metric: TorusMetric, c: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The real antisymmetric part of a complex coefficient grid, with the
    norms of what it drops: the imaginary part and the real symmetric part."""
    re = c.real
    re_t = np.swapaxes(re, -1, -2)
    return (0.5 * (re - re_t), grid_l2_norm(metric, c.imag),
            grid_l2_norm(metric, 0.5 * (re + re_t)))


def backlund_transform(
    pair: Pair,
    g: UnitSection,
    vertical: FourierField | None = None,
    cert_tol: float = DEFAULT_CERT_TOL,
    gmero_tol: float = DEFAULT_GMERO_TOL,
) -> BacklundCertificate:
    """One Bäcklund step on a certified pair.

    Gates: the input pair must carry a trivializer whose field residual
    || X(u) + (A + Phi) u || / || u || is below cert_tol (InputNotCertified),
    and g must pass the holomorphy gate below gmero_tol (GNotHolomorphic).

    The transformed connection and Higgs field are computed in mode calculus,
    projected onto their structural form (modes +-1 for A, mode 0 for Phi,
    real antisymmetric coefficients), and certified again through the field
    residual of the output trivializer a u.  All projection losses are
    recorded in the certificate residuals; they measure discretization, not
    modelling error.
    """
    met = pair.metric
    if g.metric is not met and g.metric != met:
        raise ValueError("section and pair live on different metrics")
    u_in = pair.trivializer
    if u_in is None:
        raise InputNotCertified("input pair carries no trivializer")
    in_res = transport_residual_field(pair)
    if not passes(in_res, cert_tol):
        raise InputNotCertified(
            f"input field residual {in_res:.3e} exceeds {cert_tol:.1e}"
        )
    # the star-bracket holomorphy residual is the admissibility gate of g
    dg = sm.d_A(g.grid, pair.conn)
    star_dg = sm.hodge_star(dg)
    gres = _star_bracket(g, dg, star_dg)
    if not passes(gres, gmero_tol):
        raise GNotHolomorphic(
            f"holomorphy residual {gres:.3e} exceeds {gmero_tol:.1e}"
        )
    a = vertical if vertical is not None else vertical_solution(g)
    vres = vertical_residual(a, g)
    at = a.transpose()

    gphi = inner(g.grid, pair.higgs.phi)
    core = FourierField(met, {0: g.grid.astype(complex) * gphi[..., None, None]}) + star_dg

    phi_full = a @ core @ at
    a_full = sm.x_op(a) @ at * (-1.0) + a @ (pair.total_field() - core) @ at

    # Every projection loss is relative to the joint norm of the transformed
    # connection and Higgs fields: Phi can vanish up to rounding (a repeat-q
    # step), and a ratio to its own norm would then read that rounding as O(1).
    tot = max(float(np.hypot(phi_full.l2_norm(), a_full.l2_norm())), 1e-300)
    phi_keep, phi_off = _project_structure(phi_full, (0,), tot)
    phi_proj, phi_imag, phi_sym = _real_skew(met, phi_keep[0])

    a_keep, conn_off = _project_structure(a_full, (1, -1), tot)
    c1, cm1 = a_keep[1], a_keep[-1]
    a_proj, a_imag, a_sym = _real_skew(met, c1 + cm1)
    b_proj, b_imag, b_sym = _real_skew(met, 1j * (c1 - cm1))

    u_out = a @ u_in
    pair_out = Pair(Connection(met, a_proj, b_proj), Higgs(met, phi_proj), trivializer=u_out)
    out_res = transport_residual_field(pair_out)

    qf = a @ g.field() @ at
    q_tot = max(np.sqrt(sum(v * v for v in qf.mode_norms().values())), 1e-300)
    q_keep, q_off = _project_structure(qf, (0,), q_tot)
    q, q_imag, q_sym = _real_skew(met, q_keep[0])

    residuals = {
        "input-field": in_res,
        "holomorphy": gres,
        "vertical": vres,
        "a-orthogonality": a.orthogonality_residual(),
        "u-out-orthogonality": u_out.orthogonality_residual(),
        "phi-off-modes": phi_off,
        "phi-imag": phi_imag / tot,
        "phi-sym": phi_sym / tot,
        "conn-off-modes": conn_off,
        "conn-imag": (a_imag + b_imag) / tot,
        "conn-sym": (a_sym + b_sym) / tot,
        "output-field": out_res,
        "q-off-modes": q_off,
        "q-imag": q_imag / q_tot,
        "q-sym": q_sym / q_tot,
    }
    return BacklundCertificate(
        pair_in=pair, g=g, vertical=a, pair_out=pair_out, residuals=residuals, q=q,
        meta=dict(g.meta),
    )


def q_lemma_residuals(cert: BacklundCertificate) -> dict[str, float]:
    """Certificates for q = a g a^{-1} on the output pair:

      vertical      V(q) = 0 (off-mode content of a g a^{-1})
      covariant     d_{A_g} q = [a Phi a^{-1}, q]
      star-bracket  d_{A_g} q + [*d_{A_g} q, q] = 0

    The last one makes -q an admissible axis section for the inverse step.
    """
    q = cert.q
    met = cert.pair_in.metric
    qf = FourierField(met, {0: q.astype(complex)})
    conn_out = cert.pair_out.conn
    dq = sm.d_A(q, conn_out)
    rhs = cert.vertical @ cert.pair_in.higgs.as_field() @ cert.vertical.transpose()
    rhs_brk = rhs @ qf - qf @ rhs
    den = dq.l2_norm() + rhs_brk.l2_norm() + grid_l2_norm(met, q) + 1e-300
    covariant = (dq - rhs_brk).l2_norm() / den
    star_dq = sm.hodge_star(dq)
    res3 = dq + (star_dq @ qf - qf @ star_dq)
    star = res3.l2_norm() / den
    return {
        "vertical": cert.residuals["q-off-modes"],
        "covariant": covariant,
        "star-bracket": star,
    }


def inverse_backlund(
    cert: BacklundCertificate, gmero_tol: float = DEFAULT_GMERO_TOL
) -> BacklundCertificate:
    """Undo a transform step: run the forward transform on the output pair
    with axis section -q and vertical solution a^{-1} = a^T."""
    q = cert.q
    g_inv = UnitSection(cert.pair_in.metric, -q, meta={"kind": "inverse"})
    a_inv = cert.vertical.transpose()
    return backlund_transform(cert.pair_out, g_inv, vertical=a_inv, gmero_tol=gmero_tol)


def round_trip_residuals(cert_fwd: BacklundCertificate,
                         cert_back: BacklundCertificate) -> dict[str, float]:
    """Relative distance between the original pair and the inverse-transform
    output: connection, Higgs field and trivializer."""
    a0, b0 = cert_fwd.pair_in.conn.a, cert_fwd.pair_in.conn.b
    a1, b1 = cert_back.pair_out.conn.a, cert_back.pair_out.conn.b
    met = cert_fwd.pair_in.metric
    conn_scale = cert_fwd.pair_in.conn.norm() + 1.0
    dconn = np.sqrt(
        grid_l2_norm(met, a1 - a0) ** 2 + grid_l2_norm(met, b1 - b0) ** 2
    ) / conn_scale
    dphi = grid_l2_norm(met, cert_back.pair_out.higgs.phi - cert_fwd.pair_in.higgs.phi) \
        / (cert_fwd.pair_in.higgs.norm() + 1.0)
    du = (cert_back.pair_out.trivializer - cert_fwd.pair_in.trivializer).l2_norm() \
        / cert_fwd.pair_in.trivializer.l2_norm()
    return {"conn": float(dconn), "higgs": float(dphi), "trivializer": float(du)}


def fiber_loop_parity(u: FourierField) -> int:
    """Lift parity of the loop theta -> u(0, 0, theta) in SO(3).

    Returns +1 when the loop lifts to a closed path in SU(2) (homotopically
    trivial) and -1 otherwise.  The loop is sampled at 513 angles over the
    grid point at the origin, so closure at theta = 2 pi is exact.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 513)
    mats = np.zeros((513, 3, 3), dtype=complex)
    for m in range(-u.degree, u.degree + 1):
        mats += u.mode(m)[0, 0] * np.exp(1j * m * thetas)[:, None, None]
    return su2_path_lift(polar_project(mats.real))


@dataclass
class TwoStepResult:
    cert_first: BacklundCertificate
    cert_second: BacklundCertificate
    c_vertical_residual: float
    phi_intermediate: float
    phi_final: float
    parity_in: int
    parity_mid: int
    parity_out: int


def two_step_su2(pair: Pair, g: UnitSection) -> TwoStepResult:
    """Higgs-free doubling: transform with g, then with q = a g a^{-1}.

    Requires Phi = 0 on input, to 1e-10 relative to the connection
    (PhiNotZero otherwise).  The intermediate pair
    carries the Higgs field a (*d_A g) a^{-1}; the final one is again
    Higgs-free.  The combined vertical solution c = a_q a satisfies
    c^{-1} V(c) = 2g, and the two-step trivializer lifts to SU(2): the fiber
    loop parity returns to +1, while the one-step trivializer has parity -1.
    """
    phi_rel = pair.higgs.norm() / (pair.conn.norm() + 1.0)
    if not passes(phi_rel, 1e-10):
        raise PhiNotZero(f"input Higgs field has relative size {phi_rel:.3e}")
    parity_in = fiber_loop_parity(pair.trivializer)
    cert1 = backlund_transform(pair, g)
    q = cert1.q
    q_sec = UnitSection(pair.metric, q, meta={"kind": "q", "from": g.meta.get("kind")})
    cert2 = backlund_transform(cert1.pair_out, q_sec)
    c = cert2.vertical @ cert1.vertical
    lhs = c.transpose() @ sm.vertical(c)
    two_g = FourierField(pair.metric, {0: 2.0 * g.grid.astype(complex)})
    c_res = (lhs - two_g).l2_norm() / two_g.l2_norm()
    phi_mid = cert1.pair_out.higgs.norm() / (cert1.pair_out.conn.norm() + 1.0)
    phi_out = cert2.pair_out.higgs.norm() / (cert2.pair_out.conn.norm() + 1.0)
    return TwoStepResult(
        cert_first=cert1,
        cert_second=cert2,
        c_vertical_residual=float(c_res),
        phi_intermediate=float(phi_mid),
        phi_final=float(phi_out),
        parity_in=parity_in,
        parity_mid=fiber_loop_parity(cert1.pair_out.trivializer),
        parity_out=fiber_loop_parity(cert2.pair_out.trivializer),
    )


# -- holomorphic section factory ----------------------------------------------------


def _stereographic_axis(zeta: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection C -> S^2,
    zeta -> (2 Re, 2 Im, |zeta|^2 - 1) / (|zeta|^2 + 1)."""
    r2 = zeta.real**2 + zeta.imag**2
    den = 1.0 + r2
    return np.stack([2.0 * zeta.real / den, 2.0 * zeta.imag / den, (r2 - 1.0) / den],
                    axis=-1)


def holomorphic_g_factory(
    metric: TorusMetric,
    z0: tuple[float, float] | None = None,
    scale: complex = 1.0,
    offset: complex = 0.0,
    conjugate: bool = False,
    validate: bool = True,
) -> UnitSection:
    """Unit sections with holomorphic eigenbundle on a flat torus, A = 0.

    Composes the inverse stereographic projection with the doubly periodic
    meromorphic function zeta(z) = scale * wp(z - z0) + offset, where wp is
    the Weierstrass function of the lattice.  The resulting axis field is
    smooth across the pole of wp (it approaches the north pole).  z0 defaults
    to a half-cell offset from the grid so no sample hits the pole.

    conjugate=True uses the antiholomorphic zeta instead; such sections fail
    the holomorphy gate and serve as negative controls.  With validate=True
    the section must pass all four holomorphy residuals below FACTORY_TOL,
    otherwise FactoryValidationFailed is raised.
    """
    if not metric.is_flat:
        raise ValueError("the elliptic factory requires a flat metric")
    if z0 is None:
        z0 = (
            0.5 * metric.lx + 0.5 * metric.lx / metric.nx,
            0.5 * metric.ly + 0.5 * metric.ly / metric.ny,
        )
    from .torus import grid_coords

    xg, yg = grid_coords(metric.nx, metric.ny, metric.lx, metric.ly)
    z = (xg - z0[0]) + 1j * (yg - z0[1])
    # keep all samples away from the lattice of poles
    zred_x = (z.real + metric.lx / 2) % metric.lx - metric.lx / 2
    zred_y = (z.imag + metric.ly / 2) % metric.ly - metric.ly / 2
    dist = np.hypot(zred_x, zred_y)
    if dist.min() < 1e-9:
        raise ValueError("z0 collides with a grid point; shift it off-grid")
    zeta = scale * weierstrass_p(z, metric.lx, metric.ly) + offset
    if conjugate:
        zeta = zeta.conj()
    n = _stereographic_axis(zeta)
    meta = {
        "kind": "elliptic",
        "z0": [float(z0[0]), float(z0[1])],
        "scale": [float(np.real(scale)), float(np.imag(scale))],
        "offset": [float(np.real(offset)), float(np.imag(offset))],
        "conjugate": bool(conjugate),
    }
    sec = UnitSection.from_axis(metric, n, meta=meta)
    if validate:
        top = worst(holomorphy_residuals(sec, Connection.zero(metric)).values())
        if not passes(top, FACTORY_TOL):
            raise FactoryValidationFailed(
                f"holomorphy residuals up to {top:.3e} exceed {FACTORY_TOL:.1e}"
            )
    return sec


def section_family(metric: TorusMetric, count: int, seed: int) -> list[UnitSection]:
    """Random elliptic sections for sweep studies: log-normal scale with a
    random phase, normal complex offset, uniform off-grid pole location.  They
    are not validated; the sweep measures them."""
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
            holomorphic_g_factory(
                metric, z0=(x0, y0), scale=scale, offset=offset, validate=False
            )
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
    return UnitSection.from_axis(metric, n, meta={"kind": "random", "seed": seed})


# -- degree reduction ----------------------------------------------------------------


@dataclass
class ReductionResult:
    g: UnitSection
    vertical: FourierField
    u: FourierField
    pair: Pair
    cert: BacklundCertificate
    residuals: dict[str, float]


def _fill_masked_axis(n: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill masked grid points by averaging periodic neighbors, then renormalize."""
    n = n.copy()
    todo = mask.copy()
    for _ in range(32):
        if not todo.any():
            break
        acc = np.zeros_like(n)
        cnt = np.zeros(todo.shape)
        for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
            nb = np.roll(n, sh, axis=ax)
            ok = ~np.roll(todo, sh, axis=ax)
            acc += np.where(ok[..., None], nb, 0.0)
            cnt += ok
        ready = todo & (cnt > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            avg = acc / np.maximum(cnt, 1)[..., None]
        norm = np.linalg.norm(avg, axis=-1, keepdims=True)
        good = ready & (norm[..., 0] > 1e-12)
        n = np.where(good[..., None], avg / np.maximum(norm, 1e-300), n)
        todo = todo & ~good
    if todo.any():
        raise ReductionFailed("could not fill rank-deficient grid points")
    return n


def reduce_degree(pair: Pair) -> ReductionResult:
    """Lower the fiber degree of a certified trivializer by one Bäcklund step.

    The top mode b_N of the trivializer is rank one with isotropic range;
    writing b_N = C + iD, the new axis section is n = unit(Cy) x unit(Dy) for
    any column choice y with Cy != 0 (the result is independent of y and of
    the sign of the frame; the argmax-norm column is used).  Grid points where
    b_N nearly vanishes (top singular value below 1e-8 relative) are filled
    from neighbors; RankDeficient is raised when they exceed 1% of the grid.
    The section must pass all four holomorphy residuals below
    DEFAULT_GMERO_TOL (ReductionFailed otherwise).  The transform with this section annihilates
    the top modes of a u, which are dropped, and the output is re-certified.
    """
    b = pair.trivializer
    if b is None:
        raise InputNotCertified("input pair carries no trivializer")
    n_deg = b.degree
    if n_deg < 1:
        raise ValueError("trivializer already has fiber degree zero")
    met = pair.metric
    b_top = b.mode(n_deg)
    svals = np.linalg.svd(b_top, compute_uv=False)
    s1 = svals[..., 0]
    mask = s1 < 1e-8 * s1.max()
    frac = float(mask.mean())
    if frac > 0.01:
        raise RankDeficient(
            f"top mode rank-deficient on {100 * frac:.2f}% of the grid"
        )
    c_re, d_im = b_top.real, b_top.imag
    col_norms = np.linalg.norm(c_re, axis=-2)
    jstar = np.argmax(col_norms, axis=-1)
    idx = jstar[..., None, None]
    cy = np.take_along_axis(c_re, np.broadcast_to(idx, c_re.shape[:-1] + (1,)), -1)[..., 0]
    dy = np.take_along_axis(d_im, np.broadcast_to(idx, d_im.shape[:-1] + (1,)), -1)[..., 0]
    safe = np.maximum(np.linalg.norm(cy, axis=-1, keepdims=True), 1e-300)
    p = cy / safe
    qv = dy / np.maximum(np.linalg.norm(dy, axis=-1, keepdims=True), 1e-300)
    n_axis = np.cross(p, qv)
    norms = np.linalg.norm(n_axis, axis=-1)
    axis_dev = float(np.abs(norms[~mask] - 1.0).max()) if (~mask).any() else 0.0
    n_axis = _fill_masked_axis(
        np.where(mask[..., None], 0.0, n_axis / np.maximum(norms[..., None], 1e-300)),
        mask,
    )
    g_new = UnitSection(met, hat(n_axis), meta={"kind": "reduction", "from-degree": n_deg})
    hres = holomorphy_residuals(g_new, pair.conn)
    top = worst(hres.values())
    if not passes(top, DEFAULT_GMERO_TOL):
        raise ReductionFailed(
            f"reduction axis fails the holomorphy gate at {top:.3e}"
        )
    a_new = vertical_solution(g_new)
    bn_scale = max(grid_l2_norm(met, b_top), 1e-300)
    r_a1_bn = grid_l2_norm(met, a_new.mode(1) @ b_top) / bn_scale
    r_a0_bn = grid_l2_norm(met, a_new.mode(0) @ b_top) / bn_scale
    b_next = b.mode(n_deg - 1)
    bnm_scale = max(grid_l2_norm(met, b_next), 1e-300)
    r_a1_bnm = grid_l2_norm(met, a_new.mode(1) @ b_next) / bnm_scale

    cert = backlund_transform(pair, g_new, vertical=a_new)
    u_full = cert.pair_out.trivializer
    unorm = u_full.l2_norm()
    top1 = np.sqrt(sum(grid_l2_norm(met, u_full.mode(m)) ** 2 for m in (n_deg, -n_deg)))
    top2 = np.sqrt(
        sum(grid_l2_norm(met, u_full.mode(m)) ** 2 for m in (n_deg + 1, -n_deg - 1))
    )
    u_red = u_full.truncate(n_deg - 1)
    pair_red = Pair(cert.pair_out.conn, cert.pair_out.higgs, trivializer=u_red)
    red_res = transport_residual_field(pair_red)
    residuals = dict(cert.residuals)
    residuals.update(hres)
    residuals.update(
        {
            "rank-deficient-fraction": frac,
            "axis-norm-dev": axis_dev,
            "constraint-a1-bN": float(r_a1_bn),
            "constraint-a0-bN": float(r_a0_bn),
            "constraint-a1-bNm1": float(r_a1_bnm),
            "top-mode-N": float(top1 / unorm),
            "top-mode-N1": float(top2 / unorm),
            "reduced-field": float(red_res),
        }
    )
    return ReductionResult(
        g=g_new, vertical=a_new, u=u_red, pair=pair_red, cert=cert, residuals=residuals
    )


# -- chains --------------------------------------------------------------------------


@dataclass
class ChainResult:
    certs: list[BacklundCertificate]

    @property
    def final(self) -> Pair:
        return self.certs[-1].pair_out


def generate_chain(
    metric: TorusMetric,
    steps: list[dict],
    cert_tol: float = DEFAULT_CERT_TOL,
    gmero_tol: float = DEFAULT_GMERO_TOL,
) -> ChainResult:
    """Run a sequence of transform steps starting from the trivial pair.

    Each step is a dict with "kind":
      constant  {"axis": [x, y, z]}
      elliptic  {"z0": [x, y], "scale": [re, im], "offset": [re, im]}
      repeat-q  {}   (use q from the previous step; doubling step)

    Raises ValueError on a non-finite parameter or an axis of zero or
    overflowing length, before any section is built.
    """
    pair = Pair.trivial(metric)
    certs: list[BacklundCertificate] = []
    for step in steps:
        kind = step.get("kind")
        for key in ("axis", "z0", "scale", "offset"):
            if key in step and not np.isfinite(np.asarray(step[key], dtype=float)).all():
                raise ValueError(f"{kind} step: {key} must be finite")
        if kind == "constant":
            if not 0 < np.linalg.norm(np.asarray(step["axis"], dtype=float)) < np.inf:
                raise ValueError("constant step: axis must have a nonzero finite length")
            g = UnitSection.constant(metric, step["axis"])
        elif kind == "elliptic":
            scale = complex(*step.get("scale", (1.0, 0.0)))
            offset = complex(*step.get("offset", (0.0, 0.0)))
            z0 = tuple(step["z0"]) if "z0" in step else None
            g = holomorphic_g_factory(
                metric, z0=z0, scale=scale, offset=offset, validate=False
            )
        elif kind == "repeat-q":
            if not certs:
                raise ValueError("repeat-q needs a previous step")
            g = UnitSection(metric, certs[-1].q, meta={"kind": "repeat-q"})
        else:
            raise ValueError(f"unknown step kind: {kind!r}")
        cert = backlund_transform(pair, g, cert_tol=cert_tol, gmero_tol=gmero_tol)
        certs.append(cert)
        pair = cert.pair_out
    return ChainResult(certs=certs)
