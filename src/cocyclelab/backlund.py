"""Bäcklund transformations that build cohomologically trivial SO(3) pairs.

Starting from a certified pair (A, Phi) with trivializer u and a unit section
g = hat(n): M -> so(3), given by its axis field n: M -> S^2, whose complex
eigenbundle is holomorphic for the induced dbar-operator, the transform
produces a new certified pair

    Phi_g = a (g<g,Phi> + *d_A g) a^{-1},
    A_g   = -X(a) a^{-1} + a (A + Phi - g<g,Phi> - *d_A g) a^{-1},

with trivializer a u, where a(x, y, theta) = r(x, y) exp(theta g) solves the
vertical equation a g = V(a).  Every identity used along the way is checked
numerically and the residuals are recorded in a certificate.  One ungated
core (_transformed) computes a step; backlund_transform gates the input and
the output pair of every step on their field residual, and a chain hands
each certificate to the next step, so each pair's residual is computed
once.  The transform takes r = Id, so a = exp(theta g) commutes with g and
q = a g a^{-1} is g itself.  The module also implements chains of steps (a
repeat-q step transforms again with the previous step's section, its q;
after a Higgs-free input the two steps are the doubling that lifts to SU(2)),
a factory of holomorphic unit sections from elliptic functions, and degree
reduction of trivializers, which reads the new axis straight off the top
mode b_N of the trivializer as vee(Im b_N b_N^H), runs the same core and
gates only the pair it writes.  Every gate raises through errors.gate.  The
inverse transform (with section -g), the q-lemma rows, the round-trip
distance and the SU(2) lift parity of a trivializer's fiber loop are test
references in tests/oracles.py.  Grids are (3, 3, ny, nx), multiplied by
smfield's kernel; lie3's point helpers read a grid through one np.moveaxis
view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smfield as sm
from .cocycle import transport_residual_field
from .elliptic import weierstrass_p
from .errors import (
    GNotHolomorphic,
    InputNotCertified,
    NotUnit,
    OutputNotCertified,
    RankDeficient,
    ReductionFailed,
    check_keys,
    gate,
    json_number,
    worst,
)
from .lie3 import hat, inner, vee
from .smfield import Connection, FourierField, Higgs, Pair, grid_l2_norm
from .torus import TorusMetric, grid_coords

DEFAULT_CERT_TOL = 1e-6
DEFAULT_GMERO_TOL = 1e-6
UNIT_TOL = 1e-10

# the certificate residuals that backlund_transform gates on cert_tol and
# gmero_tol; the others are diagnostics of projection losses and have no
# tolerance
GATED_RESIDUALS = ("input-field", "holomorphy", "output-field")


class UnitSection:
    """A section g = hat(n): M -> so(3) of a (ny, nx, 3) axis field n,
    with grid g as a contiguous (3, 3, ny, nx) array.  NotUnit unless
    max | |n|^2 - 1 | <= UNIT_TOL / 2 (n is not normalized here).  meta holds
    how the section was built (its kind and, for the elliptic factory, its
    parameters); generate writes it with each step's residuals.
    """

    def __init__(self, metric: TorusMetric, axis: np.ndarray, meta: dict | None = None):
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (metric.ny, metric.nx, 3):
            raise ValueError(f"axis shape {axis.shape} does not match the metric grid "
                             f"({metric.ny}, {metric.nx}, 3)")
        gate(float(np.abs(np.einsum("yxk,yxk->yx", axis, axis) - 1.0).max()), UNIT_TOL / 2,
             NotUnit, "| |n|^2 - 1 | =")
        self.metric = metric
        self.axis = axis
        self.grid = np.ascontiguousarray(np.moveaxis(hat(axis), (-2, -1), (0, 1)))
        self.meta = dict(meta) if meta else {}

    @classmethod
    def constant(cls, metric: TorusMetric, axis) -> "UnitSection":
        v = np.asarray(axis, dtype=float)
        v = v / np.linalg.norm(v)
        return cls(metric, np.broadcast_to(v, (metric.ny, metric.nx, 3)),
                   meta={"kind": "constant", "axis": v.tolist()})

    def field(self) -> FourierField:
        return FourierField.from_grid(self.metric, self.grid)


def projector(g: UnitSection) -> np.ndarray:
    """pi = -g(g + i Id)/2, the Hermitian rank-one projector onto the
    i-eigenbundle E_i of g acting on C^3."""
    return -0.5 * (sm._matmul3(g.grid, g.grid) + 1j * g.grid)


def vertical_solution(g: UnitSection) -> FourierField:
    """a(x, y, theta) = exp(theta g), a solution of a g = V(a) (so is r a for
    any r: M -> SO(3)), as a degree-one field:
    exp(theta g) = (Id + g^2) - cos(theta) g^2 + sin(theta) g."""
    c1 = projector(g)
    c0 = np.eye(3)[:, :, None, None] - 2.0 * c1.real
    return FourierField(g.metric, {0: c0, 1: c1})


def vertical_residual(a: FourierField, g: UnitSection) -> float:
    """|| a g - V(a) || / || a ||; zero for any vertical solution."""
    res = a @ g.field() - sm.vertical(a)
    return res.l2_norm() / max(a.l2_norm(), 1e-300)


def holomorphy_residuals(g: UnitSection, conn: Connection, dg: FourierField,
                         star_dg: FourierField) -> dict[str, float]:
    """Four equivalent certificates that the eigenbundle E_i of g is
    holomorphic for the dbar-operator twisted by the connection, from the
    caller's dg = d_A g and its Hodge star:

      star-bracket   *d_A g + [d_A g, g] = 0      (1-form calculus)
      dbar-bracket   Q - i[Q, g] = 0 with Q = dbar_A g, mode -1 of d_A g
                     (the conjugate of its mode 1)
      subbundle      pi_perp dbar_A (pi e_j) = 0 column by column
      projector      (dbar_A pi) pi = 0

    Residuals are relative; they agree up to discretization, and all vanish
    exactly when the axis of g is constant and the connection commutes.
    """
    met = g.metric
    q = dg.mode(-1)
    res2_g = q - 1j * sm._commutator3(q, g.grid)
    den2 = grid_l2_norm(met, q) + grid_l2_norm(met, g.grid) + 1e-300
    res2 = grid_l2_norm(met, res2_g) / den2

    pi = projector(g)
    pi_perp = np.eye(3)[:, :, None, None] - pi
    # one eta_minus of the complex grid pi (mode 0) serves both routes:
    # column j of ds is the twisted dbar e^{-lam} dbar(pi e_j) + A_{-1} pi e_j
    # of the section pi e_j of C^3, and dbar_A pi = ds - pi A_{-1}
    am1 = None if conn.is_zero() else conn.mode(-1)
    ds = sm.eta_minus(met, pi[None], [0], am1)[0]
    dpi = ds if am1 is None else ds - sm._matmul3(pi, am1)
    num3 = np.sqrt((np.abs(sm._matmul3(pi_perp, ds)) ** 2).sum())
    dencols = np.sqrt((np.abs(ds) ** 2).sum(axis=(0, 2, 3))).sum()
    res3 = float(num3 / (1e-300 + dencols + np.sqrt((np.abs(pi) ** 2).sum())))

    den4 = grid_l2_norm(met, dpi) + grid_l2_norm(met, pi) + 1e-300
    res4 = grid_l2_norm(met, sm._matmul3(dpi, pi)) / den4

    return {"star-bracket": _star_bracket(g, dg, star_dg),
            "dbar-bracket": res2, "subbundle": res3, "projector": res4}


def _star_bracket(g: UnitSection, dg: FourierField, star_dg: FourierField) -> float:
    """|| *d_A g + [d_A g, g] || relative to || d_A g || + || g ||: the
    star-bracket holomorphy residual, from d_A g and its Hodge star."""
    gf = g.field()
    res = star_dg + sm.bracket(dg, gf)
    return res.l2_norm() / (dg.l2_norm() + grid_l2_norm(g.metric, g.grid) + 1e-300)


@dataclass
class BacklundCertificate:
    """Inputs, outputs and the full residual record of one transform step.
    The vertical solution a = exp(theta g) commutes with g, so
    q = a g a^{-1} is g: a repeat-q step transforms with g again, and the
    inverse transform with -g."""

    pair_in: Pair
    g: UnitSection
    vertical: FourierField
    pair_out: Pair
    residuals: dict[str, float]


def _off_modes(full: FourierField, keep: int, scale: float) -> float:
    """The norm of a field without its modes +-keep, over scale; a mode
    m > 0 counts for m and -m."""
    norms = full.mode_norms()
    off = np.sqrt(sum((2.0 if m else 1.0) * v * v for m, v in norms.items() if m != keep))
    return off / scale


def _real_skew(metric: TorusMetric, re: np.ndarray) -> tuple[np.ndarray, float]:
    """The antisymmetric part of a real grid, with the norm of the symmetric
    part it drops."""
    re_t = np.swapaxes(re, 0, 1)
    return 0.5 * (re - re_t), grid_l2_norm(metric, 0.5 * (re + re_t))


def _transformed(pair: Pair, g: UnitSection,
                 star_dg: FourierField) -> tuple[FourierField, Pair, dict[str, float]]:
    """The ungated part of a transform step with section g, from the Hodge
    star of d_A g: the vertical solution a, the output pair (A_g, Phi_g)
    projected onto its structural form with trivializer a u, and the
    residual rows of that solution and projection."""
    met = pair.metric
    a = vertical_solution(g)
    at = a.transpose()
    gphi = inner(np.moveaxis(g.grid, (0, 1), (2, 3)), np.moveaxis(pair.higgs.phi, (0, 1), (2, 3)))
    core = FourierField(met, {0: g.grid.astype(complex) * gphi}) + star_dg

    phi_full = a @ core @ at
    a_full = sm.x_op(a) @ at * (-1.0) + a @ (pair.total_field() - core) @ at

    # Every projection loss is relative to the joint norm of the transformed
    # connection and Higgs fields: Phi can vanish up to rounding (a repeat-q
    # step), and a ratio to its own norm would then read that rounding as O(1).
    tot = max(float(np.hypot(phi_full.l2_norm(), a_full.l2_norm())), 1e-300)
    phi_off = _off_modes(phi_full, 0, tot)
    phi_proj, phi_sym = _real_skew(met, phi_full.coef[0].real)

    conn_off = _off_modes(a_full, 1, tot)
    a_re, b_re = sm._connection_grids(a_full.mode(1))
    (a_proj, a_sym), (b_proj, b_sym) = _real_skew(met, a_re), _real_skew(met, b_re)
    # the bands behind the projections are dropped before a u is formed,
    # which sets the transient peak of a reduction
    del core, phi_full, a_full, a_re, b_re

    u_out = a @ pair.trivializer
    pair_out = Pair(Connection(met, a_proj, b_proj), Higgs(met, phi_proj), trivializer=u_out)
    rows = {
        "vertical": vertical_residual(a, g),
        "a-orthogonality": a.orthogonality_residual(),
        "u-out-orthogonality": u_out.orthogonality_residual(),
        "phi-off-modes": phi_off,
        "phi-sym": phi_sym / tot,
        "conn-off-modes": conn_off,
        "conn-sym": (a_sym + b_sym) / tot,
    }
    return a, pair_out, rows


def backlund_transform(
    pair: Pair | BacklundCertificate,
    g: UnitSection,
    cert_tol: float = DEFAULT_CERT_TOL,
    gmero_tol: float = DEFAULT_GMERO_TOL,
) -> BacklundCertificate:
    """One Bäcklund step on a certified pair.

    Gates: the input pair must carry a trivializer whose field residual
    || X(u) + (A + Phi) u || / || u || is below cert_tol (InputNotCertified),
    g must pass the holomorphy gate below gmero_tol (GNotHolomorphic), and
    the output pair's field residual must be below cert_tol too
    (OutputNotCertified).

    pair is the input pair, or the certificate of the step that produced it.
    That step's output-field is the field residual of the same pair, so it is
    the input residual here and the pair's band is not built again: along a
    chain of N steps, N + 1 bands are built.

    The transformed connection and Higgs field are computed in mode calculus,
    projected onto their structural form (modes +-1 for A, mode 0 for Phi,
    antisymmetric coefficients), and certified again through the field
    residual of the output trivializer a u.  All projection losses are
    recorded in the certificate residuals; they measure discretization, not
    modelling error.
    """
    if isinstance(pair, BacklundCertificate):
        pair, in_res = pair.pair_out, pair.residuals["output-field"]
    elif pair.trivializer is None:
        raise InputNotCertified("input pair carries no trivializer")
    else:
        in_res = transport_residual_field(pair)
    if g.metric is not pair.metric and g.metric != pair.metric:
        raise ValueError("section and pair live on different metrics")
    gate(in_res, cert_tol, InputNotCertified, "input field residual")
    # the star-bracket holomorphy residual is the admissibility gate of g
    dg = sm.d_A(g.grid, pair.conn)
    star_dg = sm.hodge_star(dg)
    gres = _star_bracket(g, dg, star_dg)
    gate(gres, gmero_tol, GNotHolomorphic, "holomorphy residual")
    a, pair_out, rows = _transformed(pair, g, star_dg)
    out_res = transport_residual_field(pair_out)
    gate(out_res, cert_tol, OutputNotCertified, "output field residual")
    residuals = {"input-field": in_res, "holomorphy": gres, **rows, "output-field": out_res}
    return BacklundCertificate(
        pair_in=pair, g=g, vertical=a, pair_out=pair_out, residuals=residuals
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
) -> UnitSection:
    """Unit sections with holomorphic eigenbundle for the zero connection,
    on any metric of the torus.

    Holomorphy of a unit section depends only on the conformal structure,
    and every metric here is conformally flat, so the section is the same
    function of (x, y) as on the flat torus of the same periods.  Composes
    the inverse stereographic projection with the doubly periodic
    meromorphic function zeta(z) = scale * wp(z - z0) + offset, where wp is
    the Weierstrass function of the lattice.  The resulting axis field is
    smooth across the pole of wp (it approaches the north pole).  z0 defaults
    to a half-cell offset from the grid so no sample hits the pole.  The
    section is not validated here; a transform gates it (GNotHolomorphic).
    """
    if z0 is None:
        z0 = (
            0.5 * metric.lx + 0.5 * metric.lx / metric.nx,
            0.5 * metric.ly + 0.5 * metric.ly / metric.ny,
        )
    xg, yg = grid_coords(metric.nx, metric.ny, metric.lx, metric.ly)
    z = (xg - z0[0]) + 1j * (yg - z0[1])
    # keep all samples away from the lattice of poles
    zred_x = (z.real + metric.lx / 2) % metric.lx - metric.lx / 2
    zred_y = (z.imag + metric.ly / 2) % metric.ly - metric.ly / 2
    dist = np.hypot(zred_x, zred_y)
    if dist.min() < 1e-9:
        raise ValueError("z0 collides with a grid point; shift it off-grid")
    n = _stereographic_axis(scale * weierstrass_p(z, metric.lx, metric.ly) + offset)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    meta = {
        "kind": "elliptic",
        "z0": [float(z0[0]), float(z0[1])],
        "scale": [float(np.real(scale)), float(np.imag(scale))],
        "offset": [float(np.real(offset)), float(np.imag(offset))],
    }
    return UnitSection(metric, n, meta=meta)


# -- degree reduction ----------------------------------------------------------------


@dataclass
class ReductionResult:
    """The section of one step down, the reduced pair (its trivializer is
    the reduced u) and the step's residuals."""

    g: UnitSection
    pair: Pair
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


def _top_mode_axis(b_top: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(axis, mask, axis-norm-dev) of a trivializer's top mode b_N = C + iD.

    Where b_N = (p + iq) w^T is rank one with isotropic range (p, q
    orthogonal of equal length), Im(b_N b_N^H) = D C^T - C D^T is
    |w|^2 hat(p x q): the axis is v = vee(D C^T - C D^T) normalised (zero on
    the mask), and 2 |v| / |b_N|_F^2 = 1.  The mask holds the points where
    |b_N|_F, the top singular value of a rank-one matrix, is below 1e-8 of
    its maximum; axis-norm-dev is max |2 |v| / |b_N|_F^2 - 1| off the mask.
    """
    c, d = b_top.real, b_top.imag
    # vee(D C^T - C D^T) = 2 vee(D C^T), read through the point view of lie3
    v = 2.0 * vee(np.moveaxis(sm._matmul3(d, np.swapaxes(c, 0, 1)), (0, 1), (2, 3)))
    b_sq = sm._square_sum(b_top[None])
    b_norm = np.sqrt(b_sq)
    mask = b_norm < 1e-8 * b_norm.max()
    v_norm = np.linalg.norm(v, axis=-1)
    axis_dev = float(np.abs(2.0 * v_norm[~mask] / np.maximum(b_sq[~mask], 1e-300) - 1.0).max())
    n = np.where(mask[..., None], 0.0, v / np.maximum(v_norm[..., None], 1e-300))
    return n, mask, axis_dev


def reduce_degree(pair: Pair) -> ReductionResult:
    """Lower the fiber degree of a certified trivializer by one Bäcklund step.

    The new section's axis is read off the trivializer's top mode
    (_top_mode_axis); its masked points are filled from neighbors, and
    RankDeficient is raised when they exceed 1% of the grid.  d_A g of the
    section and its Hodge star are built once: the four holomorphy residuals
    must pass below DEFAULT_GMERO_TOL (ReductionFailed otherwise), and the
    star feeds the transform's core too.  The input pair must then pass the
    field residual gate at DEFAULT_CERT_TOL (InputNotCertified).  The
    transform with this section annihilates the top modes of a u, which are
    dropped without gating the untruncated trivializer, and the reduced pair
    must pass the field residual gate at DEFAULT_CERT_TOL
    (OutputNotCertified): one step builds two transport bands.
    """
    b = pair.trivializer
    if b is None:
        raise InputNotCertified("input pair carries no trivializer")
    n_deg = b.degree
    if n_deg < 1:
        raise ValueError("trivializer already has fiber degree zero")
    met = pair.metric
    b_top = b.mode(n_deg)
    n_axis, mask, axis_dev = _top_mode_axis(b_top)
    frac = float(mask.mean())
    gate(frac, 0.01, RankDeficient, "top mode rank-deficient fraction")
    g_new = UnitSection(met, _fill_masked_axis(n_axis, mask),
                        meta={"kind": "reduction", "from-degree": n_deg})
    dg = sm.d_A(g_new.grid, pair.conn)
    star_dg = sm.hodge_star(dg)
    hres = holomorphy_residuals(g_new, pair.conn, dg, star_dg)
    gate(worst(hres.values()), DEFAULT_GMERO_TOL, ReductionFailed,
         "reduction axis holomorphy residual")
    in_res = transport_residual_field(pair)
    gate(in_res, DEFAULT_CERT_TOL, InputNotCertified, "input field residual")
    a_new, pair_out, rows = _transformed(pair, g_new, star_dg)
    # a_0 b_N = 0 makes a_1 b_{N-1} the whole of the new top mode N, so all
    # three rows are relative to ||b_N||: b_{N-1} can vanish to rounding (a
    # repeat-q chain), and a ratio to its own norm would read noise over noise
    bn_scale = max(grid_l2_norm(met, b_top), 1e-300)
    r_a1_bn = grid_l2_norm(met, sm._matmul3(a_new.mode(1), b_top)) / bn_scale
    r_a0_bn = grid_l2_norm(met, sm._matmul3(a_new.mode(0), b_top)) / bn_scale
    r_a1_bnm = grid_l2_norm(met, sm._matmul3(a_new.mode(1), b.mode(n_deg - 1))) / bn_scale

    u_full = pair_out.trivializer
    unorm = u_full.l2_norm()
    # modes N and N + 1 of a u, each counted for m and -m
    top1, top2 = (np.sqrt(2.0 * grid_l2_norm(met, u_full.mode(m)) ** 2)
                  for m in (n_deg, n_deg + 1))
    u_red = u_full.truncate(n_deg - 1)
    pair_red = Pair(pair_out.conn, pair_out.higgs, trivializer=u_red)
    red_res = transport_residual_field(pair_red)
    gate(red_res, DEFAULT_CERT_TOL, OutputNotCertified, "reduced field residual")
    residuals = {
        "input-field": in_res,
        **hres,
        **rows,
        "rank-deficient-fraction": frac,
        "axis-norm-dev": axis_dev,
        "constraint-a1-bN": float(r_a1_bn),
        "constraint-a0-bN": float(r_a0_bn),
        "constraint-a1-bNm1": float(r_a1_bnm),
        "top-mode-N": float(top1 / unorm),
        "top-mode-N1": float(top2 / unorm),
        "reduced-field": float(red_res),
    }
    return ReductionResult(g=g_new, pair=pair_red, residuals=residuals)


# -- chains --------------------------------------------------------------------------


# the keys a chain step of each kind may carry besides "kind", each a list of
# that many JSON numbers
STEP_KEYS = {"constant": {"axis": 3}, "elliptic": {"z0": 2, "scale": 2, "offset": 2},
             "repeat-q": {}}


def _step_numbers(step: dict, kind: str, where: str) -> dict[str, list[float]]:
    """The number lists of a chain step, each read through json_number with
    its exact length; ValueError naming the step and the key otherwise."""
    out = {}
    for key, count in STEP_KEYS[kind].items():
        if key in step:
            value = step[key]
            if not isinstance(value, (list, tuple)) or len(value) != count:
                raise ValueError(f"{where}: {key} must be a list of {count} JSON numbers, "
                                 f"got {value!r}")
            out[key] = [json_number(v, f"{where} {key}") for v in value]
    return out


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
      repeat-q  {}   (the previous step's section g again, which is its
                      q = a g a^{-1}; doubling step)

    Each step continues from the certificate of the step before it
    (backlund_transform), so N steps build N + 1 transport bands.  Raises
    ValueError on a chain that is not a list, a step that is not a dict, an
    unknown kind or key, a parameter that is not a list of that many finite
    JSON numbers (_step_numbers) or an axis of zero or overflowing length,
    before that step's section is built.
    """
    if not isinstance(steps, (list, tuple)):
        raise ValueError(f"chain must be a list of steps, got {steps!r}")
    certs: list[BacklundCertificate] = []
    for step in steps:
        if not isinstance(step, dict):
            raise ValueError(f"chain step {len(certs)} must be a JSON object")
        kind = step.get("kind")
        if kind not in STEP_KEYS:
            raise ValueError(f"unknown step kind: {kind!r}")
        where = f"chain step {len(certs)} ({kind})"
        check_keys(step, ("kind", *STEP_KEYS[kind]), where)
        nums = _step_numbers(step, kind, where)
        if kind == "constant":
            if "axis" not in nums:
                raise ValueError(f"{where}: axis is required")
            if not 0 < np.linalg.norm(nums["axis"]) < np.inf:
                raise ValueError(f"{where}: axis must have a nonzero finite length")
            g = UnitSection.constant(metric, nums["axis"])
        elif kind == "elliptic":
            scale = complex(*nums.get("scale", (1.0, 0.0)))
            offset = complex(*nums.get("offset", (0.0, 0.0)))
            z0 = tuple(nums["z0"]) if "z0" in nums else None
            g = holomorphic_g_factory(metric, z0=z0, scale=scale, offset=offset)
        else:  # repeat-q
            if not certs:
                raise ValueError("repeat-q needs a previous step")
            g = UnitSection(metric, certs[-1].g.axis, meta={"kind": "repeat-q"})
        prev = certs[-1] if certs else Pair.trivial(metric)
        certs.append(backlund_transform(prev, g, cert_tol=cert_tol, gmero_tol=gmero_tol))
    return ChainResult(certs=certs)
