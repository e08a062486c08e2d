"""Transform steps, certificates, the elliptic section factory, inversion,
doubling and degree reduction."""

import tracemalloc

import numpy as np
import pytest

from cocyclelab import backlund as bk
from cocyclelab import cocycle as cc
from cocyclelab.cocycle import gauge_transform, transport_residual_field, triviality_residual
from cocyclelab.errors import (
    GNotHolomorphic,
    InputNotCertified,
    NotUnit,
    OutputNotCertified,
    RankDeficient,
    ReductionFailed,
)
from cocyclelab.lie3 import hat, vee
from cocyclelab.smfield import (
    Connection,
    FourierField,
    Higgs,
    Pair,
    d_A,
    grid_l2_norm,
    hodge_star,
    star_curvature,
    vertical,
)
from cocyclelab.torus import Harmonic, SMPoint, TorusMetric, grid_coords
from oracles import (
    dbar_A,
    dbar_routes_reference,
    fiber_loop_parity,
    full_band,
    inverse_backlund,
    plane_matmul3,
    points,
    q_lemma_residuals,
    random_unit_section,
    round_trip_residuals,
    sample,
    section_family,
    svd_column_axis,
    so3_exp,
    transformed_3x3,
    triple_grid,
)

AXIS = np.array([0.6, -0.48, 0.64]) / np.linalg.norm([0.6, -0.48, 0.64])
# the benchmark's curved conformal factor and elliptic step (perfbench/run.py)
BENCH_CURVED = [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
ELLIPTIC = {"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]}


def curved_metric(n=64):
    return TorusMetric.from_harmonics(n, n, 1.0, 1.0, [Harmonic(0.1, 1, 0)])


def holomorphy(sec, conn):
    """The four holomorphy residuals of sec, from its own d_A."""
    dg = d_A(sec.axis, conn)
    return bk.holomorphy_residuals(sec, conn, dg, hodge_star(dg))


def test_unit_section_gates():
    """A section is its axis field and one gate on | |n|^2 - 1 |: a random
    unit field gives g^3 = -g to rounding, the zero, NaN and 1.3x and 1.5x
    axes raise NotUnit and a wrong shape ValueError.  The gate is no looser
    than the two grid checks it replaced: every scale it admits also keeps
    ||g^3 + g|| <= UNIT_TOL and | |g|^2 - 1 | <= 100 UNIT_TOL."""
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, [3.0, 0.0, 4.0])
    assert np.abs(vee(points(sec.grid)) - np.array([0.6, 0.0, 0.8])).max() < 1e-15
    assert sec.grid.shape == (3, 3, 32, 32) and sec.grid.flags.c_contiguous
    rand = random_unit_section(met, seed=4)
    g = rand.grid
    assert np.abs(plane_matmul3(plane_matmul3(g, g), g) + g).max() < 1e-14
    assert np.array_equal(g, hat(rand.axis, axis=-3))
    assert rand.axis.shape == (3, 32, 32) and rand.axis.flags.c_contiguous
    for axis in (np.zeros((3, 32, 32)), np.full((3, 32, 32), np.nan), 1.3 * sec.axis,
                 1.5 * rand.axis):
        with pytest.raises(NotUnit, match=r"^\| \|n\|\^2 - 1 \| ="):
            bk.UnitSection(met, axis)
    for axis in (np.zeros((3, 16, 16)), sec.grid, sec.axis[:2], np.moveaxis(sec.axis, 0, -1)):
        with pytest.raises(ValueError, match="axis shape"):
            bk.UnitSection(met, axis)
    admitted = 0
    for scale in 1.0 + np.linspace(-8e-11, 8e-11, 33):
        try:
            g = bk.UnitSection(met, scale * rand.axis).grid
        except NotUnit:
            continue
        admitted += 1
        r = plane_matmul3(plane_matmul3(g, g), g) + g
        assert np.sqrt((r * r).sum(axis=(0, 1))).max() <= bk.UNIT_TOL
        assert np.abs(0.5 * (g * g).sum(axis=(0, 1)) - 1.0).max() <= 100 * bk.UNIT_TOL
    assert 0 < admitted < 33


def test_vertical_solution_is_exponential():
    """a(theta) = exp(theta g) sampled in theta must match Rodrigues."""
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, AXIS)
    a = bk.vertical_solution(sec)
    thetas = 2.0 * np.pi * np.arange(8) / 8
    samples = sample(full_band(a), 8)
    for k, th in enumerate(thetas):
        expected = so3_exp(th * hat(AXIS))[:, :, None, None]
        assert np.abs(samples[k].real - expected).max() < 1e-14
    assert bk.vertical_residual(a, sec) < 1e-15
    assert a.orthogonality_residual() < 1e-14


def test_vertical_solution_left_factor():
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, [0.0, 0.0, 1.0])
    r0 = so3_exp(hat(np.array([0.1, 0.2, 0.3])))
    r = np.broadcast_to(r0[:, :, None, None], (3, 3, 32, 32)).copy()
    a = FourierField.from_grid(met, r) @ bk.vertical_solution(sec)
    assert bk.vertical_residual(a, sec) < 1e-15
    assert np.abs(sample(full_band(a), 8)[0].real - r).max() < 1e-14  # theta = 0 gives r


def test_projector_properties():
    rng = np.random.default_rng(6)
    met = TorusMetric.flat(32, 32)
    sec = random_unit_section(met, seed=5)
    pi = bk.projector(sec)
    assert np.abs(plane_matmul3(pi, pi) - pi).max() < 1e-13
    assert np.abs(pi - np.conj(np.swapaxes(pi, 0, 1))).max() < 1e-13
    assert np.abs(np.trace(pi, axis1=0, axis2=1) - 1.0).max() < 1e-13
    # pi projects onto the i-eigenbundle: g pi = i pi
    assert np.abs(plane_matmul3(sec.grid, pi) - 1j * pi).max() < 1e-13


def test_holomorphy_constant_section_exact():
    met = curved_metric(48)
    sec = bk.UnitSection.constant(met, AXIS)
    res = holomorphy(sec, Connection.zero(met))
    assert max(res.values()) < 1e-14


def test_holomorphy_factory_versus_controls():
    met = TorusMetric.flat(96, 96)
    good = bk.holomorphic_g_factory(met, scale=0.8 + 0.3j, offset=0.2 - 0.1j)
    res_good = holomorphy(good, Connection.zero(met))
    assert max(res_good.values()) < 1e-9
    # the y-flipped axis is the stereographic image of the conjugate zeta
    g = bk.holomorphic_g_factory(met)
    bad = bk.UnitSection(met, g.axis * np.array([1, -1, 1])[:, None, None])
    res_bad = holomorphy(bad, Connection.zero(met))
    assert min(res_bad.values()) > 1e-2
    rand = random_unit_section(met, seed=13)
    res_rand = holomorphy(rand, Connection.zero(met))
    assert min(res_rand.values()) > 1e-2


def test_factory_step_on_curved_metric():
    """Holomorphy of a unit section depends only on the conformal structure,
    so the factory section certifies on a curved metric.  The Dirichlet
    energy of g is conformally invariant, so |Phi| equals the flat one; |A|
    does not (0.23% apart)."""
    for n, tol in ((48, 1e-7), (64, 1e-10)):
        curved = TorusMetric.from_harmonics(n, n, 1.0, 1.0, BENCH_CURVED)
        step = bk.generate_chain(curved, [ELLIPTIC]).certs[0]
        assert step.residuals["output-field"] < tol
        flat = bk.generate_chain(TorusMetric.flat(n, n), [ELLIPTIC]).final
        phi, phi_flat = (p.higgs.as_field().l2_norm() for p in (step.pair_out, flat))
        assert abs(phi - phi_flat) <= 1e-12 * phi_flat


def test_dbar_routes_match_the_per_route_reference():
    """The mode -1 routes take Q = dbar_A g as mode -1 of the caller's d_A g,
    and one eta_minus of pi for both the subbundle and the projector
    residual; the subbundle and projector values equal the reference that
    transforms pi once per route, to the bit, for zero and nonzero
    connections.  The package takes the dbar-bracket on vee triples, as
    q - i q x n, and the reference on the 3x3 hats, as Q - i [Q, g]: the two
    agree to rounding, whether the reference's Q is the hat of the package's
    or its own eta_minus plus [A_{-1}, g]."""
    met = TorusMetric.from_harmonics(48, 48, 1.0, 1.0, BENCH_CURVED)
    chain = bk.generate_chain(met, [ELLIPTIC, {"kind": "repeat-q"}])
    certs = chain.certs
    zero = Connection.zero(met)
    rand = random_unit_section(met, seed=21)
    cases = [(certs[0].g, zero), (rand, zero),
             (certs[1].g, certs[0].pair_out.conn), (rand, certs[1].pair_out.conn)]
    for sec, conn in cases:
        dg = d_A(sec.axis, conn)
        res = bk.holomorphy_residuals(sec, conn, dg, hodge_star(dg))
        for q in (hat(dg.mode(-1), axis=-3), dbar_A(sec.grid, conn)):
            ref = dbar_routes_reference(sec, conn, q)
            for key in ("subbundle", "projector"):
                assert res[key] == ref[key]
            assert abs(res["dbar-bracket"] - ref["dbar-bracket"]) <= 1e-15
    # the section reduce builds, against the connection of the pair it peels
    red = bk.reduce_degree(chain.final)
    conn = chain.final.conn
    ref = dbar_routes_reference(red.g, conn, hat(d_A(red.g.axis, conn).mode(-1), axis=-3))
    for key in ("subbundle", "projector"):
        assert red.residuals[key] == ref[key]
    assert abs(red.residuals["dbar-bracket"] - ref["dbar-bracket"]) <= 1e-15


def test_backlund_constant_axis_closed_form():
    """On lam = 0.1 cos(2 pi x), constant g yields
    A_g = -e^{-lam}(lam_y cos - lam_x sin) g and Phi_g = 0, with *F = -K g."""
    met = curved_metric(64)
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, AXIS))
    gg = np.broadcast_to(hat(AXIS)[:, :, None, None], (3, 3, 64, 64))
    a_exp = -met.e_neg_lam * met.lam_y * AXIS[:, None, None]
    b_exp = met.e_neg_lam * met.lam_x * AXIS[:, None, None]
    assert np.abs(cert.pair_out.conn.a - a_exp).max() < 1e-12
    assert np.abs(cert.pair_out.conn.b - b_exp).max() < 1e-12
    assert cert.pair_out.higgs.as_field().l2_norm() < 1e-13
    sf = star_curvature(cert.pair_out.conn)
    assert np.abs(sf + met.gauss * AXIS[:, None, None]).max() < 1e-9
    assert cert.residuals["output-field"] < 1e-12
    assert cert.residuals["conn-off-modes"] < 1e-12
    q = cert.vertical @ cert.g.field() @ cert.vertical.transpose()
    assert np.abs(q.mode(0) - gg).max() < 1e-13


def test_backlund_gates():
    met = curved_metric(48)
    sec = bk.UnitSection.constant(met, AXIS)
    no_triv = Pair(Connection.zero(met), Higgs.zero(met))
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(no_triv, sec)
    # a wrong trivializer breaks the certificate
    lying = Pair(
        Connection.zero(met),
        Higgs(met, np.stack([0.3 + 0 * met.lam, 0 * met.lam, 0 * met.lam])),
        trivializer=FourierField.identity(met),
    )
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(lying, sec)
    # NaN residuals must not pass a gate
    nan_triv = FourierField(met, {0: np.full((3, 3, 48, 48), np.nan)})
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(Pair(Connection.zero(met), Higgs.zero(met), nan_triv), sec)
    rand = random_unit_section(TorusMetric.flat(48, 48), seed=3)
    with pytest.raises(GNotHolomorphic):
        bk.backlund_transform(Pair.trivial(TorusMetric.flat(48, 48)), rand)
    # the output is gated at the same tolerance: the trivial input's residual
    # is exactly 0, the constant step's output about 4e-15
    assert transport_residual_field(Pair.trivial(met)) == 0.0
    with pytest.raises(OutputNotCertified):
        bk.backlund_transform(Pair.trivial(met), sec, cert_tol=1e-18)


def test_phi_diagnostics_vanish_with_phi():
    """The repeat-q step after a constant step has a Higgs field that is zero
    up to rounding; its projection losses must read as rounding too, not as
    ratios of rounding noise to itself."""
    met = TorusMetric.from_harmonics(
        48, 48, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    chain = bk.generate_chain(met, [{"kind": "constant", "axis": AXIS.tolist()},
                                    {"kind": "repeat-q"}])
    res = chain.certs[1].residuals
    assert res["phi-off-modes"] <= 1e-12


def test_backlund_factory_step_has_higgs():
    met = TorusMetric.flat(96, 96)
    sec = bk.holomorphic_g_factory(met, scale=0.7 + 0.2j, offset=0.1 - 0.3j)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    assert np.linalg.norm(cert.pair_out.higgs.phi, axis=0).max() > 0.01
    assert cert.residuals["output-field"] < 1e-9
    assert cert.residuals["phi-off-modes"] < 1e-9
    assert cert.residuals["u-out-orthogonality"] < 1e-12
    tv = triviality_residual(cert.pair_out, SMPoint(0.23, 0.71, 0.9), 3.0, 1e-3)
    assert tv.max_residual < 1e-6


def test_higgs_bounded_by_axis_gradient():
    """With A = 0 the Higgs field is the mode-0 part of a (*dg) a^{-1};
    conjugation by the orthogonal a preserves norms, so dropping the
    other modes can only shrink it.  At 64^2 the default factory step's
    output residual is 1.6e-6, above the output gate, so the grid is 80^2."""
    met = TorusMetric.flat(80, 80)
    sec = bk.holomorphic_g_factory(met)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    # both norms are those of the vee triples
    star_dg = hodge_star(d_A(sec.axis, Connection.zero(met)))
    phi_norm = grid_l2_norm(met, cert.pair_out.higgs.phi, fiber=True)
    ref = np.sqrt(
        sum(grid_l2_norm(met, star_dg.mode(m), fiber=True) ** 2 for m in (-1, 1))
    )
    assert phi_norm <= ref * (1.0 + 1e-9)
    assert phi_norm > 0.05 * ref


def test_q_lemma_and_inverse_round_trip():
    met = curved_metric(64)
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, AXIS))
    ql = q_lemma_residuals(cert)
    assert max(ql.values()) < 1e-12
    back = inverse_backlund(cert)
    rt = round_trip_residuals(cert, back)
    assert max(rt.values()) < 1e-12


def test_inverse_round_trip_factory():
    met = TorusMetric.flat(128, 128)
    sec = bk.holomorphic_g_factory(met, scale=1.1 - 0.4j, offset=0.3 + 0.2j)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    ql = q_lemma_residuals(cert)
    assert max(ql.values()) < 1e-8
    back = inverse_backlund(cert, gmero_tol=1e-5)
    rt = round_trip_residuals(cert, back)
    assert max(rt.values()) < 1e-8


def test_fiber_loop_parity_direct():
    met = TorusMetric.flat(32, 32)
    assert fiber_loop_parity(FourierField.identity(met)) == 1
    one = bk.vertical_solution(bk.UnitSection.constant(met, AXIS))
    assert fiber_loop_parity(one) == -1
    two = one @ one  # exp(2 theta g)
    assert fiber_loop_parity(two) == 1


def test_two_step_doubling():
    """A constant step followed by repeat-q is the Higgs-free doubling: the
    combined vertical solution c = a_q a satisfies c^T V(c) = 2g, Phi vanishes
    again, and the fiber loop parity goes 1, -1, 1 (the SU(2) lift)."""
    met = curved_metric(48)
    certs = bk.generate_chain(met, [{"kind": "constant", "axis": list(AXIS)},
                                    {"kind": "repeat-q"}]).certs
    c = certs[1].vertical @ certs[0].vertical
    two_g = FourierField(met, {0: 2.0 * certs[0].g.grid.astype(complex)})
    assert (c.transpose() @ vertical(c) - two_g).l2_norm() / two_g.l2_norm() < 1e-13
    final = certs[1].pair_out
    assert final.higgs.as_field().l2_norm() / (final.conn.as_field().l2_norm() + 1.0) < 1e-12
    parities = [fiber_loop_parity(u) for u in (Pair.trivial(met).trivializer,
                certs[0].pair_out.trivializer, certs[1].pair_out.trivializer)]
    assert parities == [1, -1, 1]
    # doubling the constant-axis step doubles the connection
    assert np.abs(final.conn.a - 2.0 * certs[0].pair_out.conn.a).max() < 1e-12


def test_reduce_degree_recovers_inverse():
    """Reducing the degree-1 trivializer a of a first transform step must
    find the axis -g and return to the trivial pair."""
    met = TorusMetric.flat(96, 96)
    sec = bk.holomorphic_g_factory(met, scale=0.9 + 0.1j)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    red = bk.reduce_degree(cert.pair_out)
    assert np.abs(red.g.grid + sec.grid).max() < 1e-12
    assert red.residuals["constraint-a1-bN"] < 1e-12
    assert red.residuals["constraint-a0-bN"] < 1e-12
    assert red.residuals["constraint-a1-bNm1"] < 1e-12
    assert red.residuals["top-mode-N"] < 1e-12
    assert red.residuals["top-mode-N1"] < 1e-12
    assert red.residuals["rank-deficient-fraction"] == 0.0
    assert red.pair.trivializer.degree == 0
    assert np.abs(red.pair.trivializer.mode(0) - np.eye(3)[:, :, None, None]).max() < 1e-12
    assert red.pair.conn.as_field().l2_norm() < 1e-10
    assert red.pair.higgs.as_field().l2_norm() < 1e-10
    assert red.residuals["reduced-field"] < 1e-10
    assert transport_residual_field(red.pair) < 1e-10


def test_reduce_constraint_rows_are_relative_to_the_top_mode():
    """Mode N-1 of a repeat-q chain's trivializer vanishes to rounding, so
    a_1 b_{N-1}, the whole of the new top mode once a_0 b_N = 0, is measured
    against ||b_N|| like the other two constraint rows, not against noise."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0,
                                     [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)])
    chain = bk.generate_chain(met, [{"kind": "constant", "axis": AXIS.tolist()},
                                    {"kind": "repeat-q"}])
    u = chain.final.trivializer
    assert grid_l2_norm(met, u.mode(1)) <= 1e-14 * grid_l2_norm(met, u.mode(2))
    red = bk.reduce_degree(chain.final)
    for key in ("constraint-a1-bN", "constraint-a0-bN", "constraint-a1-bNm1"):
        assert red.residuals[key] <= 1e-14, key


def test_reduce_degree_gates(monkeypatch):
    met = TorusMetric.flat(32, 32)
    with pytest.raises(ValueError):
        bk.reduce_degree(Pair.trivial(met))
    with pytest.raises(InputNotCertified):
        bk.reduce_degree(Pair(Connection.zero(met), Higgs.zero(met)))
    # rank deficiency on more than 1% of the grid
    sec = bk.UnitSection.constant(met, AXIS)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    u = cert.pair_out.trivializer
    m1 = u.mode(1).copy()
    m1[:, :, :8, :8] = 0.0
    broken = FourierField(met, {0: u.mode(0), 1: m1})
    with pytest.raises(RankDeficient):
        bk.reduce_degree(
            Pair(cert.pair_out.conn, cert.pair_out.higgs, trivializer=broken)
        )
    # an axis that fails the holomorphy gate, named with its tolerance
    rand = random_unit_section(met, seed=17)
    b = bk.vertical_solution(rand)
    with pytest.raises(ReductionFailed, match=r"^reduction axis holomorphy residual "
                       r"\d\.\d{3}e[-+]\d+ exceeds 1\.0e-06$"):
        bk.reduce_degree(Pair(Connection.zero(met), Higgs.zero(met), trivializer=b))
    # the input and the reduced pair are both gated at DEFAULT_CERT_TOL, the
    # input first; a reduced pair that misses (its field residual reported
    # as 1.0 here) raises after the input has passed
    curved = curved_metric(32)
    step = bk.backlund_transform(Pair.trivial(curved), bk.UnitSection.constant(curved, AXIS))
    assert bk.reduce_degree(step.pair_out).residuals["reduced-field"] > 1e-18
    field = bk.transport_residual_field
    monkeypatch.setattr(bk, "DEFAULT_CERT_TOL", 1e-18)
    with pytest.raises(InputNotCertified, match="input field residual"):
        bk.reduce_degree(step.pair_out)
    monkeypatch.undo()
    monkeypatch.setattr(bk, "transport_residual_field",
                        lambda p: 1.0 if p.trivializer.degree == 0 else field(p))
    with pytest.raises(OutputNotCertified, match="reduced field residual"):
        bk.reduce_degree(step.pair_out)


def test_reduce_fills_masked_axis_from_neighbors():
    """Masked points of a constant unit axis, a 2x2 block across the periodic
    corner, are refilled with that axis and the others are kept bit for bit;
    a fully masked grid cannot be filled."""
    n = np.broadcast_to(AXIS[:, None, None], (3, 32, 32)).copy()
    mask = np.zeros((32, 32), dtype=bool)
    mask[np.ix_([31, 0], [31, 0])] = True
    filled = bk._fill_masked_axis(np.where(mask, 0.0, n), mask)
    assert np.array_equal(filled[:, ~mask], n[:, ~mask])
    assert np.abs(filled[:, mask] - AXIS[:, None]).max() < 1e-15
    with pytest.raises(ReductionFailed):
        bk._fill_masked_axis(np.zeros((3, 32, 32)), np.ones((32, 32), dtype=bool))


def top_modes():
    """The top modes of the trivializers of the three benchmark chains and
    of test_reduce_degree_recovers_inverse's one step."""
    curved48, curved32 = (TorusMetric.from_harmonics(n, n, 1.0, 1.0, BENCH_CURVED)
                          for n in (48, 32))
    constant, repeat = {"kind": "constant", "axis": AXIS.tolist()}, {"kind": "repeat-q"}
    for met, steps in ((TorusMetric.flat(48, 48), [ELLIPTIC, repeat]),
                       (curved48, [constant, repeat]), (curved32, [constant] + [repeat] * 5),
                       (TorusMetric.flat(96, 96), [{"kind": "elliptic", "scale": [0.9, 0.1]}])):
        u = bk.generate_chain(met, steps).final.trivializer
        yield u.mode(u.degree)


def test_transform_core_matches_the_3x3_reference():
    """The core carries Phi_g and A_g as bands of vee triples, a core and
    -vee(X(a) a^T) + a (A + Phi - core): each mode is the vee of the 3x3
    band a core a^T or -X(a) a^T + a (A + Phi - core) a^T
    (oracles.transformed_3x3, whose core is g <g, Phi> + *d_A g on 3x3
    grids) within 1e-13 of the largest entry of the two bands, and a u is the
    same to the bit.  Checked on every step and on the reduction of the three bench
    chains and of a curved [constant e_z, repeat-q, repeat-q] chain.  The
    rows of a and a u are the reference's to the bit, and the projection
    rows agree, conn-off-modes no higher, since the 3x3 bands' symmetric
    parts (the reference's phi-sym and conn-sym) no longer enter it."""
    curved48, curved32 = (TorusMetric.from_harmonics(n, n, 1.0, 1.0, BENCH_CURVED)
                          for n in (48, 32))
    constant, repeat = {"kind": "constant", "axis": AXIS.tolist()}, {"kind": "repeat-q"}
    e_z = {"kind": "constant", "axis": [0.0, 0.0, 1.0]}
    for met, steps in ((TorusMetric.flat(48, 48), [ELLIPTIC, repeat]),
                       (curved48, [constant, repeat]), (curved32, [constant] + [repeat] * 5),
                       (curved32, [e_z, repeat, repeat])):
        chain = bk.generate_chain(met, steps)
        cases = [(cert.pair_in, cert.g) for cert in chain.certs]
        cases.append((chain.final, bk.reduce_degree(chain.final).g))
        for pair, g in cases:
            star_dg = hodge_star(d_A(g.axis, pair.conn))
            _, phi_g, a_g = bk._transformed_bands(pair, g, star_dg)
            _, out, rows = bk._transformed(pair, g, star_dg)
            _, ref_out, ref_rows, ref_phi, ref_a = transformed_3x3(pair, g)
            # Phi_g vanishes to discretization on a doubling step, so both
            # bands are held to the largest entry of the two
            scale = max(np.abs(ref_phi.coef).max(), np.abs(ref_a.coef).max())
            for got, ref in ((phi_g, ref_phi), (a_g, ref_a)):
                want = vee(ref.coef, axis=-3)
                assert got.coef.shape[1:] == want.shape[1:]
                for m in range(max(len(got.coef), len(want))):
                    diff = (got.coef[m] if m < len(got.coef) else 0.0) - \
                        (want[m] if m < len(want) else 0.0)
                    assert np.abs(diff).max() <= 1e-13 * scale, m
            assert np.array_equal(out.trivializer.coef, ref_out.trivializer.coef)
            for key in ("vertical", "a-orthogonality", "u-out-orthogonality"):
                assert rows[key] == ref_rows[key]
            assert abs(rows["phi-off-modes"] - ref_rows["phi-off-modes"]) <= \
                1e-13 + 1e-6 * ref_rows["phi-off-modes"]
            assert rows["conn-off-modes"] <= ref_rows["conn-off-modes"] * (1 + 1e-6) + 1e-13
            assert set(ref_rows) - set(rows) == {"phi-sym", "conn-sym"}


def test_top_mode_axis_matches_the_svd_column_pick():
    """The axis read off Im(b_N b_N^H) is the per-point SVD and column-pick
    axis to 1e-14 on the mask that the SVD's top singular value gives, and
    axis-norm-dev reads rounding."""
    for top in top_modes():
        axis, mask, dev = bk._top_mode_axis(top)
        ref_axis, ref_mask, ref_dev = svd_column_axis(top)
        assert np.array_equal(mask, ref_mask)
        assert np.abs(axis - ref_axis).max() <= 1e-14
        assert dev <= 1e-14 and ref_dev <= 1e-14


def test_axis_norm_dev_detects_a_top_mode_off_rank_one_isotropic():
    """axis-norm-dev is 0 exactly for a rank-one top mode with isotropic
    range, where 2 |vee(D C^T - C D^T)| / |b_N|_F^2 takes its maximum 1, so
    it falls off quadratically: a real rank-one term of relative size
    eps = 1e-3 reads about eps^2 (0.97e-6 to 1.0e-6 here), far above
    rounding, and a second isotropic rank-one term reads O(1) (0.33 to 0.67)."""
    rng = np.random.default_rng(8)
    eps = 1e-3
    for top in top_modes():
        size = np.sqrt((np.abs(top) ** 2).sum(axis=(0, 1)))
        r, s = rng.normal(size=(2, 3))
        real = np.outer(r / np.linalg.norm(r), s / np.linalg.norm(s))[:, :, None, None]
        assert 0.5 * eps**2 <= bk._top_mode_axis(top + eps * size * real)[2] <= 2 * eps**2
        second = np.outer([0.0, 1.0, 1.0j], [0.0, 0.0, 1.0])[:, :, None, None]
        assert bk._top_mode_axis(top + size * second)[2] > 0.1


def test_reduce_degree_computes_the_star_bracket_once(monkeypatch):
    """One reduction takes d_A g of its axis once, for the four holomorphy
    routes and the transform core alike, computes the star-bracket once,
    builds two transport bands (the input pair and the reduced pair), takes
    one Hodge star and never runs the gated transform, whose output band
    nothing would read."""
    met = curved_metric(32)
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, AXIS))
    calls = {"d_A": 0, "hodge_star": 0, "_star_bracket": 0, "transport_residual_field": 0,
             "backlund_transform": 0}

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.__setitem__(name, calls[name] + 1)
                            or fn(*a, **k))

    for name in ("d_A", "hodge_star"):
        counted(bk.sm, name)
    for name in ("_star_bracket", "transport_residual_field", "backlund_transform"):
        counted(bk, name)
    red = bk.reduce_degree(cert.pair_out)
    assert calls == {"d_A": 1, "hodge_star": 1, "_star_bracket": 1,
                     "transport_residual_field": 2, "backlund_transform": 0}
    assert "holomorphy" not in red.residuals and "output-field" not in red.residuals


def test_reduce_degree_transient_memory_is_bounded():
    """reduce on the flat-elliptic chain at 48^2 (trivializer degree 2)
    holds at most 10 times the bytes of the trivializer's modes -2..2 in
    temporaries at once, after one warm-up call fills the product caches:
    it builds the transform's output pair once and gates only the input and
    the reduced pair, with no band of the untruncated degree N + 1
    trivializer, and the transform core drops its projected bands before it
    forms a u (tracemalloc counts numpy's data buffers)."""
    met = TorusMetric.flat(48, 48)
    pair = bk.generate_chain(met, [ELLIPTIC, {"kind": "repeat-q"}]).final
    # the bytes of the modes -2..2, the unit this bound was set in
    band = 5 * pair.trivializer.coef[0].nbytes
    assert pair.trivializer.degree == 2
    bk.reduce_degree(pair)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        bk.reduce_degree(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 10 * band


def test_section_family_deterministic():
    met = TorusMetric.flat(128, 128)
    fam1 = section_family(met, 3, seed=7)
    fam2 = section_family(met, 3, seed=7)
    zero = Connection.zero(met)
    for s1, s2 in zip(fam1, fam2):
        assert np.abs(s1.grid - s2.grid).max() == 0.0
        res = holomorphy(s1, zero)
        assert max(res.values()) < 1e-6


def test_repeat_q_reuses_the_section():
    """q = a g a^{-1} is g, since a = exp(theta g) commutes with g: a
    repeat-q step transforms with the previous step's section itself, and
    no step records q residuals.  Nothing is recomputed from step to step,
    so a ten-step chain keeps every gate at rounding (a q recomputed on each
    step drifted about 4x per step and failed the unit check)."""
    met = curved_metric(32)
    steps = [{"kind": "constant", "axis": AXIS.tolist()}] + [{"kind": "repeat-q"}] * 9
    certs = bk.generate_chain(met, steps).certs
    for prev, cert in zip(certs, certs[1:]):
        assert np.array_equal(cert.g.grid, prev.g.grid)
    keys = {frozenset(c.residuals) for c in certs}
    assert len(keys) == 1 and not any(k.startswith("q-") for k in keys.pop())
    gated = [c.residuals[k] for c in certs for k in ("input-field", "holomorphy", "output-field")]
    assert max(gated) < 1e-13


def test_chain_builds_one_band_per_pair(monkeypatch):
    """Each step continues from the certificate of the one before it: a
    6-step chain builds the trivial input's band and one band per output,
    and every input-field is the previous step's output-field bit for bit."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0,
                                     [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)])
    calls = []
    band = cc._transport_band
    monkeypatch.setattr(cc, "_transport_band", lambda p: calls.append(p) or band(p))
    steps = [{"kind": "constant", "axis": AXIS.tolist()}] + [{"kind": "repeat-q"}] * 5
    chain = bk.generate_chain(met, steps)
    assert len(calls) == 7
    for prev, cert in zip(chain.certs, chain.certs[1:]):
        assert cert.residuals["input-field"] == prev.residuals["output-field"]
        assert cert.pair_in is prev.pair_out


def test_generate_chain_kinds():
    met = curved_metric(48)
    chain = bk.generate_chain(met, [])
    assert chain.certs == []
    with pytest.raises(ValueError):
        bk.generate_chain(met, [{"kind": "nope"}])
    with pytest.raises(ValueError):
        bk.generate_chain(met, [{"kind": "repeat-q"}])
    two = bk.generate_chain(
        met,
        [{"kind": "constant", "axis": AXIS.tolist()}, {"kind": "repeat-q"}],
    )
    assert len(two.certs) == 2
    assert two.final.trivializer.degree == 2


def test_reduce_degree_after_gauge_on_curved_metric():
    """A gauge transform by a non-constant r keeps a pair certified and
    reducible; on a curved metric the subbundle route must then carry the
    e^{-lambda} of the twisted dbar-operator like the other three routes."""
    met = TorusMetric.from_harmonics(
        48, 48, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    chain = bk.generate_chain(
        met, [{"kind": "constant", "axis": AXIS.tolist()}, {"kind": "repeat-q"}]
    )
    xg, yg = grid_coords(48, 48, 1.0, 1.0)
    w = np.stack([0.3 * np.sin(2 * np.pi * xg), 0.2 * np.cos(2 * np.pi * yg),
                  0.1 * np.sin(2 * np.pi * (xg + yg))], axis=-1)
    gauged = gauge_transform(chain.final, np.moveaxis(so3_exp(hat(w)), (2, 3), (0, 1)))
    red = bk.reduce_degree(gauged)
    assert red.residuals["reduced-field"] <= 1e-12
    for name in ("star-bracket", "dbar-bracket", "subbundle", "projector"):
        assert red.residuals[name] <= 1e-12, name
