"""Transform steps, certificates, the elliptic section factory, inversion,
doubling and degree reduction."""

import numpy as np
import pytest

from cocyclelab import backlund as bk
from cocyclelab.cocycle import transport_residual_field, triviality_residual
from cocyclelab.errors import (
    FactoryValidationFailed,
    GNotHolomorphic,
    InputNotCertified,
    NotUnit,
    PhiNotZero,
    RankDeficient,
    ReductionFailed,
)
from cocyclelab.lie3 import hat, so3_exp
from cocyclelab.smfield import Connection, FourierField, Higgs, Pair, star_curvature
from cocyclelab.torus import Harmonic, SMPoint, TorusMetric

AXIS = np.array([0.6, -0.48, 0.64]) / np.linalg.norm([0.6, -0.48, 0.64])


def curved_metric(n=64):
    return TorusMetric.from_harmonics(n, n, 1.0, 1.0, [Harmonic(0.1, 1, 0)])


def test_unit_section_gates():
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, [3.0, 0.0, 4.0])
    assert np.abs(sec.axis() - np.array([0.6, 0.0, 0.8])).max() < 1e-15
    with pytest.raises(NotUnit):
        bk.UnitSection(met, 1.3 * sec.grid)
    with pytest.raises(NotUnit):
        bk.UnitSection(met, np.full_like(sec.grid, np.nan))
    with pytest.raises(ValueError):
        bk.UnitSection(met, np.zeros((16, 16, 3, 3)))


def test_vertical_solution_is_exponential():
    """a(theta) = exp(theta g) sampled in theta must match Rodrigues."""
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, AXIS)
    a = bk.vertical_solution(sec)
    thetas = met.theta_grid(8)
    samples = a.sample(8)
    for k, th in enumerate(thetas):
        expected = so3_exp(th * hat(AXIS))
        assert np.abs(samples[k].real - expected).max() < 1e-14
    assert bk.vertical_residual(a, sec) < 1e-15
    assert a.orthogonality_residual() < 1e-14


def test_vertical_solution_left_factor():
    met = TorusMetric.flat(32, 32)
    sec = bk.UnitSection.constant(met, [0.0, 0.0, 1.0])
    r = np.broadcast_to(so3_exp(hat(np.array([0.1, 0.2, 0.3]))), (32, 32, 3, 3)).copy()
    a = bk.vertical_solution(sec, r=r)
    assert bk.vertical_residual(a, sec) < 1e-15
    assert np.abs(a.sample(8)[0].real - r).max() < 1e-14  # theta = 0 gives r


def test_projector_properties():
    rng = np.random.default_rng(6)
    met = TorusMetric.flat(32, 32)
    sec = bk.random_unit_section(met, seed=5)
    pi = bk.projector(sec)
    assert np.abs(pi @ pi - pi).max() < 1e-13
    assert np.abs(pi - np.conj(np.swapaxes(pi, -1, -2))).max() < 1e-13
    assert np.abs(np.trace(pi, axis1=-2, axis2=-1) - 1.0).max() < 1e-13
    # pi projects onto the i-eigenbundle: g pi = i pi
    assert np.abs(sec.grid @ pi - 1j * pi).max() < 1e-13


def test_holomorphy_constant_section_exact():
    met = curved_metric(48)
    sec = bk.UnitSection.constant(met, AXIS)
    res = bk.holomorphy_residuals(sec, Connection.zero(met))
    assert max(res.values()) < 1e-14


def test_holomorphy_factory_versus_controls():
    met = TorusMetric.flat(96, 96)
    good = bk.holomorphic_g_factory(met, scale=0.8 + 0.3j, offset=0.2 - 0.1j)
    res_good = bk.holomorphy_residuals(good, Connection.zero(met))
    assert max(res_good.values()) < 1e-9
    bad = bk.holomorphic_g_factory(met, conjugate=True, validate=False)
    res_bad = bk.holomorphy_residuals(bad, Connection.zero(met))
    assert min(res_bad.values()) > 1e-2
    rand = bk.random_unit_section(met, seed=13)
    res_rand = bk.holomorphy_residuals(rand, Connection.zero(met))
    assert min(res_rand.values()) > 1e-2
    with pytest.raises(FactoryValidationFailed):
        bk.holomorphic_g_factory(met, conjugate=True)


def test_factory_requires_flat_metric():
    with pytest.raises(ValueError):
        bk.holomorphic_g_factory(curved_metric())


def test_backlund_constant_axis_closed_form():
    """On lam = 0.1 cos(2 pi x), constant g yields
    A_g = -e^{-lam}(lam_y cos - lam_x sin) g and Phi_g = 0, with *F = -K g."""
    met = curved_metric(64)
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, AXIS))
    gg = np.broadcast_to(hat(AXIS), (64, 64, 3, 3))
    a_exp = -met.e_neg_lam[..., None, None] * met.lam_y[..., None, None] * gg
    b_exp = met.e_neg_lam[..., None, None] * met.lam_x[..., None, None] * gg
    assert np.abs(cert.pair_out.conn.a - a_exp).max() < 1e-12
    assert np.abs(cert.pair_out.conn.b - b_exp).max() < 1e-12
    assert cert.pair_out.higgs.norm() < 1e-13
    sf = star_curvature(cert.pair_out.conn)
    assert np.abs(sf + met.gauss[..., None, None] * gg).max() < 1e-9
    assert cert.residuals["output-field"] < 1e-12
    assert cert.residuals["conn-off-modes"] < 1e-12
    assert np.abs(cert.q - hat(AXIS)).max() < 1e-13


def test_backlund_gates():
    met = curved_metric(48)
    sec = bk.UnitSection.constant(met, AXIS)
    no_triv = Pair(Connection.zero(met), Higgs.zero(met))
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(no_triv, sec)
    # a wrong trivializer breaks the certificate
    lying = Pair(
        Connection.zero(met),
        Higgs(met, hat(np.stack([0.3 + 0 * met.lam, 0 * met.lam, 0 * met.lam], -1))),
        trivializer=FourierField.identity(met),
    )
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(lying, sec)
    # NaN residuals must not pass a gate
    nan_triv = FourierField(met, {0: np.full((48, 48, 3, 3), np.nan)})
    with pytest.raises(InputNotCertified):
        bk.backlund_transform(Pair(Connection.zero(met), Higgs.zero(met), nan_triv), sec)
    rand = bk.random_unit_section(TorusMetric.flat(48, 48), seed=3)
    with pytest.raises(GNotHolomorphic):
        bk.backlund_transform(Pair.trivial(TorusMetric.flat(48, 48)), rand)


def test_phi_diagnostics_vanish_with_phi():
    """The repeat-q step after a constant step has a Higgs field that is zero
    up to rounding; its projection losses must read as rounding too, not as
    ratios of rounding noise to itself."""
    met = TorusMetric.from_harmonics(
        48, 48, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    chain = bk.generate_chain(met, [{"kind": "constant", "axis": AXIS}, {"kind": "repeat-q"}])
    res = chain.certs[1].residuals
    assert res["phi-off-modes"] <= 1e-12
    assert res["phi-imag"] <= 1e-12


def test_backlund_factory_step_has_higgs():
    met = TorusMetric.flat(96, 96)
    sec = bk.holomorphic_g_factory(met, scale=0.7 + 0.2j, offset=0.1 - 0.3j)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    assert cert.pair_out.higgs.max_pointwise_norm() > 0.01
    assert cert.residuals["output-field"] < 1e-9
    assert cert.residuals["phi-off-modes"] < 1e-9
    assert cert.residuals["u-out-orthogonality"] < 1e-12
    tv = triviality_residual(cert.pair_out, SMPoint(0.23, 0.71, 0.9), 3.0, 1e-3)
    assert tv.max_residual < 1e-6


def test_higgs_bounded_by_axis_gradient():
    """With A = 0 the Higgs field is the mode-0 part of a (*dg) a^{-1};
    conjugation by the orthogonal a preserves norms, so dropping the
    other modes can only shrink it."""
    met = TorusMetric.flat(64, 64)
    sec = bk.holomorphic_g_factory(met)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    from cocyclelab.smfield import d_A, grid_l2_norm, hodge_star

    star_dg = hodge_star(d_A(sec.grid, Connection.zero(met)))
    phi_norm = cert.pair_out.higgs.norm()
    ref = np.sqrt(
        sum(grid_l2_norm(met, star_dg.mode(m), fiber=True) ** 2 for m in (-1, 1))
    )
    assert phi_norm <= ref * (1.0 + 1e-9)
    assert phi_norm > 0.05 * ref


def test_q_lemma_and_inverse_round_trip():
    met = curved_metric(64)
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, AXIS))
    ql = bk.q_lemma_residuals(cert)
    assert max(ql.values()) < 1e-12
    back = bk.inverse_backlund(cert)
    rt = bk.round_trip_residuals(cert, back)
    assert max(rt.values()) < 1e-12


def test_inverse_round_trip_factory():
    met = TorusMetric.flat(128, 128)
    sec = bk.holomorphic_g_factory(met, scale=1.1 - 0.4j, offset=0.3 + 0.2j)
    cert = bk.backlund_transform(Pair.trivial(met), sec)
    ql = bk.q_lemma_residuals(cert)
    assert max(ql.values()) < 1e-8
    back = bk.inverse_backlund(cert, gmero_tol=1e-5)
    rt = bk.round_trip_residuals(cert, back)
    assert max(rt.values()) < 1e-8


def test_fiber_loop_parity_direct():
    met = TorusMetric.flat(32, 32)
    assert bk.fiber_loop_parity(FourierField.identity(met)) == 1
    one = bk.vertical_solution(bk.UnitSection.constant(met, AXIS))
    assert bk.fiber_loop_parity(one) == -1
    two = one @ one  # exp(2 theta g)
    assert bk.fiber_loop_parity(two) == 1


def test_two_step_su2():
    met = curved_metric(48)
    sec = bk.UnitSection.constant(met, AXIS)
    ts = bk.two_step_su2(Pair.trivial(met), sec)
    assert ts.c_vertical_residual < 1e-13
    assert ts.phi_final < 1e-12
    assert (ts.parity_in, ts.parity_mid, ts.parity_out) == (1, -1, 1)
    # doubling the constant-axis step doubles the connection
    assert np.abs(
        ts.cert_second.pair_out.conn.a - 2.0 * ts.cert_first.pair_out.conn.a
    ).max() < 1e-12


def test_two_step_requires_higgs_free_input():
    met = curved_metric(48)
    phi = Higgs(met, hat(np.stack([0.2 + 0 * met.lam, 0 * met.lam, 0 * met.lam], -1)))
    pair = Pair(Connection.zero(met), phi, trivializer=FourierField.identity(met))
    with pytest.raises(PhiNotZero):
        bk.two_step_su2(pair, bk.UnitSection.constant(met, AXIS))


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
    assert red.u.degree == 0
    assert np.abs(red.u.mode(0) - np.eye(3)).max() < 1e-12
    assert red.pair.conn.norm() < 1e-10
    assert red.pair.higgs.norm() < 1e-10
    assert red.residuals["reduced-field"] < 1e-10
    assert transport_residual_field(red.pair) < 1e-10


def test_reduce_degree_gates():
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
    m1[:8, :8] = 0.0
    broken = FourierField(met, {0: u.mode(0), 1: m1, -1: m1.conj()})
    with pytest.raises(RankDeficient):
        bk.reduce_degree(
            Pair(cert.pair_out.conn, cert.pair_out.higgs, trivializer=broken)
        )
    # an axis that fails the holomorphy gate
    rand = bk.random_unit_section(met, seed=17)
    b = bk.vertical_solution(rand)
    with pytest.raises(ReductionFailed):
        bk.reduce_degree(Pair(Connection.zero(met), Higgs.zero(met), trivializer=b))


def test_section_family_deterministic():
    met = TorusMetric.flat(128, 128)
    fam1 = bk.section_family(met, 3, seed=7)
    fam2 = bk.section_family(met, 3, seed=7)
    zero = Connection.zero(met)
    for s1, s2 in zip(fam1, fam2):
        assert np.abs(s1.grid - s2.grid).max() == 0.0
        res = bk.holomorphy_residuals(s1, zero)
        assert max(res.values()) < 1e-6


def test_last_step_certifies_q():
    """Every step records the q residuals, with the values a following
    repeat-q step would have computed, whatever step follows."""
    met = curved_metric(32)
    steps = [{"kind": "constant", "axis": AXIS.tolist()}, {"kind": "repeat-q"}]
    two = bk.generate_chain(met, steps)
    three = bk.generate_chain(met, steps + [{"kind": "repeat-q"}])
    keys = [set(c.residuals) for c in two.certs + three.certs]
    assert all(k == keys[0] for k in keys)
    assert {"q-off-modes", "q-imag", "q-sym"} <= keys[0]
    for name in ("q-off-modes", "q-imag", "q-sym"):
        assert two.certs[-1].residuals[name] == three.certs[1].residuals[name]
    assert np.array_equal(three.certs[2].g.grid, two.certs[-1].q)


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
