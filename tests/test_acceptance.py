"""Acceptance gate: one test per advertised guarantee, one printed line each,
and one unprinted check that shares criterion 11's chains (the H0 rows on
vee triples against their 3x3 reference).

Run with plain pytest; the PASS/FAIL lines bypass output capture so they are
visible in any mode.  Thresholds here are the contract, not regression values;
do not tighten or loosen them to chase a build.
"""

import numpy as np
import pytest

from cocyclelab import backlund as bk
from cocyclelab import cli
from cocyclelab import cocycle as cc
from cocyclelab.errors import passes, worst
from cocyclelab.lie3 import hat, inner
from cocyclelab.smfield import (
    Connection,
    FourierField,
    Higgs,
    Pair,
    d_A,
    eta_minus,
    eta_plus,
    hodge_star,
    l2_inner,
    star_curvature,
    vertical,
)
from cocyclelab.torus import (
    Harmonic,
    SMPoint,
    TorusMetric,
    flat_closed_geodesics,
    grid_coords,
)
from oracles import (
    band_norm,
    bracket,
    ell,
    fiber_loop_parity,
    frame_apply,
    from_samples,
    h0_residuals_3x3,
    hat_grid,
    inverse_backlund,
    plane_matmul3,
    points,
    q_lemma_residuals,
    random_unit_section,
    round_trip_residuals,
    sample,
    section_family,
    so3_exp,
    so3_norm,
)

AXIS = np.array([0.6, -0.48, 0.64]) / np.linalg.norm([0.6, -0.48, 0.64])


def emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def bandlimited_field(metric, degree, seed, kcut=5):
    """Random complex grids of the modes -degree..degree, one stack."""
    rng = np.random.default_rng(seed)
    modes = []
    mask = np.zeros((metric.ny, metric.nx), dtype=bool)
    mask[:kcut, :kcut] = mask[:kcut, -kcut:] = True
    mask[-kcut:, :kcut] = mask[-kcut:, -kcut:] = True
    for _ in range(-degree, degree + 1):
        h = rng.normal(size=(metric.ny, metric.nx, 3, 3)) + 1j * rng.normal(
            size=(metric.ny, metric.nx, 3, 3)
        )
        hf = np.fft.fft2(np.moveaxis(h, (2, 3), (0, 1)))
        modes.append(np.fft.ifft2(hf * mask))
    return np.stack(modes)


def bandlimited_connection(metric, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    xg, yg = grid_coords(metric.nx, metric.ny, metric.lx, metric.ly)

    def coeff():
        w = np.zeros((metric.ny, metric.nx, 3))
        for c in range(3):
            for kx in range(-2, 3):
                for ky in range(-2, 3):
                    amp = scale * rng.normal() / (1.0 + kx * kx + ky * ky)
                    w[..., c] += amp * np.cos(
                        2 * np.pi * (kx * xg / metric.lx + ky * yg / metric.ly)
                        + rng.uniform(0, 2 * np.pi)
                    )
        return hat_grid(w)

    return Connection(metric, coeff(), coeff())


@pytest.fixture(scope="module")
def const_chain():
    """One transform step with a constant section on lam = 0.1 cos(2 pi x)."""
    met = TorusMetric.from_harmonics(128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0)])
    sec = bk.UnitSection.constant(met, AXIS)
    return bk.backlund_transform(Pair.trivial(met), sec)


@pytest.fixture(scope="module")
def factory_chain():
    """One transform step with an elliptic-factory section, flat 256x256."""
    met = TorusMetric.flat(256, 256)
    sec = bk.holomorphic_g_factory(met, scale=0.9 + 0.2j, offset=0.15 - 0.1j)
    return bk.backlund_transform(Pair.trivial(met), sec)


def test_criterion_01_algebra(capsys):
    rng = np.random.default_rng(20240501)
    n = 1500
    a, b, c = (hat(rng.normal(size=(n, 3))) for _ in range(3))
    lhs = bracket(a, bracket(b, c))
    rhs = b * inner(a, c)[:, None, None] - c * inner(a, b)[:, None, None]
    r1 = np.abs(lhs - rhs).max()
    r2 = np.abs(ell(bracket(a, b)) - bracket(ell(a), ell(b))).max()
    v = rng.normal(size=(n, 3))
    g = hat(v / np.linalg.norm(v, axis=-1, keepdims=True))
    h = ell(2.0 * g)
    r3 = np.abs(h @ h + np.eye(2)).max()
    ok = passes(worst([r1, r2, r3]), 1e-13)
    emit(capsys, 1, "so(3)/su(2) algebra on 1500 samples", ok,
         f"bracket {r1:.2e}, ell-hom {r2:.2e}, (ell 2g)^2+Id {r3:.2e}")


def test_criterion_02_operator_oracle(capsys):
    met = TorusMetric.from_harmonics(
        128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
    )
    conn = bandlimited_connection(met, seed=41)
    # complex grids of the modes -3..3; mu_+ u holds the modes -2..4, mu_- u -4..2
    u, ms = bandlimited_field(met, 3, seed=42), np.arange(-3, 4)
    samples = sample(u, 32)
    xs = frame_apply(met, samples, "X")
    hs = frame_apply(met, samples, "H")
    oracle_p = from_samples((xs - 1j * hs) / 2.0, degree=4)
    oracle_m = from_samples((xs + 1j * hs) / 2.0, degree=4)
    oracle_p[2:] += plane_matmul3(conn.mode(1), u)
    oracle_m[:7] += plane_matmul3(conn.mode(-1), u)
    scale = band_norm(met, u)
    # mu_+ = eta_+ + A_1 and mu_- = eta_- + A_{-1}
    mu_p, mu_m = eta_plus(met, u, ms, conn.mode(1)), eta_minus(met, u, ms, conn.mode(-1))
    rp = band_norm(met, np.concatenate([-oracle_p[:2], mu_p - oracle_p[2:]])) / scale
    rm = band_norm(met, np.concatenate([mu_m - oracle_m[:7], -oracle_m[7:]])) / scale
    v = bandlimited_field(met, 3, seed=43)
    lhs = l2_inner(met, mu_p[:6], v[1:])
    rhs = -l2_inner(met, u[:6], eta_minus(met, v, ms, conn.mode(-1))[1:])
    radj = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    ok = rp < 1e-8 and rm < 1e-8 and radj < 1e-9
    emit(capsys, 2, "mu formulas vs frame oracle at 128^2", ok,
         f"mu+ {rp:.2e}, mu- {rm:.2e}, adjointness {radj:.2e}")


def test_criterion_03_energy_identity(capsys):
    rng = np.random.default_rng(99)
    rel = []
    for trial in range(20):
        amp = float(rng.uniform(0.02, 0.12))
        kx, ky = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        met = TorusMetric.from_harmonics(
            64, 64, 1.0, 1.0,
            [Harmonic(amp, kx, ky, float(rng.uniform(0, 6)), float(rng.uniform(0, 6)))],
        )
        conn = bandlimited_connection(met, seed=1000 + trial)
        m = int(rng.integers(-3, 4))
        u = bandlimited_field(met, 0, seed=2000 + trial)  # one complex grid, mode m
        up, um = eta_plus(met, u, [m], conn.mode(1)), eta_minus(met, u, [m], conn.mode(-1))
        lhs = l2_inner(met, up, up).real
        sf = star_curvature(conn)
        op = plane_matmul3(1j * sf - m * met.gauss * np.eye(3)[:, :, None, None], u)
        rhs = l2_inner(met, um, um).real + 0.5 * l2_inner(met, op, u).real
        rel.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    res = worst(rel)
    emit(capsys, 3, "energy identity on 20 random triples", passes(res, 1e-7),
         f"worst relative residual {res:.2e}")


def test_criterion_04_constant_section_step(capsys, const_chain):
    pair = const_chain.pair_out
    field_res = cc.transport_residual_field(pair)
    tv = cc.triviality_residual(pair, SMPoint(0.23, 0.71, 0.9), 20.0, 1e-3,
                                save_every=50)
    ok = field_res <= 1e-8 and tv.max_residual <= 1e-6
    emit(capsys, 4, "constant-g step at 128^2, T=20", ok,
         f"field residual {field_res:.2e} (<=1e-8), "
         f"ODE residual {tv.max_residual:.2e} (<=1e-6)")


def test_criterion_05_factory_step_with_higgs(capsys, factory_chain):
    pair = factory_chain.pair_out
    met = pair.metric
    phi_max = float(so3_norm(points(pair.higgs.phi)).max())
    field_res = cc.transport_residual_field(pair)
    ctx = cc.TransportContext(pair)
    hol = worst(cc.holonomy_closed(pair, p0, t_closed, 1e-3, context=ctx)
                for p0, t_closed in flat_closed_geodesics(met, 5, seed=2))
    ok = phi_max > 1e-5 and passes(field_res, 1e-6) and passes(hol, 1e-6)
    emit(capsys, 5, "factory step with Higgs at 256^2", ok,
         f"max|Phi| {phi_max:.3g} (>1e-5), field residual {field_res:.2e}, "
         f"holonomy over 5 closed geodesics {hol:.2e}")


def test_criterion_06_holomorphy_route_agreement(capsys, factory_chain):
    met = factory_chain.pair_in.metric
    zero = Connection.zero(met)
    sections = section_family(met, 25, seed=11)
    sections += [random_unit_section(met, seed=300 + i) for i in range(25)]
    disagreements = 0
    n_pass = 0
    factory = []
    for k, sec in enumerate(sections):
        dg = d_A(sec.grid, zero)
        res = bk.holomorphy_residuals(sec, zero, dg, hodge_star(dg))
        verdicts = [passes(v, 1e-5) for v in res.values()]
        if len(set(verdicts)) > 1:
            disagreements += 1
        if all(verdicts):
            n_pass += 1
        if k < 25:
            factory.extend(res.values())
    worst_factory = worst(factory)
    ok = disagreements == 0
    emit(capsys, 6, "four holomorphy routes on 50 sections", ok,
         f"{disagreements} disagreements, {n_pass}/50 sections pass at 1e-5, "
         f"worst factory residual {worst_factory:.2e}")


def test_criterion_07_inverse_round_trip(capsys, const_chain, factory_chain):
    rt, ql = [], []
    for cert in (const_chain, factory_chain):
        ql.extend(q_lemma_residuals(cert).values())
        back = inverse_backlund(cert)
        rt.extend(round_trip_residuals(cert, back).values())
    worst_rt, worst_ql = worst(rt), worst(ql)
    ok = passes(worst_rt, 1e-7) and passes(worst_ql, 1e-8)
    emit(capsys, 7, "inverse transform on both chains", ok,
         f"round trip {worst_rt:.2e} (<=1e-7), q-lemma {worst_ql:.2e} (<=1e-8)")


def test_criterion_08_two_step_doubling(capsys, const_chain):
    met = const_chain.pair_in.metric
    certs = bk.generate_chain(met, [{"kind": "constant", "axis": list(AXIS)},
                                    {"kind": "repeat-q"}]).certs
    c = certs[1].vertical @ certs[0].vertical
    two_g = FourierField.from_grid(met, 2.0 * certs[0].g.grid)
    c_res = (c.transpose() @ vertical(c) - two_g).l2_norm() / two_g.l2_norm()
    final = certs[1].pair_out
    phi_final = final.higgs.norm() / (final.conn.norm() + 1.0)
    parity_mid, parity_out = (fiber_loop_parity(cert.pair_out.trivializer)
                              for cert in certs)
    ok = (
        phi_final <= 1e-8
        and c_res <= 1e-9
        and parity_mid == -1
        and parity_out == 1
    )
    emit(capsys, 8, "two-step doubling lifts to SU(2)", ok,
         f"Phi_q {phi_final:.2e} (<=1e-8), c^-1 V(c)=2g {c_res:.2e}"
         f" (<=1e-9), parities {parity_mid}/{parity_out} (want -1/+1)")


def test_criterion_09_degree_reduction(capsys, factory_chain):
    red = bk.reduce_degree(factory_chain.pair_out)
    top = worst([red.residuals["top-mode-N"], red.residuals["top-mode-N1"]])
    constraint = worst([
        red.residuals["constraint-a1-bN"],
        red.residuals["constraint-a0-bN"],
        red.residuals["constraint-a1-bNm1"],
    ])
    phi_norm = red.pair.higgs.norm()
    field_res = red.residuals["reduced-field"]
    report = cli._verify_report(red.pair, {}, seed=0, geodesic_count=3,
                                t_final=3.0, dt=1e-3)
    ok = (
        passes(top, 1e-8)
        and passes(constraint, 1e-9)
        and passes(phi_norm, 1e-8)
        and passes(field_res, 1e-7)
        and report["pass"]
    )
    emit(capsys, 9, "degree reduction of the factory trivializer", ok,
         f"leftover top modes {top:.2e} (<=1e-8), constraints {constraint:.2e} "
         f"(<=1e-9), Phi' {phi_norm:.2e} (<=1e-8), field residual {field_res:.2e} "
         f"(<=1e-7), verify suite pass={report['pass']}")


def test_criterion_10_gauge_invariance(capsys, const_chain):
    pair = const_chain.pair_out
    met = pair.metric
    rng = np.random.default_rng(7)
    xg, yg = grid_coords(met.nx, met.ny, met.lx, met.ly)
    w = np.zeros((met.ny, met.nx, 3))
    for c in range(3):
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                amp = 0.4 * rng.normal() / (1.0 + kx * kx + ky * ky)
                w[..., c] += amp * np.cos(
                    2 * np.pi * (kx * xg + ky * yg) + rng.uniform(0, 2 * np.pi)
                )
    gauged = cc.gauge_transform(pair, np.moveaxis(so3_exp(hat(w)), (2, 3), (0, 1)))
    rep0 = cli._verify_report(pair, {}, seed=0, geodesic_count=2,
                              t_final=3.0, dt=1e-3)
    rep1 = cli._verify_report(gauged, {}, seed=0, geodesic_count=2,
                              t_final=3.0, dt=1e-3)
    # the 10x bound is applied with a floor of tol/100 per residual: several
    # residuals sit at rounding level on both sides and a ratio of two
    # rounding-noise values is not meaningful; a gauged residual can only use
    # the floor while it is still 100x below its own pass threshold
    inflation_ok = all(
        rep1["residuals"][k]
        <= 10.0 * rep0["residuals"][k] + rep0["tolerances"][k] / 100.0
        for k in rep0["residuals"]
    )
    margin = max(
        rep1["residuals"][k] / rep0["tolerances"][k] for k in rep0["residuals"]
    )
    ok = rep1["pass"] and inflation_ok
    emit(capsys, 10, "gauge-transformed pair re-verifies", ok,
         f"suite pass={rep1['pass']}, inflation within 10x (tol/100 floor), "
         f"worst gauged residual at {margin:.1e} of its tolerance")


def test_criterion_11_h0_correspondence(capsys, const_chain, factory_chain):
    positive = []
    for cert in (const_chain, factory_chain):
        pair = cert.pair_out
        positive.extend(cc.h0_residuals(pair.trivializer, pair.higgs).values())
    res = worst(positive)
    pair_f = factory_chain.pair_out
    wrong_phi = Higgs(pair_f.metric, 1.6 * pair_f.higgs.phi)
    neg1 = cc.h0_residuals(pair_f.trivializer, wrong_phi)["h0-frame"]
    u_c = const_chain.pair_out.trivializer
    c1 = u_c.mode(1)
    u_bad = FourierField(u_c.metric, {0: u_c.mode(0), 1: c1, 2: 0.3 * c1})
    neg2 = cc.h0_residuals(u_bad)["h0-vertical"]
    ok = passes(res, 1e-7) and neg1 > 1e-3 and neg2 > 1e-3
    emit(capsys, 11, "h0 equations for certified pairs", ok,
         f"worst positive residual {res:.2e} (<=1e-7), negative controls "
         f"{neg1:.2e}/{neg2:.2e} (>1e-3)")


# the chains of perfbench/run.py's three workloads: (n, harmonics, steps)
CURVED = [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]]
CONSTANT = {"kind": "constant", "axis": [0.6, -0.48, 0.64]}
ELLIPTIC = {"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]}
REPEAT = {"kind": "repeat-q"}
BENCH_CHAINS = {
    "flat-elliptic": (48, [], [ELLIPTIC, REPEAT]),
    "curved-transport": (48, CURVED, [CONSTANT, REPEAT]),
    "deep-chain": (32, CURVED, [CONSTANT] + [REPEAT] * 5),
}


def test_h0_vee_triples_match_the_3x3_reference(const_chain, factory_chain):
    """The H0 rows on vee triples agree with the 3x3 route (oracles) within
    1e-13 + 1e-6 |reference| on the three bench chains and criterion 11's
    two, each with its own Phi, Phi scaled by 1.6 and by 1 + 1e-4, and no
    Phi.  On criterion 11's non-orthogonal control the routes differ by
    design (the triples drop the symmetric part of u^T V(u)): there both
    flag the h0-vertical row, and the structure row's orthogonality term
    fails u_bad as well."""
    pairs = [bk.generate_chain(TorusMetric.from_harmonics(n, n, 1.0, 1.0, h), steps).final
             for n, h, steps in BENCH_CHAINS.values()]
    pairs += [const_chain.pair_out, factory_chain.pair_out]
    for pair in pairs:
        met, phi = pair.metric, pair.higgs.phi
        for higgs in (pair.higgs, Higgs(met, 1.6 * phi), Higgs(met, (1 + 1e-4) * phi), None):
            got = cc.h0_residuals(pair.trivializer, higgs)
            ref = h0_residuals_3x3(pair.trivializer, higgs)
            assert got.keys() == ref.keys()
            for k in ref:
                assert abs(got[k] - ref[k]) <= 1e-13 + 1e-6 * abs(ref[k]), (k, got[k], ref[k])
    u_c = const_chain.pair_out.trivializer
    c1 = u_c.mode(1)
    u_bad = FourierField(u_c.metric, {0: u_c.mode(0), 1: c1, 2: 0.3 * c1})
    assert cc.h0_residuals(u_bad)["h0-vertical"] > 1e-3
    assert h0_residuals_3x3(u_bad)["h0-vertical"] > 1e-3
    assert u_bad.orthogonality_residual() > 1e-9


def test_criterion_12_perturbation_controls(capsys, const_chain, factory_chain):
    def failing_tags(pair):
        rows = cc.mode_residuals(pair)
        return [k for k, v in rows.items() if not passes(v, cli.DEFAULT_TOLS[k])]

    pair_c = const_chain.pair_out
    pair_f = factory_chain.pair_out
    perturbed = {
        # connection: scale the sin-theta coefficient grid (modes +-1) by 1%
        "connection": Pair(
            Connection(pair_c.metric, pair_c.conn.a, 1.01 * pair_c.conn.b),
            pair_c.higgs, trivializer=pair_c.trivializer,
        ),
        # Higgs field: scale the mode-0 coefficient by 1%
        "higgs": Pair(
            pair_f.conn, Higgs(pair_f.metric, 1.01 * pair_f.higgs.phi),
            trivializer=pair_f.trivializer,
        ),
        # trivializer: scale the +-1 fiber modes by 1%
        "trivializer": Pair(
            pair_c.conn, pair_c.higgs,
            trivializer=FourierField(
                pair_c.metric,
                {
                    0: pair_c.trivializer.mode(0),
                    1: 1.01 * pair_c.trivializer.mode(1),
                },
            ),
        ),
    }
    details = []
    ok = True
    for name, bad in perturbed.items():
        tags = failing_tags(bad)
        details.append(f"{name}->{','.join(tags) if tags else 'NONE'}")
        if not tags:
            ok = False
    emit(capsys, 12, "1% single-mode perturbations are caught", ok,
         "; ".join(details))
