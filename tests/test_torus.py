import sys

import numpy as np
import pytest

from cocyclelab.cocycle import transport
from cocyclelab.errors import NonSmoothLambda, StepTooLarge
from cocyclelab.smfield import Pair
from cocyclelab.torus import (
    FIRST_SLOPES,
    Harmonic,
    SMPoint,
    TorusMetric,
    _compile_geodesic_loop,
    flat_closed_geodesics,
    grid_coords,
    integrate_geodesic,
    _eval_harmonics,
    _harmonic_table,
    torus_distance,
)
from oracles import (float_loop_geodesic, frame_apply, lambda_and_grad_at,
                     spectral_lambda_derivatives, unit_speed_residual)


def curved_metric(n=64, amp=0.1):
    return TorusMetric.from_harmonics(n, n, 1.0, 1.0, [Harmonic(amp, 1, 0)])


def test_gauss_curvature_analytic():
    """K = -e^{-2 lam} (lam_xx + lam_yy); for lam = a cos(2 pi x / Lx) this is
    e^{-2 lam} (2 pi / Lx)^2 a cos(2 pi x / Lx)."""
    met = curved_metric(128)
    xg, _ = grid_coords(128, 128, 1.0, 1.0)
    lam = 0.1 * np.cos(2 * np.pi * xg)
    expected = np.exp(-2 * lam) * (2 * np.pi) ** 2 * lam
    assert np.abs(met.gauss - expected).max() < 1e-9


def test_lambda_derivatives_match_spectral_oracle():
    """lam_x, lam_y and gauss from the harmonic series equal the spectral
    derivatives of the sampled lambda, with lx != ly, a constant harmonic and
    a harmonic mixed in x and y."""
    met = TorusMetric.from_harmonics(
        64, 48, 1.0, 1.5, [Harmonic(0.2), Harmonic(0.08, 1, 0), Harmonic(0.04, 1, 2, 0.5, 1.2)]
    )
    for got, ref in zip((met.lam_x, met.lam_y, met.gauss), spectral_lambda_derivatives(met)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_gauss_zero_on_flat():
    met = TorusMetric.flat(32, 48, 2.0, 1.0)
    assert np.abs(met.gauss).max() < 1e-14


def test_area_is_conformal_volume():
    met = curved_metric(96)
    expected = np.exp(2 * met.lam).mean() * 1.0
    assert abs(met.e_2lam.mean() * met.lx * met.ly - expected) < 1e-14


def test_frame_brackets():
    """[V, X] = H, [H, V] = X and [X, H] = K V on a band-limited sample."""
    met = TorusMetric.from_harmonics(
        128, 128, 1.0, 1.0, [Harmonic(0.1, 1, 0), Harmonic(0.05, 0, 1, 0.7, 0.2)]
    )
    ntheta = 16
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    xg, yg = grid_coords(128, 128, 1.0, 1.0)
    f = (
        np.cos(theta)[:, None, None] * np.cos(2 * np.pi * xg)[None]
        + np.sin(2 * theta)[:, None, None] * np.sin(2 * np.pi * yg)[None]
        + 0.3
    )
    scale = np.abs(f).max()

    def brk(op1, op2):
        return frame_apply(met, frame_apply(met, f, op2), op1) - frame_apply(
            met, frame_apply(met, f, op1), op2
        )

    h = frame_apply(met, f, "H")
    x = frame_apply(met, f, "X")
    v = frame_apply(met, f, "V")
    assert np.abs(brk("V", "X") - h).max() / scale < 1e-7
    assert np.abs(brk("H", "V") - x).max() / scale < 1e-7
    assert np.abs(brk("X", "H") - met.gauss[None] * v).max() / scale < 1e-7


def test_nonsmooth_lambda_rejected():
    with pytest.raises(NonSmoothLambda):  # kx = 16 is the Nyquist frequency of 32
        TorusMetric.from_harmonics(32, 32, 1, 1, [Harmonic(0.05, 16, 0)])


@pytest.mark.parametrize("kx, ky", [(33, 0), (0, -17), (-16, 3)])
def test_unresolved_wavenumber_rejected(kx, ky):
    """A wavenumber the 32^2 grid aliases (33 reads as 1 and -17 as 15 on its
    samples) or puts at Nyquist is refused before sampling, by name."""
    with pytest.raises(NonSmoothLambda, match=rf"harmonic 1 wavenumber \({kx}, {ky}\)"):
        TorusMetric.from_harmonics(32, 32, 1, 1, [Harmonic(0.02, 1, 0), Harmonic(0.05, kx, ky)])


def test_highest_resolved_wavenumber_accepted():
    met = TorusMetric.from_harmonics(32, 32, 1, 1, [Harmonic(0.05, 15, -15)])
    assert met.harmonics[0].kx == 15


def test_min_grid_size():
    with pytest.raises(ValueError):
        TorusMetric.flat(8, 32)


def test_flat_geodesics_are_straight_lines():
    met = TorusMetric.flat(32, 32)
    p0 = SMPoint(0.3, 0.8, 1.1)
    path = integrate_geodesic(met, p0, 2.0, 1e-3)
    end = path.endpoint()
    assert abs(end.x - (0.3 + 2.0 * np.cos(1.1))) < 1e-12
    assert abs(end.y - (0.8 + 2.0 * np.sin(1.1))) < 1e-12
    assert abs(end.theta - 1.1) < 1e-14


def reference_geodesic(metric, p0, t_final, dt):
    """Classical RK4 on numpy calls, one lambda_and_grad_at per stage: the
    loop that integrate_geodesic's float loops replaced."""

    def rhs(x, y, theta):
        lam, lam_x, lam_y = lambda_and_grad_at(metric, x, y)
        e = np.exp(-lam)
        c, s = np.cos(theta), np.sin(theta)
        return e * c, e * s, e * (-lam_x * s + lam_y * c)

    nsteps = max(1, int(round(abs(t_final) / dt)))
    h = t_final / nsteps
    x, y, th = np.array([p0.x]), np.array([p0.y]), np.array([p0.theta])
    out = [np.concatenate([x, y, th])]
    for _ in range(nsteps):
        ax1, ay1, at1 = rhs(x, y, th)
        ax2, ay2, at2 = rhs(x + 0.5 * h * ax1, y + 0.5 * h * ay1, th + 0.5 * h * at1)
        ax3, ay3, at3 = rhs(x + 0.5 * h * ax2, y + 0.5 * h * ay2, th + 0.5 * h * at2)
        ax4, ay4, at4 = rhs(x + h * ax3, y + h * ay3, th + h * at3)
        x = x + h / 6.0 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
        y = y + h / 6.0 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
        th = th + h / 6.0 * (at1 + 2.0 * at2 + 2.0 * at3 + at4)
        out.append(np.concatenate([x, y, th]))
    return np.array(out)


@pytest.mark.parametrize("kind, t_final", [("curved", 2.0), ("flat", 2.0)])
def test_float_loop_matches_numpy_reference(kind, t_final):
    metric = {
        "curved": TorusMetric.from_harmonics(
            48, 48, 1.0, 1.5, [Harmonic(0.1, 1, 0), Harmonic(0.04, 1, 1, 0.5, 1.2)]
        ),
        "flat": TorusMetric.flat(32, 32, 1.0, 1.5),
    }[kind]
    p0 = SMPoint(0.3, 1.1, 2.2)
    path = integrate_geodesic(metric, p0, t_final, 1e-3)
    ref = reference_geodesic(metric, p0, t_final, 1e-3)
    got = np.stack([path.xs, path.ys, path.thetas], axis=-1)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14


BENCH_METRIC = TorusMetric.from_harmonics(48, 48, 1.0, 1.0, [(0.1, 1, 0), (0.04, 1, 1, 0.5, 1.2)])
BITWISE_CASES = {
    "bench": (BENCH_METRIC, SMPoint(0.3, 0.7, 1.1), 2.0),
    "flat": (TorusMetric.flat(32, 32), SMPoint(-0.25, 0.8, -0.0), 2.0),
    "x-only": (TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.07, 2, 0, 0.3)]),
               SMPoint(0.1, 0.2, 0.4), 2.0),
    "y-only": (TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.05, 0, -3, 0.0, 0.7)]),
               SMPoint(0.1, 0.2, 1.3), 2.0),
    "constant": (TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.2, 0, 0, 0.4, 0.9)]),
                 SMPoint(0.5, 0.5, 2.0), 2.0),
    "lx-ne-ly": (TorusMetric.from_harmonics(32, 48, 1.0, 1.5, [Harmonic(0.1, 1, 0),
                                                               Harmonic(0.04, -1, 2, 0.5, 1.2)]),
                 SMPoint(0.3, 1.1, 2.2), 2.0),
    "negative-t": (BENCH_METRIC, SMPoint(0.3, 0.7, 1.1), -2.3),
    "phase-minus-zero": (TorusMetric.from_harmonics(32, 32, 1.0, 1.0,
                                                    [Harmonic(0.1, 1, 0, -0.0),
                                                     Harmonic(0.03, 0, 1, 0.0, -0.0)]),
                         SMPoint(-0.0, 0.0, -0.0), 1.0),
    "numpy-floats": (TorusMetric.from_harmonics(
        32, 32, np.float64(1.2), np.float64(0.9),
        [Harmonic(np.float64(0.08), 1, 1, np.float64(0.2), np.float64(-0.4))]),
        SMPoint(np.float64(0.2), np.float64(0.3), np.float64(0.5)), 2.0),
}


@pytest.mark.parametrize("case", sorted(BITWISE_CASES))
def test_generated_loop_matches_float_loop(case):
    """The generated loop reproduces the float loop it replaced to the bit,
    the sign of every zero included."""
    metric, p0, t_final = BITWISE_CASES[case]
    path = integrate_geodesic(metric, p0, t_final, 1e-3)
    ref = float_loop_geodesic(metric, p0, t_final, 1e-3)
    for got, want in zip((path.xs, path.ys, path.thetas, path.times), ref):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_geodesic_python_calls_do_not_grow_with_steps():
    """The steps run inside one generated function, so the Python-level calls
    of integrate_geodesic do not depend on the step count (the float loop
    made eight per step: four rhs and four series calls)."""
    met = curved_metric(32)
    p0 = SMPoint(0.2, 0.4, 0.6)
    integrate_geodesic(met, p0, 0.1, 1e-3)  # compiles the metric's loop

    def calls(nsteps):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            integrate_geodesic(met, p0, nsteps * 1e-3, 1e-3)
        finally:
            sys.setprofile(None)
        return count

    assert calls(400) <= calls(200)


def test_geodesic_loop_is_compiled_once_per_metric():
    met = curved_metric(32)
    assert met._geodesic_loop is met._geodesic_loop
    assert curved_metric(32)._geodesic_loop is not met._geodesic_loop


def test_geodesic_loop_refuses_non_finite_series():
    with pytest.raises(ValueError, match="not finite"):
        _compile_geodesic_loop(((0.1, np.inf, 0.0, 0.0, 0.0),))


@pytest.mark.parametrize("p0, t_final, dt", [
    (SMPoint(np.nan, 0.0, 0.0), 1.0, 1e-3),
    (SMPoint(0.0, np.inf, 0.0), 1.0, 1e-3),
    (SMPoint(0.0, 0.0, -np.inf), 1.0, 1e-3),
    (SMPoint(0.0, 0.0, 0.0), np.nan, 1e-3),
    (SMPoint(0.0, 0.0, 0.0), np.inf, 1e-3),
    (SMPoint(0.0, 0.0, 0.0), 0.0, 1e-3),
    (SMPoint(0.0, 0.0, 0.0), 1.0, np.nan),
    (SMPoint(0.0, 0.0, 0.0), 1.0, 0.0),
])
def test_geodesic_rejects_bad_arguments(p0, t_final, dt):
    with pytest.raises(ValueError):
        integrate_geodesic(curved_metric(32), p0, t_final, dt)


def test_geodesic_lands_exactly_on_t_final():
    met = TorusMetric.flat(32, 32)
    path = integrate_geodesic(met, SMPoint(0, 0, 0.5), 1.0, dt=3e-3)
    assert path.times[-1] == pytest.approx(1.0, abs=0)


def test_geodesic_momentum_conservation():
    """For lam = lam(x) the quantity e^{lam} sin(theta) is conserved
    (y-translation invariance)."""
    met = curved_metric(64)
    path = integrate_geodesic(met, SMPoint(0.2, 0.1, 0.9), 8.0, 1e-3)
    lam = 0.1 * np.cos(2 * np.pi * path.xs)
    p_y = np.exp(lam) * np.sin(path.thetas)
    assert np.abs(p_y - p_y[0]).max() < 1e-10


def test_geodesic_unit_speed():
    met = curved_metric(64)
    path = integrate_geodesic(met, SMPoint(0.4, 0.7, 2.3), 5.0, 1e-3)
    assert unit_speed_residual(path) < 1e-5


def test_geodesic_fourth_order():
    met = curved_metric(64)
    p0 = SMPoint(0.15, 0.55, 0.77)
    ref = integrate_geodesic(met, p0, 3.0, 1e-4).endpoint()

    def err(dt):
        e = integrate_geodesic(met, p0, 3.0, dt).endpoint()
        return np.hypot(e.x - ref.x, e.y - ref.y) + abs(e.theta - ref.theta)

    ratio = err(8e-3) / err(4e-3)
    assert 12.0 < ratio < 20.0


def test_geodesic_reversibility():
    met = curved_metric(64)
    p0 = SMPoint(0.31, 0.62, 1.41)
    fwd = integrate_geodesic(met, p0, 4.0, 1e-3).endpoint()
    back = integrate_geodesic(met, fwd, -4.0, 1e-3).endpoint()
    assert abs(back.x - p0.x) < 1e-9
    assert abs(back.y - p0.y) < 1e-9
    assert abs(back.theta - p0.theta) < 1e-9


def test_step_too_large():
    met = curved_metric(64)
    with pytest.raises(StepTooLarge):
        integrate_geodesic(met, SMPoint(0, 0, 0), 1.0, dt=0.5)
    # bad input, and transport names the half step it gives the geodesic
    assert issubclass(StepTooLarge, ValueError)
    with pytest.raises(StepTooLarge, match=r"geodesic step 0\.25 .*half of the cocycle step 0\.5"):
        transport(Pair.trivial(met), SMPoint(0, 0, 0), 1.0, dt=0.5)


def test_geodesic_checks_the_step_taken():
    """0.025 at dt 0.01 takes 2 steps of 0.0125, above 1e-2 * min(Lx, Ly)."""
    met = TorusMetric.flat(32, 32)
    with pytest.raises(StepTooLarge, match=r"geodesic step 0\.0125 exceeds"):
        integrate_geodesic(met, SMPoint(0, 0, 0), 0.025, 0.01)
    assert len(integrate_geodesic(met, SMPoint(0, 0, 0), 0.02, 0.01).times) == 3


def test_flat_closed_geodesics_close():
    met = TorusMetric.flat(32, 32, 1.0, 2.0)
    for p0, t_close in flat_closed_geodesics(met, 6, seed=3):
        end = integrate_geodesic(met, p0, t_close, 1e-3).endpoint()
        assert torus_distance(met, end, p0) < 1e-10


def test_flat_closed_geodesics_count_and_slopes():
    """count is honoured; the ten first slopes come first; every slope is
    primitive and no direction appears twice, up to sign."""
    lx, ly = 1.0, 2.0
    met = TorusMetric.flat(32, 32, lx, ly)
    first = flat_closed_geodesics(met, 10, seed=3)
    for count in (3, 10, 40):
        got = flat_closed_geodesics(met, count, seed=3)
        assert len(got) == count
        assert got[: min(count, 10)] == first[:count]
        slopes = []
        for p0, t in got:
            p, q = t * np.cos(p0.theta) / lx, t * np.sin(p0.theta) / ly
            slopes.append((round(p), round(q)))
            assert abs(p - round(p)) < 1e-12 and abs(q - round(q)) < 1e-12
        assert slopes[: min(count, 10)] == list(FIRST_SLOPES[:count])
        assert all(np.gcd(p, q) == 1 for p, q in slopes)
        assert len({(p, q) for p, q in slopes} | {(-p, -q) for p, q in slopes}) == 2 * count
        lengths = [t for _, t in got[10:]]
        assert lengths == sorted(lengths)


def test_flat_closed_geodesics_needs_flat():
    with pytest.raises(ValueError):
        flat_closed_geodesics(curved_metric(), 2)


def test_lambda_and_grad_exact_trig():
    met = curved_metric(64)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 1, 50)
    ys = rng.uniform(0, 1, 50)
    lam, lx, ly = lambda_and_grad_at(met, xs, ys)
    assert np.abs(lam - 0.1 * np.cos(2 * np.pi * xs)).max() < 1e-14
    assert np.abs(lx + 0.1 * 2 * np.pi * np.sin(2 * np.pi * xs)).max() < 1e-14
    assert np.abs(ly).max() < 1e-14


def test_many_harmonics_use_the_exact_series():
    """However many harmonics a metric has, lambda and its gradient off the
    grid are its trigonometric series."""
    harmonics = [Harmonic(0.02, kx, ky, 0.1 * kx, 0.3 * ky)
                 for kx in range(3) for ky in range(3)]
    met = TorusMetric.from_harmonics(48, 48, 1.0, 1.5, harmonics)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 2, 1000)
    ys = rng.uniform(-1, 2, 1000)
    got = lambda_and_grad_at(met, xs, ys)
    ref = _eval_harmonics(_harmonic_table(met.harmonics, 1.0, 1.5), xs, ys)
    for u, v in zip(got, ref):
        assert np.abs(u - v).max() <= 1e-14


def test_torus_distance_wraps():
    met = TorusMetric.flat(32, 32)
    p = SMPoint(0.01, 0.99, 0.1)
    q = SMPoint(0.99, 0.01, 0.1 + 2 * np.pi)
    assert torus_distance(met, p, q) < 0.03
