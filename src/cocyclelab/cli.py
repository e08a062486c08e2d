"""Batch front end: generate transform chains, verify pairs, transport
cocycles, reduce trivializer degree, export heatmaps.

Each verb loads, computes and writes; main alone turns its outcome into the
exit code: 0 success, 1 a failed check (any CocycleLabError, stderr
"<verb> failed: <Error>: msg", or a verify residual that fails) or a
standard output closed by its reader, 2 bad input or configuration (stderr
"input error: msg").  All outputs are deterministic for a fixed config and
seed.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import backlund as bk
from . import cocycle as cc
from . import fieldio as fio
from .errors import CocycleLabError, check_keys, json_int, json_number, passes, worst
from .lie3 import hat
from .smfield import Pair, _matmul3, eta_minus, eta_plus, l2_inner, star_curvature
from .torus import MAX_STEPS, SMPoint, TorusMetric, flat_closed_geodesics, step_count

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADINPUT = 2

DEFAULT_TOLS = {
    "structure": fio.STRUCTURE_TOL,
    "transport": 1e-6,
    "recurrence": 1e-6,
    "energy": 1e-6,
    "h0-frame": 1e-6,
    "h0-vertical": 1e-6,
    "cocycle": 1e-5,
    "holonomy": 1e-5,
}

# the keys of a generate config, of its metric and of its tolerances
CONFIG_KEYS = ("metric", "chain", "tolerances", "outdir")
METRIC_KEYS = ("nx", "ny", "lx", "ly", "harmonics")
GENERATE_TOLS = ("cert", "gmero")

# glibc's mallopt parameters and the values main fixes them at.  Each product
# and eta call allocates and frees a (K + 1) x 9 x n^2 complex band; left to
# its dynamic thresholds, glibc trims such freed pages off the heap and the
# next band faults them in again (about 30k minor faults a flat 48^2
# generate/verify/reduce).  32 MiB is the ceiling of glibc's own dynamic mmap
# threshold on 64-bit, and 64 MiB twice that, the trim threshold its dynamic
# rule pairs with it.  Both are fixed, since fixing either one switches off
# the dynamic adjustment of the other.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES = 64 << 20
MMAP_THRESHOLD_BYTES = 32 << 20


def _metric_from_config(doc: dict) -> TorusMetric:
    m = doc.get("metric", {})
    if not isinstance(m, dict):
        raise ValueError("metric must be a JSON object")
    check_keys(m, METRIC_KEYS, "metric")
    nx, ny = (json_int(m.get(k, 128), f"metric {k}") for k in ("nx", "ny"))
    lx, ly = (json_number(m.get(k, 1.0), f"metric {k}") for k in ("lx", "ly"))
    harmonics = m.get("harmonics", [])
    return TorusMetric.from_harmonics(nx, ny, lx, ly, harmonics)


def _load_config(path: str) -> dict:
    doc = fio.load_json(path)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    return doc


def _tolerances(doc, allowed) -> dict:
    """Tolerance overrides as floats, each named in allowed and each a
    positive, finite JSON number (json_number); anything else is bad input
    that names the key.  An infinite tolerance (a literal such as 1e999)
    would pass every finite residual, and one at or below 0 would fail every
    nonzero one."""
    if not isinstance(doc, dict):
        raise ValueError("tolerances must be a JSON object")
    check_keys(doc, allowed, "tolerances")
    tols = {k: json_number(v, f"tolerance for {k}") for k, v in doc.items()}
    for k, v in tols.items():
        if v <= 0:
            raise ValueError(f"tolerance for {k} must be positive, got {doc[k]!r}")
    return tols


def _check_run_args(args) -> None:
    """Reject the arguments of verify that argparse accepts but no run checks:
    a geodesic count below 1 or above MAX_STEPS (each run takes a step at
    least), a negative seed, and a zero or non-finite --t-final, which no run
    uses on a flat metric.  --dt is checked on the step of each run and on
    their total (step_count, in _verify_report)."""
    for name, least in (("geodesics", 1), ("seed", 0)):
        if getattr(args, name) < least:
            raise ValueError(f"--{name} must be at least {least}, got {getattr(args, name)}")
    if args.geodesics > MAX_STEPS:
        raise ValueError(f"--geodesics {args.geodesics} exceeds MAX_STEPS = {MAX_STEPS}")
    if not (math.isfinite(args.t_final) and args.t_final != 0):
        raise ValueError("--t-final must be nonzero and finite")


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    check_keys(config, CONFIG_KEYS, "the config")
    metric = _metric_from_config(config)
    tols = _tolerances(config.get("tolerances", {}), GENERATE_TOLS)
    outdir = Path(args.outdir or config.get("outdir", "."))
    # every step's gates run before anything is written
    chain = bk.generate_chain(
        metric,
        config.get("chain", []),
        cert_tol=tols.get("cert", bk.DEFAULT_CERT_TOL),
        gmero_tol=tols.get("gmero", bk.DEFAULT_GMERO_TOL),
    )
    outdir.mkdir(parents=True, exist_ok=True)
    final = chain.final if chain.certs else Pair.trivial(metric)
    hashes = {}
    hashes["pair.json"] = fio.save_pair(outdir / "pair.json", final)
    hashes["trivializer.json"] = fio.save_field(
        outdir / "trivializer.json", final.trivializer
    )
    certs_doc = {
        "steps": [
            {"step": k, "meta": c.g.meta, "residuals": c.residuals}
            for k, c in enumerate(chain.certs)
        ],
        "hashes": hashes,
    }
    fio.save_json(outdir / "certificates.json", certs_doc)
    gated = worst(c.residuals[k] for c in chain.certs for k in bk.GATED_RESIDUALS)
    print(f"wrote {outdir}/pair.json trivializer.json certificates.json "
          f"(chain length {len(chain.certs)}, worst residual {gated:.3e})")
    return EXIT_OK


def _energy_residuals(pair: Pair, count: int, seed: int) -> float:
    """Energy identity on random single-mode complex grids u of mode m:
    ||mu_+ u||^2 = ||mu_- u||^2 + (1/2) <(i *F - m K) u, u>."""
    met = pair.metric
    rng = np.random.default_rng(seed)
    sf = hat(star_curvature(pair.conn), axis=-3)
    shape = (met.ny, met.nx, 3, 3)
    ky, kx = (np.fft.fftfreq(n, 1.0 / n) for n in (met.ny, met.nx))
    mask = ((-6 <= ky) & (ky < 6))[:, None] & ((-6 <= kx) & (kx < 6))
    a1, am1, isf = pair.conn.mode(1), pair.conn.mode(-1), 1j * sf
    rel = []
    for _ in range(count):
        m = int(rng.integers(-3, 4))
        # drawn point by point, nine entries a point (the order a seed fixes),
        # then viewed matrix-first
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # keep the sample band-limited (wavenumbers -6..5) so mode calculus is
        # exact; the FFTs keep the point-first memory order, so copy it matrix-first
        u = np.ascontiguousarray(np.fft.ifft2(np.fft.fft2(np.moveaxis(h, (2, 3), (0, 1))) * mask))
        u = u[None]
        up = eta_plus(met, u, [m], a1)  # mu_plus
        um = eta_minus(met, u, [m], am1)  # mu_minus
        lhs = l2_inner(met, up, up).real
        rhs = l2_inner(met, um, um).real
        op = _matmul3(isf - m * met.gauss * np.eye(3)[:, :, None, None], u)
        rhs += 0.5 * l2_inner(met, op, u).real
        scale = max(abs(lhs), abs(rhs), 1e-300)
        rel.append(abs(lhs - rhs) / scale)
    return worst(rel)


def _geodesic_runs(met: TorusMetric, seed: int, count: int, t_final: float) -> list:
    """verify's ODE runs (p0, T): count closed geodesics on a flat metric, each
    for its length, else count starts of the seed + 1 generator for t_final."""
    if met.is_flat:
        return flat_closed_geodesics(met, count, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return [(SMPoint(rng.uniform(0, met.lx), rng.uniform(0, met.ly), rng.uniform(0, 2 * np.pi)),
             t_final) for _ in range(count)]


def _verify_report(pair: Pair, tols: dict, seed: int, geodesic_count: int,
                   t_final: float, dt: float) -> dict:
    met = pair.metric
    # N runs take at least N times the steps of the shortest, a bound refused
    # before the runs are listed: a curved run takes t_final, and the closed
    # geodesics begin with the slopes (1, 0) and (0, 1), of lengths Lx and
    # Ly, and none is shorter than both
    if not met.is_flat:
        shortest = t_final
    else:
        shortest = met.lx if geodesic_count == 1 else min(met.lx, met.ly)
    least = geodesic_count * step_count(met, shortest, dt, cocycle=True)
    if least > MAX_STEPS:
        raise ValueError(f"the {geodesic_count} geodesic runs take at least {least:.3g} cocycle "
                         f"steps in total, which exceeds MAX_STEPS = {MAX_STEPS}")
    runs = _geodesic_runs(met, seed, geodesic_count, t_final)
    # every run's step is refused as transport would refuse it, and so is a
    # total beyond what one run may take, before any computation
    total = sum(step_count(met, t_run, dt, cocycle=True) for _, t_run in runs)
    if total > MAX_STEPS:
        raise ValueError(f"the {len(runs)} geodesic runs take {total:.3g} cocycle steps in "
                         f"total, which exceeds MAX_STEPS = {MAX_STEPS}")
    residuals = cc.mode_residuals(pair)
    residuals["energy"] = float(_energy_residuals(pair, 8, seed))
    ctx = cc.TransportContext(pair)
    errors = {}
    tag = "holonomy" if met.is_flat else "cocycle"
    try:
        residuals[tag] = worst(
            cc.holonomy_closed(pair, p0, t_run, dt, context=ctx) if met.is_flat
            else cc.triviality_residual(pair, p0, t_run, dt, context=ctx).max_residual
            for p0, t_run in runs)
    except CocycleLabError as exc:
        # e.g. orthogonality drift blowing past its bound on a broken pair;
        # report it as a failure instead of crashing the run
        errors[tag] = f"{type(exc).__name__}: {exc}"
    merged = {**DEFAULT_TOLS, **tols}
    failures = [k for k, v in residuals.items() if not passes(v, merged[k])]
    failures += sorted(errors)
    return {
        "residuals": residuals,
        "tolerances": {k: merged[k] for k in residuals},
        "errors": errors,
        "failures": failures,
        "pass": not failures,
    }


def cmd_verify(args) -> int:
    _check_run_args(args)
    pair = fio.load_pair(args.pair, trivializer_path=args.trivializer)
    # a tolerance for the ODE row this metric does not compute would go unused
    unused = "cocycle" if pair.metric.is_flat else "holonomy"
    rows = [k for k in DEFAULT_TOLS if k != unused]
    tols = _tolerances(_load_config(args.tolerances), rows) if args.tolerances else {}
    report = _verify_report(
        pair, tols, seed=args.seed, geodesic_count=args.geodesics,
        t_final=args.t_final, dt=args.dt,
    )
    for k in sorted(report["residuals"]):
        status = "FAIL" if k in report["failures"] else "PASS"
        print(f"{k:12s} {report['residuals'][k]:12.4e}  "
              f"(tol {report['tolerances'][k]:.1e})  {status}")
    for k in sorted(report["errors"]):
        print(f"{k:12s} {'n/a':>12s}  ({report['errors'][k]})  FAIL")
    if args.report:
        fio.save_json(args.report, report)
    if report["pass"]:
        print("all identities verified")
        return EXIT_OK
    print("failed: " + ", ".join(report["failures"]), file=sys.stderr)
    return EXIT_FAIL


def cmd_transport(args) -> int:
    pair = fio.load_pair(args.pair)
    p0 = SMPoint(args.x, args.y, args.theta)
    result = cc.transport(pair, p0, args.t_final, args.dt, save_every=args.save_every)
    fio.write_transport_csv(args.out, result)
    print(f"wrote {args.out} ({len(result.times)} samples, "
          f"final drift {result.drift[-1]:.3e})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    pair = fio.load_pair(args.pair, trivializer_path=args.trivializer)
    red = bk.reduce_degree(pair)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fio.save_field(outdir / "g.json", red.g.field(), so3=True)
    fio.save_field(outdir / "trivializer_reduced.json", red.pair.trivializer)
    fio.save_pair(outdir / "pair_reduced.json", red.pair)
    fio.save_json(outdir / "reduction_report.json", {"residuals": red.residuals})
    print(f"reduced degree {pair.trivializer.degree} -> {red.pair.trivializer.degree}, "
          f"field residual {red.residuals['reduced-field']:.3e}")
    return EXIT_OK


def cmd_export(args) -> int:
    doc = fio.load_json(args.field)
    field = (fio.field_from_json(doc) if "modes" in doc
             else fio.pair_from_json(doc).higgs.as_field())
    image = fio.heatmap_from_field(field, args.selector)
    lo, hi = fio.write_pgm(args.out, image, bits=args.bits)
    print(f"wrote {args.out} (range [{lo:.6g}, {hi:.6g}])")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Construct and certify cohomologically trivial SO(3) pairs "
        "on the unit tangent bundle of a 2-torus.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run a transform chain from a config file")
    g.add_argument("config")
    g.add_argument("--outdir", default=None)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="run the residual suite on a stored pair")
    v.add_argument("pair")
    v.add_argument("trivializer")
    v.add_argument("--tolerances", default=None, help="JSON file overriding tolerances")
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--geodesics", type=int, default=3)
    v.add_argument("--t-final", type=float, default=3.0)
    v.add_argument("--dt", type=float, default=1e-3)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("transport", help="transport the cocycle along one geodesic")
    t.add_argument("pair")
    t.add_argument("--x", type=float, required=True)
    t.add_argument("--y", type=float, required=True)
    t.add_argument("--theta", type=float, required=True)
    t.add_argument("--t-final", type=float, required=True)
    t.add_argument("--dt", type=float, default=1e-3)
    t.add_argument("--save-every", type=int, default=10)
    t.add_argument("--out", default="transport.csv")
    t.set_defaults(func=cmd_transport)

    r = sub.add_parser("reduce", help="lower the trivializer fiber degree by one")
    r.add_argument("pair")
    r.add_argument("trivializer")
    r.add_argument("--outdir", default=".")
    r.set_defaults(func=cmd_reduce)

    e = sub.add_parser("export", help="render a stored field as a PGM heatmap")
    e.add_argument("field")
    e.add_argument("--selector", default="norm",
                   help="'norm' or 'm,i,j,part' with part in re/im/abs")
    e.add_argument("--bits", type=int, default=8, choices=(8, 16))
    e.add_argument("--out", default="field.pgm")
    e.set_defaults(func=cmd_export)
    return p


def _discard_stdout() -> None:
    """Point the file descriptor under sys.stdout at the null device, so the
    flush at interpreter exit does not hit the closed pipe again.  Streams
    without a descriptor (StringIO) are left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _fix_heap_thresholds() -> None:
    """Fix glibc's trim and mmap thresholds (see MMAP_THRESHOLD_BYTES); best
    effort, so a libc without mallopt, or none to load, is left as it is."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    """Run one verb and map its outcome to the exit code.  This is the only
    place an exception becomes an exit code: a CocycleLabError is a failed
    check (1), and so is a standard output closed by its reader (a
    BrokenPipeError, reported silently: stderr may be that pipe too); the
    built-in errors that the loaders, the argument checks and the writers
    raise are bad input (2).  glibc's heap thresholds are fixed first
    (_fix_heap_thresholds)."""
    _fix_heap_thresholds()
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except CocycleLabError as exc:
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_FAIL
    except (ValueError, KeyError, OSError, TypeError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BADINPUT


if __name__ == "__main__":
    sys.exit(main())
