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
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import backlund as bk
from . import cocycle as cc
from . import fieldio as fio
from .errors import CocycleLabError, check_keys, json_int, passes, worst
from .smfield import FourierField, Pair, _matmul3, l2_inner, mu_minus, mu_plus, star_curvature
from .torus import SMPoint, TorusMetric, flat_closed_geodesics, step_count

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


def _metric_from_config(doc: dict) -> TorusMetric:
    m = doc.get("metric", {})
    if not isinstance(m, dict):
        raise ValueError("metric must be a JSON object")
    check_keys(m, METRIC_KEYS, "metric")
    nx, ny = (json_int(m.get(k, 128), f"metric {k}") for k in ("nx", "ny"))
    lx, ly = float(m.get("lx", 1.0)), float(m.get("ly", 1.0))
    harmonics = m.get("harmonics", [])
    return TorusMetric.from_harmonics(nx, ny, lx, ly, harmonics)


def _load_config(path: str) -> dict:
    doc = fio.load_json(path)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    return doc


def _tolerances(doc, allowed) -> dict:
    """Tolerance overrides as floats, each named in allowed and each a
    positive, finite JSON number; anything else is bad input that names the
    key.  float() would read true or "1" as 1.0, an infinite tolerance (a
    literal such as 1e999) would pass every finite residual, and one at or
    below 0 would fail every nonzero one."""
    if not isinstance(doc, dict):
        raise ValueError("tolerances must be a JSON object")
    check_keys(doc, allowed, "tolerances")
    for k, v in doc.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"tolerance for {k} must be a JSON number, got {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"non-finite tolerance for {k}")
        if v <= 0:
            raise ValueError(f"tolerance for {k} must be positive, got {v!r}")
    return {k: float(v) for k, v in doc.items()}


def _check_run_args(args) -> None:
    """Reject the arguments of verify that argparse accepts but no run can
    use and no library function checks: a geodesic count below 1 and a
    negative seed.  The step, the time, the start point and save_every are
    checked where they are used (step_count, check_step, transport)."""
    for name, least in (("geodesics", 1), ("seed", 0)):
        if getattr(args, name) < least:
            raise ValueError(f"--{name} must be at least {least}, got {getattr(args, name)}")


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
    """Energy identity on random single-mode fields:
    ||mu_+ u||^2 = ||mu_- u||^2 + (1/2) <(i *F - m K) u, u>."""
    met = pair.metric
    rng = np.random.default_rng(seed)
    sf = star_curvature(pair.conn)
    shape = (met.ny, met.nx, 3, 3)
    ky, kx = (np.fft.fftfreq(n, 1.0 / n) for n in (met.ny, met.nx))
    mask = ((-6 <= ky) & (ky < 6))[:, None] & ((-6 <= kx) & (kx < 6))
    rel = []
    for _ in range(count):
        m = int(rng.integers(-3, 4))
        # drawn point by point, nine entries a point (the order a seed fixes),
        # then viewed matrix-first
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # keep the sample band-limited (wavenumbers -6..5) so mode calculus is exact
        h = np.fft.ifft2(np.fft.fft2(np.moveaxis(h, (2, 3), (0, 1))) * mask)
        u = FourierField(met, {m: h})
        up = mu_plus(u, pair.conn)
        um = mu_minus(u, pair.conn)
        lhs = l2_inner(up, up).real
        rhs = l2_inner(um, um).real
        op = FourierField(
            met, {m: _matmul3(1j * sf - m * met.gauss * np.eye(3)[:, :, None, None], h)}
        )
        rhs += 0.5 * l2_inner(op, u).real
        scale = max(abs(lhs), abs(rhs), 1e-300)
        rel.append(abs(lhs - rhs) / scale)
    return worst(rel)


def _verify_report(pair: Pair, tols: dict, seed: int, geodesic_count: int,
                   t_final: float, dt: float) -> dict:
    met = pair.metric
    residuals = cc.mode_residuals(pair)
    residuals["energy"] = float(_energy_residuals(pair, 8, seed))
    rng = np.random.default_rng(seed + 1)
    ctx = cc.TransportContext(pair)
    errors = {}
    tag = "holonomy" if met.is_flat else "cocycle"
    try:
        per_geodesic = []
        if met.is_flat:
            for p0, t_closed in flat_closed_geodesics(met, geodesic_count, seed=seed):
                per_geodesic.append(cc.holonomy_closed(pair, p0, t_closed, dt, context=ctx))
        else:
            for _ in range(geodesic_count):
                p0 = SMPoint(
                    rng.uniform(0, met.lx), rng.uniform(0, met.ly),
                    rng.uniform(0, 2 * np.pi),
                )
                tv = cc.triviality_residual(pair, p0, t_final, dt, context=ctx)
                per_geodesic.append(tv.max_residual)
        residuals[tag] = worst(per_geodesic)
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
    # --dt and --t-final, and then --dt against this torus, before any computation
    step_count(args.t_final, args.dt)
    cc.check_step(pair.metric, args.dt)
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


def main(argv=None) -> int:
    """Run one verb and map its outcome to the exit code.  This is the only
    place an exception becomes an exit code: a CocycleLabError is a failed
    check (1), and so is a standard output closed by its reader (a
    BrokenPipeError, reported silently: stderr may be that pipe too); the
    built-in errors that the loaders, the argument checks and the writers
    raise are bad input (2)."""
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
