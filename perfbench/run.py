"""Benchmark of the cocyclelab command line: three workloads, one process each.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload flat-elliptic --seed 1 --seconds 25 --trace 0

Each run imports the package from src/, sets up its inputs, then repeats the
workload's CLI operations through `cocyclelab.cli.main` until --seconds have
passed.  Every operation's output is checked (checks.py); the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are end to end, measured untraced.
With --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (tracer.py).  Lines starting with '#'
record the environment and the raw wall times.  See README.md for why each
workload exists and which layer each metric measures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# Single-threaded BLAS gives the steadiest timings and bit-identical outputs.
# Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from speed import REF_CALL_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# lambda = 0.1 cos(2 pi x) + 0.04 cos(2 pi x + 0.5) cos(2 pi y + 1.2)
CURVED = [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]]
ELLIPTIC = {"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]}
CONSTANT = {"kind": "constant", "axis": [0.6, -0.48, 0.64]}
REPEAT = {"kind": "repeat-q"}

# n: grid points per side.  pair_in_setup: the pair is generated during
# set-up and the timed operations only read it.  Sizes keep one pass to a few
# seconds so that a run holds several passes (README.md, "Sizes").
WORKLOADS = {
    "flat-elliptic": {
        "n": 48, "harmonics": [], "chain": [ELLIPTIC, REPEAT],
        "ops": ("generate", "verify", "reduce"),
        "verify": {"geodesics": 3, "t_final": 3.0},
    },
    "curved-transport": {
        "n": 48, "harmonics": CURVED, "chain": [CONSTANT, REPEAT],
        "pair_in_setup": True,
        "ops": ("verify", "transport"),
        "verify": {"geodesics": 1, "t_final": 5.0},
        "transport": {"t_final": 5.0, "dt": 1e-3},
    },
    "deep-chain": {
        "n": 32, "harmonics": CURVED, "chain": [CONSTANT] + [REPEAT] * 5,
        "ops": ("generate", "verify", "reduce"),
        "verify": {"geodesics": 1, "t_final": 1.5},
    },
}

SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "total_norm_s": "s", "verify_norm_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric."""
    units = {}
    for name in ("fieldio.save", "fieldio.load"):
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.bytes": "B"})
    units.update({
        "smfield.matmul.calls": "count", "smfield.matmul.self_s": "s",
        "smfield.matmul.mode_pairs": "count", "smfield.matmul.nonzero_pair_ratio": "ratio",
        "smfield.eta.calls": "count", "smfield.eta.self_s": "s",
        "smfield.l2_inner.calls": "count", "smfield.l2_inner.self_s": "s",
        "spectral.deriv.calls": "count", "spectral.deriv.self_s": "s",
        "spectral.deriv.elements": "count", "spectral.refine_grid.self_s": "s",
    })
    for name in ("interp.build", "interp.eval"):
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.points": "count"})
    for name in ("torus.integrate_geodesic", "cocycle.transport"):
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.steps": "count"})
    units["cocycle.context.incl_s"] = "s"
    for stage in ("triviality_residual", "holonomy_closed", "h0_residuals",
                  "recurrence_residuals", "transport_residual_field"):
        units[f"cocycle.{stage}.incl_s"] = "s"
    units["backlund.backlund_transform.calls"] = "count"
    for stage in ("backlund_transform", "holomorphy_residuals", "reduce_degree",
                  "holomorphic_g_factory"):
        units[f"backlund.{stage}.incl_s"] = "s"
    units["elliptic.weierstrass_p.incl_s"] = "s"
    for verb in ("generate", "verify", "reduce", "transport"):
        units[f"cli.{verb}.incl_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def code_key() -> str:
    """Hash of the program's and the benchmark's source and the numpy version."""
    h = hashlib.sha256(np.__version__.encode())
    here = Path(__file__).resolve().parent
    for path in sorted((SRC / "cocyclelab").rglob("*.py")) + sorted(here.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spec_key(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


class Bench:
    """One workload run: set-up, timed passes and the checks of every operation."""

    def __init__(self, name: str, spec: dict, seed: int, workdir: Path, log=sys.stderr):
        self.name = name
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.record = checks.Record(workdir.parent / "record.json", code_key())
        self.record_name = f"{name}/{spec_key(spec)}"
        self.input_dir = workdir / "input"
        self.pass_dir = workdir / "pass"
        self.probe = SpeedProbe()
        self._ref = None  # reference call time measured after the last verb

    def run_verb(self, verb: str, argv: list, tracer=None) -> float:
        """Run one CLI verb, check its outputs, return its wall time."""
        from cocyclelab import cli

        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.span(f"cli.{verb}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    rc = cli.main([verb] + [str(a) for a in argv])
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                err.write(f"{type(exc).__name__}: {exc}\n")
            elapsed = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"exit code {rc}"]
        problems += self.check(verb, argv)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# FAILED {verb}: {'; '.join(problems)}", file=self.log)
            for line in err.getvalue().strip().splitlines()[-3:]:
                print(f"#   {line}", file=self.log)
        return elapsed

    def timed(self, fn, *args) -> tuple[float, float]:
        """(wall, normalised) seconds of fn(*args), which returns its own wall
        time; the speed probe runs before and after it (speed.py)."""
        if self._ref is None:
            self.probe.burst()  # warm-up
            self._ref = self.probe.burst()
        before = self._ref
        wall = fn(*args)
        self._ref = self.probe.burst()
        return wall, wall * REF_CALL_S / (0.5 * (before + self._ref))

    def check(self, verb: str, argv: list) -> list:
        def after(flag):
            return Path(argv[argv.index(flag) + 1])

        if verb == "generate":
            problems, hashes = checks.check_generate(after("--outdir"), len(self.spec["chain"]))
            if hashes is not None and not self.record.same(f"{self.record_name}/hashes", hashes):
                problems.append("output hashes differ from an earlier run of this code")
            return problems
        if verb == "verify":
            return checks.check_verify(after("--report"))
        if verb == "reduce":
            return checks.check_reduce(after("--outdir"))
        if verb == "transport":
            return checks.check_transport(after("--out"))
        raise ValueError(verb)

    @staticmethod
    def _clean(path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)

    def setup(self) -> tuple[float, float]:
        """Import the program, then write the config and, where the workload
        reads a stored pair, generate it.  The second part is done
        SETUP_REPEATS times; returns (wall, normalised) of the import plus
        the median repeat."""
        n = self.spec["n"]
        config = {
            "metric": {"nx": n, "ny": n, "lx": 1.0, "ly": 1.0,
                       "harmonics": self.spec["harmonics"]},
            "chain": self.spec["chain"],
            "tolerances": {"cert": checks.CERT_TOL, "gmero": checks.GMERO_TOL},
        }

        def load():
            t0 = time.perf_counter()
            import cocyclelab.cli  # noqa: F401

            return time.perf_counter() - t0

        def inputs():
            t0 = time.perf_counter()
            self._clean(self.input_dir)
            (self.input_dir / "config.json").write_text(json.dumps(config))
            if self.spec.get("pair_in_setup"):
                self.run_verb("generate", [self.input_dir / "config.json",
                                           "--outdir", self.input_dir])
            return time.perf_counter() - t0

        first = self.timed(load)
        reps = [self.timed(inputs) for _ in range(SETUP_REPEATS)]
        return tuple(first[k] + median(r[k] for r in reps) for k in (0, 1))

    def one_pass(self, tracer=None) -> dict:
        """The workload's operations once; returns {verb: (wall, normalised)}."""
        self._clean(self.pass_dir)
        d, src = self.pass_dir, self.input_dir
        pair_dir = d if "generate" in self.spec["ops"] else src
        vseed = int(self.rng.integers(2**31))
        x, y, theta = (float(v) for v in self.rng.uniform(0.0, 1.0, 3))
        theta *= 2.0 * np.pi
        times = {}
        for verb in self.spec["ops"]:
            if verb == "generate":
                argv = [src / "config.json", "--outdir", d]
            elif verb == "verify":
                v = self.spec["verify"]
                argv = [pair_dir / "pair.json", pair_dir / "trivializer.json",
                        "--seed", vseed, "--geodesics", v["geodesics"],
                        "--t-final", v["t_final"], "--report", d / "report.json"]
            elif verb == "reduce":
                argv = [pair_dir / "pair.json", pair_dir / "trivializer.json",
                        "--outdir", d / "reduced"]
            else:
                t = self.spec["transport"]
                argv = [pair_dir / "pair.json", "--x", repr(x), "--y", repr(y),
                        "--theta", repr(theta), "--t-final", t["t_final"],
                        "--dt", t["dt"], "--out", d / "transport.csv"]
            times[verb] = self.timed(self.run_verb, verb, argv, tracer)
        return times


def layer_metrics(tracer: Tracer, rows_by_root: dict) -> tuple[dict, dict]:
    """Per-layer times and exact counts of one traced pass, from the layer
    totals under each of its verb spans."""
    totals = {}
    for root, layer_rows in rows_by_root.items():
        rows = dict(layer_rows)
        name, _, _, _, incl, _ = tracer.spans[root]
        rows[name] = {"calls": 1, "incl_s": incl, "self_s": 0.0}
        for layer, row in rows.items():
            acc = totals.setdefault(layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    times, counts = {}, {}
    for metric in per_layer_units():
        layer, _, field = metric.rpartition(".")
        if layer == "trace" or field == "nonzero_pair_ratio":
            continue
        if field == "calls":
            counts[metric] = totals.get(layer, {}).get("calls", 0)
        elif field in ("self_s", "incl_s"):
            times[metric] = totals.get(layer, {}).get(field, 0.0)
        else:
            counts[metric] = tracer.counts.get(metric, 0)
    counts["smfield.matmul.nonzero_pairs"] = tracer.counts.get("smfield.matmul.nonzero_pairs", 0)
    return times, counts


def run(name: str, spec: dict, seed: int, seconds: float, trace: bool,
        workdir: Path, log=sys.stderr) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(name, spec, seed, workdir, log)
    setup_wall, setup_s = bench.setup()

    plain, traced, traced_sets, coverage, self_by_verb = [], [], [], {}, {}
    t_start = time.perf_counter()
    while not plain or time.perf_counter() - t_start < seconds:
        if not trace:
            plain.append(bench.one_pass())
            continue
        # alternate which side runs first so drift in machine load cancels
        for traced_pass in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.append(bench.one_pass())
                continue
            tracer = Tracer()
            with tracer.installed():
                traced.append(bench.one_pass(tracer))
            rows_by_root = {i: tracer.layer_totals(i)
                            for i, span in enumerate(tracer.spans) if span[1] == -1}
            traced_sets.append(layer_metrics(tracer, rows_by_root))
            for root, rows in rows_by_root.items():
                verb, _, _, _, incl, self_s = tracer.spans[root]
                cov = coverage.setdefault(verb, [0.0, 0.0])
                cov[0] += incl - self_s
                cov[1] += incl
                selfs = self_by_verb.setdefault(verb, {})
                for layer, row in rows.items():
                    selfs[layer] = selfs.get(layer, 0.0) + row["self_s"]

    print(f"# {name}: set-up wall {setup_wall:.3f} s; {len(plain)} untraced pass(es)"
          + (f", {len(traced)} traced" if trace else ""), file=log)
    for verb in spec["ops"]:
        wall = sorted(p[verb][0] for p in plain)
        print(f"#   {verb:9s} wall median {median(wall):7.3f} s  min {wall[0]:7.3f}  "
              f"max {wall[-1]:7.3f}  normalised median {median(p[verb][1] for p in plain):7.3f} s",
              file=log)

    def total(passes, k):
        return median([sum(t[k] for t in p.values()) for p in passes])

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "total_norm_s": total(plain, 1),
            "verify_norm_s": median([p["verify"][1] for p in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"#   total     wall median {total(plain, 0):7.3f} s  normalised per pass "
              + " ".join(f"{sum(t[1] for t in p.values()):.3f}" for p in plain), file=log)
        units = END_TO_END_UNITS
    else:
        metrics = {m: median([ts[0][m] for ts in traced_sets]) for m in traced_sets[0][0]}
        counts = traced_sets[0][1]
        if any(other != counts for _, other in traced_sets[1:]):
            bench.failed += 1
            print("# FAILED counts differ between traced passes", file=log)
        if not bench.record.same(f"{bench.record_name}/counts", counts):
            bench.failed += 1
            print("# FAILED counts differ from an earlier traced run of this code", file=log)
        pairs = counts["smfield.matmul.mode_pairs"]
        nonzero = counts.pop("smfield.matmul.nonzero_pairs")
        metrics.update(counts)
        metrics["smfield.matmul.nonzero_pair_ratio"] = nonzero / pairs if pairs else 0.0
        metrics["trace.overhead_frac"] = total(traced, 1) / total(plain, 1) - 1.0
        metrics["trace.coverage"] = min(c / w for c, w in coverage.values())
        for verb, (c, w) in sorted(coverage.items()):
            top = sorted(self_by_verb[verb].items(), key=lambda kv: -kv[1])[:3]
            print(f"#   {verb:14s} coverage {c / w:.3f}  largest self time: "
                  + ", ".join(f"{k} {v / w:.0%}" for k, v in top), file=log)
        units = per_layer_units()
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def environment(name: str, spec: dict, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": name,
        "grid": [spec["n"], spec["n"]],
        "trivializer_degree": len(spec["chain"]),
        "ops": list(spec["ops"]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cocyclelab" / "cli.py").is_file():
        print(f"error: no cocyclelab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args.workload, spec, args.seed)))
    result = run(args.workload, spec, args.seed, args.seconds, bool(args.trace),
                 WORK / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
