"""Self-test of the benchmark harness on small grids; takes about a minute.

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is emitted with its unit, by every
     workload, untraced and traced;
  2. a pair.json holding a NaN counts as a failed `verify`, whatever the
     program's exit code;
  3. the exact counts of the traced run repeat from one run to the next.
Exit code 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

sys.path.insert(0, str(run.SRC))

# Small grids, short geodesics and short chains.
TINY = {
    "flat-elliptic": {"verify": {"geodesics": 1, "t_final": 0.5}},  # 48 is its smallest grid
    "curved-transport": {"n": 32, "verify": {"geodesics": 1, "t_final": 0.3},
                         "transport": {"t_final": 0.3, "dt": 1e-3}},
    "deep-chain": {"n": 32, "chain": [run.CONSTANT] + [run.REPEAT] * 2,
                   "verify": {"geodesics": 1, "t_final": 0.3}},
}


def tiny(name: str) -> dict:
    return {**run.WORKLOADS[name], **TINY[name]}


def quiet_run(name, spec, trace, workdir):
    log = io.StringIO()
    result = run.run(name, spec, seed=7, seconds=0.0, trace=trace, workdir=workdir, log=log)
    return result, log.getvalue()


def check_metrics(tmp: Path) -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, log = quiet_run(name, tiny(name), trace, tmp / name)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct\n{log}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if key == "end_to_end":
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"{name}: end-to-end metrics not positive: {zero}")
    return problems


def check_nan_pair(tmp: Path) -> list[str]:
    from cocyclelab import cli

    spec = tiny("curved-transport")
    log = io.StringIO()
    bench = run.Bench("curved-transport", spec, 7, tmp / "nan", log=log)
    bench.setup()
    pair = bench.input_dir / "pair.json"
    text = pair.read_text()
    head = '"phi":{"degree":0,"modes":[{"m":0,"re":['
    at = text.index(head) + len(head)
    end = text.index(",", at)
    pair.write_text(text[:at] + "NaN" + text[end:])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli.main(["verify", str(pair), str(bench.input_dir / "trivializer.json")])
    bench.one_pass()
    problems = []
    if "FAILED verify" not in log.getvalue():
        problems.append("verify of a NaN pair was not counted as failed")
    print(f"    (cocyclelab verify exits {exit_code} on the NaN pair without --report)")
    return problems


def check_counts(tmp: Path) -> list[str]:
    name = "deep-chain"
    counts = []
    for k in range(2):
        result, log = quiet_run(name, tiny(name), True, tmp / f"counts{k}")
        if not result["correct"]:
            return [f"traced run {k} not correct\n{log}"]
        counts.append({m: v["value"] for m, v in result["metrics"].items()
                       if v["unit"] in ("count", "B")})
    if counts[0] != counts[1]:
        diff = {m: (counts[0][m], counts[1][m]) for m in counts[0] if counts[0][m] != counts[1][m]}
        return [f"counts differ between traced runs: {diff}"]
    if not counts[0]["spectral.deriv.elements"]:
        return ["no counts recorded"]
    return []


def main() -> int:
    if not (run.SRC / "cocyclelab" / "cli.py").is_file():
        print("error: run from a checkout with src/cocyclelab", file=sys.stderr)
        return 2
    run.WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    failed = 0
    try:
        for title, test in (("metrics and units", check_metrics),
                            ("NaN pair counted as failed", check_nan_pair),
                            ("counts repeat", check_counts)):
            problems = test(tmp)
            print(f"{'PASS' if not problems else 'FAIL'} {title}")
            for p in problems:
                print(f"    {p}")
            failed += bool(problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
