"""End-to-end runs of the command line front end via main(argv)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cocyclelab import cli, fieldio as fio
from cocyclelab.backlund import generate_chain
from cocyclelab.smfield import Higgs, Pair
from cocyclelab.torus import TorusMetric


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    fio.save_json(p, doc)
    return str(p)


CONST_CHAIN = {
    "metric": {"nx": 48, "ny": 48, "harmonics": [[0.1, 1, 0]]},
    "chain": [{"kind": "constant", "axis": [0.6, 0.0, 0.8]}],
}

FACTORY_CHAIN = {
    "metric": {"nx": 96, "ny": 96},
    "chain": [{"kind": "elliptic", "scale": [0.8, 0.2], "offset": [0.1, -0.2]}],
}


def run_generate(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    rc = cli.main(["generate", cfg, "--outdir", str(out)])
    assert rc == cli.EXIT_OK
    return out


def test_generate_then_verify_trivial(tmp_path):
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    rc = cli.main([
        "verify", str(out / "pair.json"), str(out / "trivializer.json"),
        "--geodesics", "2", "--dt", "5e-3",
        "--report", str(tmp_path / "report.json"),
    ])
    assert rc == cli.EXIT_OK
    report = fio.load_json(tmp_path / "report.json")
    assert report["pass"] is True
    assert "holonomy" in report["residuals"]  # flat metric branch


def test_generate_then_verify_constant_chain(tmp_path, capsys):
    out = run_generate(tmp_path, CONST_CHAIN)
    certs = fio.load_json(out / "certificates.json")
    assert len(certs["steps"]) == 1
    assert set(certs["hashes"]) == {"pair.json", "trivializer.json"}
    rc = cli.main([
        "verify", str(out / "pair.json"), str(out / "trivializer.json"),
        "--geodesics", "2", "--t-final", "2.0", "--dt", "2e-3",
    ])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.out + captured.err
    assert "cocycle" in captured.out  # curved metric branch
    assert "PASS" in captured.out and "FAIL" not in captured.out


def test_generate_deterministic(tmp_path):
    out1 = run_generate(tmp_path, FACTORY_CHAIN)
    cfg = write_config(tmp_path, FACTORY_CHAIN, name="config2.json")
    out2 = tmp_path / "out2"
    assert cli.main(["generate", cfg, "--outdir", str(out2)]) == cli.EXIT_OK
    h1 = fio.load_json(out1 / "certificates.json")["hashes"]
    h2 = fio.load_json(out2 / "certificates.json")["hashes"]
    assert h1 == h2
    assert (out1 / "pair.json").read_bytes() == (out2 / "pair.json").read_bytes()


def test_generate_prints_worst_gated_residual(tmp_path, capsys):
    doc = dict(CONST_CHAIN, chain=CONST_CHAIN["chain"] + [{"kind": "repeat-q"}])
    out = run_generate(tmp_path, doc)
    printed = float(capsys.readouterr().out.split("worst residual ")[1].rstrip(")\n"))
    steps = fio.load_json(out / "certificates.json")["steps"]
    gated = [s["residuals"][k] for s in steps for k in cli.GATED_RESIDUALS]
    assert printed == float(f"{max(gated):.3e}")
    assert printed < 1e-6


def _write_with_token(path, doc, numbers, token):
    """Rewrite a field or pair file with numbers[0] replaced by a literal
    token: NaN, or 1e999, which json parses to infinity."""
    numbers[0] = "TOKEN"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))


def test_every_verb_rejects_non_finite_files(tmp_path, capsys):
    out = run_generate(tmp_path, CONST_CHAIN)
    pair, triv = out / "pair.json", out / "trivializer.json"
    o = str(tmp_path / "o")
    transport = ["transport", str(pair), "--x", "0", "--y", "0", "--theta", "0",
                 "--t-final", "0.1", "--out", str(tmp_path / "t.csv")]
    verify = ["verify", str(pair), str(triv)]
    reduce = ["reduce", str(pair), str(triv), "--outdir", str(tmp_path / "r")]
    pair_verbs = (verify, transport, reduce, ["export", str(pair), "--out", o])
    triv_verbs = (verify, reduce, ["export", str(triv), "--out", o])
    for path, where, tokens, verbs in (
        (pair, lambda d: d["phi"]["modes"][0]["re"], ("NaN", "1e999", "-1e999"), pair_verbs),
        (pair, lambda d: d["metric_lambda"], ("1e999",), pair_verbs),
        (triv, lambda d: d["modes"][0]["im"], ("NaN", "1e999", "-1e999"), triv_verbs),
    ):
        good = path.read_bytes()
        for token in tokens:
            doc = json.loads(good)
            _write_with_token(path, doc, where(doc), token)
            for argv in verbs:
                assert cli.main(argv) == cli.EXIT_BADINPUT, (path.name, token, argv[0])
        path.write_bytes(good)
    # metric_lambda off the series of metric_harmonics, and no series at all
    good = pair.read_bytes()
    shifted = json.loads(good)
    shifted["metric_lambda"] = [v + 0.5 for v in shifted["metric_lambda"]]
    unseries = json.loads(good)
    del unseries["metric_harmonics"]
    for doc, message in ((shifted, "metric_lambda differs"), (unseries, "no metric_harmonics")):
        pair.write_text(json.dumps(doc))
        for argv in pair_verbs:
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_BADINPUT, (message, argv[0])
            assert message in capsys.readouterr().err
    pair.write_bytes(good)
    tols = tmp_path / "tols.json"
    tols.write_text('{"structure": 1e999}')
    assert cli.main(verify + ["--tolerances", str(tols)]) == cli.EXIT_BADINPUT
    for cfg_text in (
        '{"metric": {"nx": 32, "ny": 32, "lx": Infinity}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "lx": 1e999}, "chain": []}',
        '{"metric": {"nx": 1e999, "ny": 32}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[1e999, 1, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 16, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "lx": 0, "harmonics": [[0.1, 1, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [], "tolerances": {"cert": 1e999}}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "elliptic", "scale": [1e999, 0]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "elliptic", "offset": [0, 1e999]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "constant", "axis": [0, 0, 0]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "constant", "axis": [1e999, 0, 0]}]}',
    ):
        cfg = tmp_path / "bad_config.json"
        cfg.write_text(cfg_text)
        assert cli.main(["generate", str(cfg), "--outdir", o]) == cli.EXIT_BADINPUT, cfg_text
    assert "all identities verified" not in capsys.readouterr().out


@pytest.mark.parametrize("verb, arg", [
    ("verify", "--dt=nan"), ("verify", "--dt=0"), ("verify", "--dt=-1e-3"),
    ("verify", "--t-final=nan"), ("verify", "--t-final=inf"), ("verify", "--t-final=0"),
    ("verify", "--geodesics=0"), ("verify", "--seed=-1"),
    ("transport", "--dt=inf"), ("transport", "--t-final=0"), ("transport", "--t-final=-inf"),
    ("transport", "--x=nan"), ("transport", "--x=inf"), ("transport", "--y=-inf"),
    ("transport", "--theta=nan"), ("transport", "--save-every=0"),
])
def test_run_verbs_reject_bad_numbers(tmp_path, capsys, verb, arg):
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    pair = str(out / "pair.json")
    argv = {
        "verify": ["verify", pair, str(out / "trivializer.json")],
        "transport": ["transport", pair, "--x", "0.2", "--y", "0.7", "--theta", "1.1",
                      "--t-final", "1.0", "--out", str(tmp_path / "t.csv")],
    }[verb]
    capsys.readouterr()
    assert cli.main(argv + [arg]) == cli.EXIT_BADINPUT
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert "all identities verified" not in captured.out


def test_verify_report_fails_on_nan():
    """No verdict passes on NaN, even where Python's max would drop it."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [[0.1, 1, 0]])
    good = generate_chain(met, CONST_CHAIN["chain"]).final
    phi = good.higgs.phi.copy()
    phi[0, 0, 0, 1] = np.nan
    pair = Pair(good.conn, Higgs(met, phi), good.trivializer)
    report = cli._verify_report(pair, {}, seed=0, geodesic_count=1, t_final=0.5, dt=1e-2)
    assert report["pass"] is False
    nan_keys = [k for k, v in report["residuals"].items() if np.isnan(v)]
    assert nan_keys and set(nan_keys) <= set(report["failures"])
    assert "structure" in report["failures"]


def test_verify_detects_corruption(tmp_path, capsys):
    out = run_generate(tmp_path, CONST_CHAIN)
    doc = fio.load_json(out / "pair.json")
    # flat layout: ((y * nx + x) * 3 + i) * 3 + j; pick x = nx/4 where the
    # metric harmonic has maximal slope, so the entry is nonzero
    idx = ((0 * 48 + 12) * 3 + 0) * 3 + 1
    assert doc["b"]["modes"][0]["re"][idx] != 0.0
    doc["b"]["modes"][0]["re"][idx] *= 1.01
    fio.save_json(out / "pair.json", doc)
    rc = cli.main([
        "verify", str(out / "pair.json"), str(out / "trivializer.json"),
        "--geodesics", "1", "--dt", "5e-3",
    ])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_FAIL
    assert "FAIL" in captured.out


def test_verify_fails_structure_on_perturbed_negative_mode(tmp_path, capsys):
    """The interpolant reads only the modes m >= 0 of the trivializer, so the
    structure residual (reality and the imaginary part of the samples) is
    what catches a corrupted mode -1."""
    out = run_generate(tmp_path, CONST_CHAIN)
    doc = fio.load_json(out / "trivializer.json")
    (entry,) = [e for e in doc["modes"] if e["m"] == -1]
    entry["re"] = [1.01 * v for v in entry["re"]]
    entry["im"] = [1.01 * v for v in entry["im"]]
    fio.save_json(out / "trivializer.json", doc)
    report = tmp_path / "report.json"
    rc = cli.main([
        "verify", str(out / "pair.json"), str(out / "trivializer.json"),
        "--geodesics", "1", "--t-final", "1.0", "--dt", "5e-3", "--report", str(report),
    ])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_FAIL
    assert "structure" in fio.load_json(report)["failures"]
    assert any(line.split()[:1] == ["structure"] and "FAIL" in line
               for line in captured.out.splitlines())


def test_transport_trivial_pair_stays_identity(tmp_path):
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    csv = tmp_path / "run.csv"
    rc = cli.main([
        "transport", str(out / "pair.json"),
        "--x", "0.2", "--y", "0.7", "--theta", "1.1",
        "--t-final", "1.0", "--dt", "1e-2", "--out", str(csv),
    ])
    assert rc == cli.EXIT_OK
    data = fio.read_transport_csv(csv)
    assert data["times"][0] == 0.0 and data["times"][-1] == 1.0
    err = np.abs(data["matrices"] - np.eye(3)).max()
    assert err < 1e-12  # zero generator: C stays the identity
    assert data["drift"].max() < 1e-12


def test_reduce_verb(tmp_path):
    out = run_generate(tmp_path, FACTORY_CHAIN)
    red = tmp_path / "red"
    rc = cli.main([
        "reduce", str(out / "pair.json"), str(out / "trivializer.json"),
        "--outdir", str(red),
    ])
    assert rc == cli.EXIT_OK
    report = fio.load_json(red / "reduction_report.json")
    assert report["residuals"]["reduced-field"] < 1e-6
    u = fio.load_field(red / "trivializer_reduced.json")
    assert u.degree == 0
    pair = fio.load_pair(red / "pair_reduced.json")
    assert pair.conn.norm() < 1e-5  # undoing the only step: back to trivial


def test_reduce_degree_zero_is_bad_input(tmp_path):
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    rc = cli.main([
        "reduce", str(out / "pair.json"), str(out / "trivializer.json"),
        "--outdir", str(tmp_path / "red"),
    ])
    assert rc == cli.EXIT_BADINPUT


def test_export_field_and_pair(tmp_path):
    out = run_generate(tmp_path, FACTORY_CHAIN)
    png = tmp_path / "phi.pgm"
    rc = cli.main(["export", str(out / "pair.json"), "--out", str(png)])
    assert rc == cli.EXIT_OK
    img = fio.read_pgm(png)
    assert img.shape == (96, 96)
    assert img.max() == 255.0  # min-max scaled
    rc = cli.main([
        "export", str(out / "trivializer.json"),
        "--selector", "1,0,0,abs", "--bits", "16",
        "--out", str(tmp_path / "u.pgm"),
    ])
    assert rc == cli.EXIT_OK
    assert fio.read_pgm(tmp_path / "u.pgm").max() == 65535.0


def test_export_bad_selector(tmp_path):
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    rc = cli.main([
        "export", str(out / "pair.json"), "--selector", "bogus",
        "--out", str(tmp_path / "x.pgm"),
    ])
    assert rc == cli.EXIT_BADINPUT


def test_generate_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert cli.main(["generate", str(bad)]) == cli.EXIT_BADINPUT
    for name, doc in (("worse.json", {"chain": [{"kind": "mystery"}]}),
                      ("list-metric.json", {"metric": [], "chain": []}),
                      ("number-step.json", {"metric": {"nx": 32, "ny": 32}, "chain": [1]})):
        cfg = write_config(tmp_path, doc, name)
        assert cli.main(["generate", cfg, "--outdir", str(tmp_path / "o")]) \
            == cli.EXIT_BADINPUT, name
    missing = cli.main(["verify", str(tmp_path / "nope.json"), str(bad)])
    assert missing == cli.EXIT_BADINPUT


def test_generate_rejects_non_holomorphic_chain(tmp_path):
    # a repeat-q doubling after an elliptic step: q is not holomorphic for
    # the doubled connection on a coarse grid, certification must fail loudly
    doc = {
        "metric": {"nx": 48, "ny": 48},
        "chain": [
            {"kind": "elliptic", "scale": [2.5, 0.0]},
            {"kind": "elliptic", "scale": [2.5, 0.0], "z0": [0.31, 0.17]},
        ],
    }
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["generate", cfg, "--outdir", str(tmp_path / "o")])
    assert rc == cli.EXIT_FAIL


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_a_failure_not_bad_input(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc = cli.main(["generate", cfg, "--outdir", str(tmp_path / "out")])
    assert rc == cli.EXIT_FAIL
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_verify_into_a_closed_pipe_exits_1(tmp_path, unbuffered):
    """The read end of stdout is closed before verify prints: exit 1, and no
    second error from the flush at interpreter exit (which would exit 120)."""
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cocyclelab.cli", "verify", str(out / "pair.json"),
             str(out / "trivializer.json"), "--geodesics", "1", "--dt", "5e-3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_FAIL, proc.stderr
    assert proc.stderr == ""
