"""End-to-end runs of the command line front end via main(argv)."""

import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cocyclelab import backlund as bk, cli, cocycle as cc, fieldio as fio, smfield as sm
from cocyclelab.errors import passes
from cocyclelab.lie3 import hat
from cocyclelab.backlund import generate_chain
from cocyclelab.smfield import Higgs, Pair
from cocyclelab.torus import MAX_STEPS, TorusMetric, step_count
from oracles import mode_grid_payload, plane_matmul3, read_mode_grid, read_pgm, read_transport_csv


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
    gated = [s["residuals"][k] for s in steps for k in bk.GATED_RESIDUALS]
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
        (triv, lambda d: d["metric_lambda"], ("NaN", "1e999"), triv_verbs),
    ):
        good = path.read_bytes()
        for token in tokens:
            doc = json.loads(good)
            _write_with_token(path, doc, where(doc), token)
            for argv in verbs:
                assert cli.main(argv) == cli.EXIT_BADINPUT, (path.name, token, argv[0])
        path.write_bytes(good)
    # metric_lambda off the series of metric_harmonics, no series at all, and
    # a side length that float() would read but that is no JSON number
    good = pair.read_bytes()
    shifted = json.loads(good)
    shifted["metric_lambda"] = [v + 0.5 for v in shifted["metric_lambda"]]
    unseries = json.loads(good)
    del unseries["metric_harmonics"]
    text_lx, bool_lx, flat_series = json.loads(good), json.loads(good), json.loads(good)
    text_lx["grid"]["lx"], bool_lx["grid"]["lx"] = "1.0", True
    flat_series["metric_harmonics"] = [0.1, 1, 0]
    for doc, message in ((shifted, "metric_lambda differs"), (unseries, "no metric_harmonics"),
                         (flat_series, "harmonic 0 must be an object with amp"),
                         (text_lx, "grid lx must be a JSON number"),
                         (bool_lx, "grid lx must be a JSON number")):
        pair.write_text(json.dumps(doc))
        for argv in pair_verbs:
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_BADINPUT, (message, argv[0])
            assert message in capsys.readouterr().err
    pair.write_bytes(good)
    # files of another format, or of none, are refused by name
    for path, verbs in ((pair, pair_verbs), (triv, triv_verbs)):
        good = path.read_bytes()
        for fmt in (1, 2, None):
            doc = json.loads(good)
            if fmt is None:
                del doc["format"]
            else:
                doc["format"] = fmt
            path.write_text(json.dumps(doc))
            for argv in verbs:
                capsys.readouterr()
                assert cli.main(argv) == cli.EXIT_BADINPUT, (path.name, fmt, argv[0])
                assert "format 3" in capsys.readouterr().err
        path.write_bytes(good)
    # integer fields hold JSON integers: int() would truncate 1.7 to 1, and
    # read "48" or false as a number
    for path, edit, name, verbs in (
        (triv, lambda d: d.update(degree=d["degree"] + 0.7), "degree", triv_verbs),
        (triv, lambda d: d["modes"][1].update(m=1.4), "mode m", triv_verbs),
        (triv, lambda d: d["grid"].update(ny=d["grid"]["ny"] + 0.9), "grid ny", triv_verbs),
        (pair, lambda d: d["grid"].update(nx=str(d["grid"]["nx"])), "grid nx", pair_verbs),
        (pair, lambda d: d["phi"]["modes"][0].update(m=False), "mode m", pair_verbs),
    ):
        good = path.read_bytes()
        doc = json.loads(good)
        edit(doc)
        path.write_text(json.dumps(doc))
        for argv in verbs:
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_BADINPUT, (path.name, name, argv[0])
            assert f"{name} must be an integer" in capsys.readouterr().err
        path.write_bytes(good)
    tols = tmp_path / "tols.json"
    for tols_text, message in (('{"structure": 1e999}', "non-finite tolerance"),
                               ('{"transport": true}', "tolerance for transport"),
                               ('{"transport": "1"}', "tolerance for transport"),
                               ('{"structure": -1}', "tolerance for structure"),
                               ('{"cocycle": 0}', "tolerance for cocycle"),
                               ('{"transprot": 1e-30}', "unknown key 'transprot'"),
                               ('{"cert": 1e-30}', "unknown key 'cert'")):
        tols.write_text(tols_text)
        assert cli.main(verify + ["--tolerances", str(tols)]) == cli.EXIT_BADINPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert "all identities verified" not in captured.out
    bad_configs = [(text, "input error") for text in (
        '{"metric": {"nx": 32, "ny": 32, "lx": Infinity}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "lx": 1e999}, "chain": []}',
        '{"metric": {"nx": 1e999, "ny": 32}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[1e999, 1, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 16, 0]]}, "chain": []}',
        # aliased to kx = 1 and ky = 15 on the grid samples, not in the series
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 33, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 0, -17]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32, "lx": 0, "harmonics": [[0.1, 1, 0]]}, "chain": []}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [], "tolerances": {"cert": 1e999}}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "elliptic", "scale": [1e999, 0]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "elliptic", "offset": [0, 1e999]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "constant", "axis": [0, 0, 0]}]}',
        '{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "constant", "axis": [1e999, 0, 0]}]}',
    )]
    # a misspelled key would leave its default in place: a trivial chain, or
    # the default gate
    one_step = '{"kind": "constant", "axis": [0, 0, 1]}'
    bad_configs += [(text, f"unknown key '{key}'") for text, key in (
        ('{"metric": {"nx": 32, "ny": 32}, "chian": [%s]}' % one_step, "chian"),
        ('{"metric": {"nx": 32, "ny": 32, "harmonic": [[0.1, 1, 0]]}, "chain": []}', "harmonic"),
        ('{"metric": {"nx": 32, "ny": 32}, "chain": [], "tolerances": {"certt": 1e-9}}', "certt"),
        ('{"metric": {"nx": 32, "ny": 32}, "chain": [], "tolerances": {"transport": 1}}',
         "transport"),
        ('{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "constant", "axis": [0, 0, 1], '
         '"scale": [1, 0]}]}', "scale"),
        ('{"metric": {"nx": 32, "ny": 32}, "chain": [{"kind": "elliptic", "z_0": [0.1, 0.2]}]}',
         "z_0"),
        ('{"metric": {"nx": 32, "ny": 32}, "chain": [%s, {"kind": "repeat-q", "axis": [1, 0, 0]}]}'
         % one_step, "axis"),
    )]
    # a grid size, side length, amplitude or tolerance that int() or float()
    # would read anyway
    bad_configs += [('{"metric": {%s}, "chain": [%s]%s}' % (grid, one_step, tols), message)
                    for grid, tols, message in (
        ('"nx": "16", "ny": 16', "", "metric nx must be an integer"),
        ('"nx": 16, "ny": 16.9', "", "metric ny must be an integer"),
        ('"nx": 16, "ny": 16', ', "tolerances": {"cert": true}', "tolerance for cert"),
        ('"nx": 16, "ny": 16', ', "tolerances": {"gmero": "1"}', "tolerance for gmero"),
        ('"nx": 16, "ny": 16', ', "tolerances": {"cert": -1}', "tolerance for cert"),
        ('"nx": 16, "ny": 16, "lx": true', "", "metric lx must be a JSON number"),
        ('"nx": 16, "ny": 16, "lx": "1"', "", "metric lx must be a JSON number"),
        ('"nx": 16, "ny": 16, "lx": "1.5"', "", "metric lx must be a JSON number"),
        ('"nx": 16, "ny": 16, "harmonics": [[true, 1, 0]]', "",
         "harmonic 0 amp must be a JSON number"),
    )]
    # a chain step's numbers: JSON numbers, as many as the key takes
    bad_configs += [('{"metric": {"nx": 16, "ny": 16}, "chain": [{"kind": "%s", %s}]}'
                     % (kind, entry), message) for kind, entry, message in (
        ("constant", '"axis": [0, 1]', "chain step 0 (constant): axis must be a list of 3"),
        ("constant", '"axis": ["0", "0", "1"]',
         "chain step 0 (constant) axis must be a JSON number"),
        ("constant", '"axis": [true, 0, 0]', "chain step 0 (constant) axis must be a JSON number"),
        ("elliptic", '"scale": [true, 0]', "chain step 0 (elliptic) scale must be a JSON number"),
        ("elliptic", '"z0": [0.51, 0.52, 3]', "chain step 0 (elliptic): z0 must be a list of 2"),
        ("elliptic", '"scale": [1, 0, 0]', "chain step 0 (elliptic): scale must be a list of 2"),
    )]
    # the shape of the chain and of the harmonics
    bad_configs += [('{"metric": {"nx": 16, "ny": 16%s}, "chain": %s}' % (harmonics, chain),
                     message) for harmonics, chain, message in (
        ("", "5", "chain must be a list of steps, got 5"),
        (', "harmonics": 5', "[]", "harmonics must be a list, got 5"),
        (', "harmonics": [5]', "[]", "harmonic 0 must be an object with amp or a list of 1 to 5"),
        (', "harmonics": [[0.1, 1, 0, 0, 0, 9]]', "[]", "harmonic 0 must be an object with amp"),
        (', "harmonics": [{"kx": 1}]', "[]", "harmonic 0 must be an object with amp"),
        (', "harmonics": [{"amp": 0.1, "bogus": 1}]', "[]", "unknown key 'bogus' in harmonic 0"),
    )]
    for cfg_text, message in bad_configs:
        cfg = tmp_path / "bad_config.json"
        cfg.write_text(cfg_text)
        assert cli.main(["generate", str(cfg), "--outdir", o]) == cli.EXIT_BADINPUT, cfg_text
        assert message in capsys.readouterr().err, cfg_text
    assert not (tmp_path / "o").exists()


def test_harmonic_wavenumbers_are_integers(tmp_path, capsys):
    """A harmonic's kx and ky follow the rule of every integer field, in a
    config and in a file: true would read as 1 and 1.5 is no period of the
    torus, so each exits 2 and names the field.  1.0 is the integer 1."""
    o = tmp_path / "o"
    for harmonics, name in (([[0.1, True, 0]], "harmonic 0 kx"),
                            ([[0.1, 1.5, 0]], "harmonic 0 kx"),
                            ([[0.1, 1, 0], {"amp": 0.05, "kx": 0, "ky": "1"}], "harmonic 1 ky")):
        cfg = write_config(tmp_path, {"metric": {"nx": 32, "ny": 32, "harmonics": harmonics},
                                      "chain": []})
        capsys.readouterr()
        assert cli.main(["generate", cfg, "--outdir", str(o)]) == cli.EXIT_BADINPUT, harmonics
        assert f"{name} must be an integer" in capsys.readouterr().err, harmonics
    assert not o.exists()
    outs = []
    for kx in (1, 1.0):
        cfg = write_config(tmp_path, {"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, kx, 0]]},
                                      "chain": []})
        outs.append(tmp_path / f"out{kx!r}")
        assert cli.main(["generate", cfg, "--outdir", str(outs[-1])]) == cli.EXIT_OK
    assert (outs[0] / "pair.json").read_bytes() == (outs[1] / "pair.json").read_bytes()
    pair, triv = outs[0] / "pair.json", outs[0] / "trivializer.json"
    for path in (pair, triv):
        keep = path.read_bytes()
        for value in (True, 1.5):
            doc = json.loads(keep)
            doc["metric_harmonics"][0]["kx"] = value
            path.write_text(json.dumps(doc))
            for argv in (["verify", str(pair), str(triv)], ["export", str(path), "--out", str(o)]):
                capsys.readouterr()
                assert cli.main(argv) == cli.EXIT_BADINPUT, (path.name, value, argv[0])
                assert "harmonic 0 kx must be an integer" in capsys.readouterr().err
            path.write_bytes(keep)
    assert not o.exists()


def test_verify_tolerances_name_only_rows_the_metric_computes(tmp_path, capsys):
    """verify computes the holonomy row on a flat metric and the cocycle row
    on a curved one; a tolerance for the other row would go unused, so it
    exits 2 and names the key, and one for the computed row is applied."""
    runs = (("curved", CONST_CHAIN, "cocycle", "holonomy"),
            ("flat", {"metric": {"nx": 32, "ny": 32}, "chain": []}, "holonomy", "cocycle"))
    for name, doc, used, unused in runs:
        (tmp_path / name).mkdir()
        out = run_generate(tmp_path / name, doc)
        verify = ["verify", str(out / "pair.json"), str(out / "trivializer.json"),
                  "--geodesics", "1", "--t-final", "0.5", "--dt", "5e-3"]
        tols, report = tmp_path / name / "tols.json", tmp_path / name / "report.json"
        tols.write_text('{"%s": 1e-30}' % unused)
        capsys.readouterr()
        assert cli.main(verify + ["--tolerances", str(tols)]) == cli.EXIT_BADINPUT, name
        assert f"unknown key '{unused}'" in capsys.readouterr().err, name
        assert not report.exists()
        tols.write_text('{"%s": 0.5}' % used)
        assert cli.main(verify + ["--tolerances", str(tols), "--report", str(report)]) == 0
        assert fio.load_json(report)["tolerances"][used] == 0.5


def test_trivializer_header_must_match_the_pair(tmp_path, capsys):
    """verify and reduce read the trivializer against the pair's metric, so
    a header describing another grid, series or sampled lambda is bad input
    that names the mismatched key."""
    out = run_generate(tmp_path, CONST_CHAIN)
    pair, triv = out / "pair.json", out / "trivializer.json"
    good = json.loads(triv.read_bytes())
    flat = {"metric_harmonics": [], "metric_lambda": [0.0] * len(good["metric_lambda"])}
    for doc, key in (
        ({**good, **flat, "grid": {**good["grid"], "lx": 7.0}}, "grid"),
        ({**good, **flat}, "metric_harmonics"),
        ({**good, "metric_lambda": [v + 1e-9 for v in good["metric_lambda"]]}, "metric_lambda"),
    ):
        triv.write_text(json.dumps(doc))
        for argv in (["verify", str(pair), str(triv)],
                     ["reduce", str(pair), str(triv), "--outdir", str(tmp_path / "r")]):
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_BADINPUT, (key, argv[0])
            captured = capsys.readouterr()
            assert key in captured.err and "all identities verified" not in captured.out
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("verb, arg", [
    ("verify", "--dt=nan"), ("verify", "--dt=0"), ("verify", "--dt=-1e-3"), ("verify", "--dt=0.5"),
    ("verify", "--t-final=nan"), ("verify", "--t-final=inf"), ("verify", "--t-final=0"),
    ("verify", "--geodesics=0"), ("verify", "--seed=-1"),
    ("transport", "--dt=inf"), ("transport", "--t-final=0"), ("transport", "--t-final=-inf"),
    ("transport", "--x=nan"), ("transport", "--x=inf"), ("transport", "--y=-inf"),
    ("transport", "--theta=nan"), ("transport", "--save-every=0"), ("transport", "--dt=0.5"),
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


def test_step_too_large_exits_before_any_computation(tmp_path, monkeypatch, capsys):
    """Each run's step is checked against the torus before any field is
    computed: the requested --dt 0.5, then steps that only the rounding makes
    too large, the (3, 1) closed geodesic's 158 steps of 0.0200144 on the
    flat torus and --t-final 0.025 in one step of 0.025 on a curved one."""
    pairs = {}
    for name, harmonics in (("flat", []), ("curved", [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]])):
        (tmp_path / name).mkdir()
        out = run_generate(tmp_path / name,
                           {"metric": {"nx": 32, "ny": 32, "harmonics": harmonics}, "chain": []})
        pairs[name] = [str(out / "pair.json"), str(out / "trivializer.json")]

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the step was checked")

    for name in ("mode_residuals", "TransportContext", "integrate_geodesic"):
        monkeypatch.setattr(cc, name, refuse)
    transport = ["transport", pairs["flat"][0], "--x", "0.2", "--y", "0.7", "--theta", "1.1",
                 "--t-final", "1.0", "--out", str(tmp_path / "t.csv")]
    for argv, geodesic, cocycle in (
        (["verify", *pairs["flat"], "--dt", "0.5"], "0.25", "0.5"),
        (transport + ["--dt", "0.5"], "0.25", "0.5"),
        (["verify", *pairs["flat"], "--dt", "0.02", "--geodesics", "7"], "0.0100072", "0.0200144"),
        (["verify", *pairs["curved"], "--t-final", "0.025", "--dt", "0.02"], "0.0125", "0.025"),
    ):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_BADINPUT, argv
        assert (f"geodesic step {geodesic} exceeds 0.01 * min(Lx, Ly) = 0.01 "
                f"(half of the cocycle step {cocycle})") in capsys.readouterr().err, argv
    assert not (tmp_path / "t.csv").exists()


def test_step_count_beyond_max_steps_exits_before_any_computation(tmp_path, monkeypatch,
                                                                  capsys):
    """A run of more than torus.MAX_STEPS steps is bad input, refused before
    any computation: step_count itself, verify on a flat pair of side 1e300
    (its closed geodesics are about 1e300 long) and a transport whose
    --t-final asks for 1e9 steps.  Spies make any computation fail, so no
    such run starts."""
    with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
        step_count(TorusMetric.flat(16, 16), 1e3 * MAX_STEPS, 1e-3)
    assert step_count(TorusMetric.flat(16, 16), MAX_STEPS * 1e-3, 1e-3) == MAX_STEPS
    out = run_generate(tmp_path, {"metric": {"nx": 16, "ny": 16, "lx": 1e300}, "chain": []})

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the step count was checked")

    for name in ("mode_residuals", "TransportContext", "integrate_geodesic"):
        monkeypatch.setattr(cc, name, refuse)
    pair = str(out / "pair.json")
    for argv in (["verify", pair, str(out / "trivializer.json")],
                 ["transport", pair, "--x", "0.2", "--y", "0.7", "--theta", "1.1",
                  "--t-final", "1e6", "--out", str(tmp_path / "t.csv")]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_BADINPUT, argv
        assert "exceeds MAX_STEPS" in capsys.readouterr().err, argv
    assert not (tmp_path / "t.csv").exists()


def test_verify_total_steps_beyond_max_steps_exit_before_any_computation(tmp_path, monkeypatch,
                                                                        capsys):
    """Each run of verify may pass step_count while all of them together
    ask for more than MAX_STEPS cocycle steps: on a flat 16^2 pair at the
    default --dt, 1000 closed geodesics take 2.16e7 steps, which is bad input
    that names the total.  20000 runs take at least 20000 times the 1000
    steps of the shortest closed geodesic, a bound refused before the run
    list is built, and so is a --geodesics count above MAX_STEPS.  Spies
    make any computation fail, so no such run starts."""
    out = run_generate(tmp_path, {"metric": {"nx": 16, "ny": 16}, "chain": []})
    verify = ["verify", str(out / "pair.json"), str(out / "trivializer.json")]

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the total step count was checked")

    for name in ("mode_residuals", "TransportContext", "integrate_geodesic"):
        monkeypatch.setattr(cc, name, refuse)
    capsys.readouterr()
    assert cli.main(verify + ["--geodesics", "1000"]) == cli.EXIT_BADINPUT
    assert ("the 1000 geodesic runs take 2.16e+07 cocycle steps in total, which "
            f"exceeds MAX_STEPS = {MAX_STEPS}") in capsys.readouterr().err
    monkeypatch.setattr(cli, "_geodesic_runs", refuse)
    assert cli.main(verify + ["--geodesics", "20000"]) == cli.EXIT_BADINPUT
    assert ("the 20000 geodesic runs take at least 2e+07 cocycle steps in total, which "
            f"exceeds MAX_STEPS = {MAX_STEPS}") in capsys.readouterr().err
    assert cli.main(verify + ["--geodesics", str(MAX_STEPS + 1)]) == cli.EXIT_BADINPUT
    assert (f"--geodesics {MAX_STEPS + 1} exceeds MAX_STEPS = {MAX_STEPS}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("metric, t_final, dt, accepted", [
    ("flat", 1.0, 0.0201, True),  # 50 steps of 0.02, though 0.0201 itself is too large
    ("flat", 1.0, 0.02, True),
    ("flat", 1.0, 0.021, False),  # 48 steps of 0.0208
    ("curved", 0.04, 0.02, True),
    ("curved", 0.025, 0.02, False),  # one step of 0.025
    ("curved", -0.03, 0.02, True),  # two steps of 0.015
])
def test_verify_and_transport_refuse_the_same_steps(tmp_path, capsys, metric, t_final, dt,
                                                     accepted):
    """verify accepts exactly the (T, dt) that transport accepts: both check
    the step taken, |T| / round(|T| / dt), not the requested dt.  On the
    flat unit torus verify runs the closed geodesics of slopes (1, 0) and
    (0, 1), each for T = 1, and on a curved one each run takes --t-final."""
    harmonics = [] if metric == "flat" else [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]]
    out = run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32, "harmonics": harmonics},
                                  "chain": []})
    pair = str(out / "pair.json")
    times = ["--t-final", repr(t_final), "--dt", repr(dt)]
    expected = cli.EXIT_OK if accepted else cli.EXIT_BADINPUT
    assert cli.main(["verify", pair, str(out / "trivializer.json"), "--geodesics", "2",
                     *times]) == expected
    assert cli.main(["transport", pair, "--x", "0.2", "--y", "0.7", "--theta", "1.1", *times,
                     "--out", str(tmp_path / "t.csv")]) == expected
    assert ("geodesic step" in capsys.readouterr().err) != accepted


def test_verify_report_fails_on_nan():
    """No verdict passes on NaN, even where Python's max would drop it.  A
    NaN in phi reaches every mode row but structure, which reads the
    trivializer alone; a NaN there reaches structure."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [[0.1, 1, 0]])
    good = generate_chain(met, CONST_CHAIN["chain"]).final
    phi = good.higgs.phi.copy()
    phi[0, 0, 0] = np.nan
    pair = Pair(good.conn, Higgs(met, phi), good.trivializer)
    rows = cc.mode_residuals(pair)
    assert np.isfinite(rows["structure"])
    coef = good.trivializer.coef.copy()
    coef[1, 0, 1, 0, 0] = np.nan
    nan_u = Pair(good.conn, good.higgs, sm.FourierField.band(met, coef))
    rows["structure"] = cc.mode_residuals(nan_u)["structure"]
    for k, v in rows.items():
        assert np.isnan(v), k
        assert not passes(v, cli.DEFAULT_TOLS[k])
    del rows["structure"]
    report = cli._verify_report(pair, {}, seed=0, geodesic_count=1, t_final=0.5, dt=1e-2)
    assert report["pass"] is False
    nan_keys = [k for k, v in report["residuals"].items() if np.isnan(v)]
    assert set(rows) <= set(nan_keys) <= set(report["failures"])


def test_verify_builds_the_transport_band_once(monkeypatch):
    """transport and recurrence are read from one band per report."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [[0.1, 1, 0]])
    pair = generate_chain(met, CONST_CHAIN["chain"]).final
    calls = []
    band = cc._transport_band
    monkeypatch.setattr(cc, "_transport_band", lambda p: calls.append(p) or band(p))
    report = cli._verify_report(pair, {}, seed=0, geodesic_count=1, t_final=0.5, dt=1e-2)
    assert report["pass"] is True
    assert len(calls) == 1


# the chains of the three benchmark workloads (perfbench/run.py), the
# flat-elliptic chain on the curved metric: the one curved chain here whose
# first step carries a Higgs field and whose connection is not abelian; each
# on a grid just large enough for its gates; and a curved and a flat chain on
# grids with nx != ny, where numpy's @ on two (3, 3, ny, nx) grids raises
# instead of multiplying the (ny, nx) planes as matrices
CURVED = [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]]
REPEAT = {"kind": "repeat-q"}
ELLIPTIC = {"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]}
WORKLOAD_CHAINS = {
    "flat-elliptic": {"metric": {"nx": 48, "ny": 48}, "chain": [ELLIPTIC, REPEAT]},
    "curved-transport": {"metric": {"nx": 32, "ny": 32, "harmonics": CURVED},
                         "chain": [CONST_CHAIN["chain"][0], REPEAT]},
    "deep-chain": {"metric": {"nx": 32, "ny": 32, "harmonics": CURVED},
                   "chain": [CONST_CHAIN["chain"][0]] + [REPEAT] * 5},
    "curved-elliptic": {"metric": {"nx": 48, "ny": 48, "harmonics": CURVED},
                        "chain": [ELLIPTIC, REPEAT]},
    "curved-nonsquare": {"metric": {"nx": 32, "ny": 48, "harmonics": CURVED},
                         "chain": [CONST_CHAIN["chain"][0], REPEAT]},
    "flat-nonsquare": {"metric": {"nx": 64, "ny": 48}, "chain": [ELLIPTIC, REPEAT]},
}


@pytest.mark.parametrize("workload", WORKLOAD_CHAINS)
def test_real_fields_take_one_eta_and_float64_products(tmp_path, monkeypatch, workload):
    """Pairs, trivializers and Backlund factors are real on SM, so in
    generate, verify and reduce every x_op takes one eta_minus and no
    eta_plus, of its modes -K..K (a conjugate-symmetric stack), eta_plus
    runs only on grids that are not such a stack (the energy identity's
    one-mode grids), and every 3x3 product of two factors with more than one
    fiber sample multiplies float64 by float64 (the einsum form of
    _matmul3).  so(3) fields run on vee triples: the one frame_ops of verify
    (the H0 rows) and every d_A of generate and reduce (the section's
    covariant derivative) hand eta_minus a conjugate-symmetric stack of
    (3, ny, nx) triples, and every other x_op one of 3x3 grids."""
    etas, per_x, per_frame, per_d_a, sampled = [], [], [], [], []
    verb = [None]

    def eta(sign, fn):
        def wrapped(metric, grids, ms, twist=None):
            ms = np.asarray(ms)
            real = (np.array_equal(ms, -ms[::-1])
                    and np.array_equal(grids, np.conj(grids[::-1])))
            etas.append((sign, real, grids.shape[1:]))
            return fn(metric, grids, ms, twist)
        return wrapped

    def spy(log, fn):
        def wrapped(*args):
            start = len(etas)
            out = fn(*args)
            log.append((verb[0], etas[start:]))
            return out
        return wrapped

    def matmul3(a, b, fn=sm._matmul3):
        if min(np.prod(a.shape[:-4]), np.prod(b.shape[:-4])) > 1:
            sampled.append((a.dtype, b.dtype))
        return fn(a, b)

    monkeypatch.setattr(sm, "_matmul3", matmul3)
    monkeypatch.setattr(sm, "eta_plus", eta("+", sm.eta_plus))
    monkeypatch.setattr(sm, "eta_minus", eta("-", sm.eta_minus))
    monkeypatch.setattr(sm, "x_op", spy(per_x, sm.x_op))
    monkeypatch.setattr(sm, "frame_ops", spy(per_frame, sm.frame_ops))
    monkeypatch.setattr(sm, "d_A", spy(per_d_a, sm.d_A))
    doc = WORKLOAD_CHAINS[workload]
    n = (doc["metric"]["ny"], doc["metric"]["nx"])
    verb[0] = "generate"
    out = run_generate(tmp_path, doc)
    pair, triv = str(out / "pair.json"), str(out / "trivializer.json")
    verb[0] = "verify"
    assert cli.main(["verify", pair, triv, "--geodesics", "1", "--t-final", "0.2",
                     "--dt", "2e-3"]) == cli.EXIT_OK
    verb[0] = "reduce"
    assert cli.main(["reduce", pair, triv, "--outdir", str(tmp_path / "r")]) == cli.EXIT_OK
    triples, grids = [("-", True, (3,) + n)], [("-", True, (3, 3) + n)]
    assert {v for v, _ in per_d_a} == {"generate", "reduce"}
    assert all(calls == triples for _, calls in per_d_a)
    assert per_x and all(calls in (triples, grids) for _, calls in per_x)
    assert [calls for _, calls in per_x].count(triples) == len(per_d_a)
    h0 = [calls for v, calls in per_frame if v == "verify"]
    assert h0 == [triples]
    assert ("-", True, (3, 3) + n) in etas
    assert not any(sign == "+" and real for sign, real, _ in etas)
    assert sampled and set(sampled) == {(np.dtype(np.float64), np.dtype(np.float64))}


def test_curved_elliptic_chain_generates_verifies_and_reduces(tmp_path, capsys):
    """The elliptic factory needs only the conformal structure, so an
    elliptic step and its repeat-q certify on a curved metric, and the pair,
    whose connection is not abelian, passes verify (cocycle row included)
    and reduce."""
    out = run_generate(tmp_path, WORKLOAD_CHAINS["curved-elliptic"])
    printed = float(capsys.readouterr().out.split("worst residual ")[1].rstrip(")\n"))
    assert printed < 1e-7
    pair, triv = str(out / "pair.json"), str(out / "trivializer.json")
    report = tmp_path / "report.json"
    assert cli.main(["verify", pair, triv, "--geodesics", "2",
                     "--report", str(report)]) == cli.EXIT_OK
    doc = fio.load_json(report)
    assert doc["pass"] is True and doc["residuals"]["cocycle"] < 1e-6
    conn = fio.load_pair(out / "pair.json").conn
    a, b = hat(conn.a, axis=-3), hat(conn.b, axis=-3)
    assert np.abs(plane_matmul3(a, b) - plane_matmul3(b, a)).max() > 1.0  # not abelian
    red = tmp_path / "red"
    assert cli.main(["reduce", pair, triv, "--outdir", str(red)]) == cli.EXIT_OK
    assert fio.load_json(red / "reduction_report.json")["residuals"]["reduced-field"] < 1e-7


def _bad_payloads(payload):
    """Corruptions of a field file's base64 mode grid, each with a word of
    the message it draws."""
    grid = read_mode_grid(payload)
    yield payload[:-4], "bytes"  # one float short of a whole grid
    yield payload[:-1], "base64"  # broken padding
    yield payload + "AAAAAAAAAAA=", "bytes"  # one float too many
    # a lenient decoder would skip an inserted character and read the grid
    yield payload[:8] + "*" + payload[8:], "base64"
    yield payload[:8] + " " + payload[8:], "base64"
    yield payload[:8] + "\n" + payload[8:], "base64"
    yield payload[:8] + "\u00e9" + payload[9:], "base64"
    yield grid.tolist(), "base64 string"  # the number list of format 2
    yield None, "base64 string"
    for bad in (np.nan, np.inf, -np.inf):
        changed = grid.copy()
        changed[5] = bad
        yield mode_grid_payload(changed), "non-finite"


def test_bad_field_payloads_exit_2(tmp_path, capsys):
    """A trivializer mode grid that is not the base64 of exactly ny * nx * 9
    finite float64 values is bad input to every verb that reads it."""
    out = run_generate(tmp_path, CONST_CHAIN)
    pair, triv = out / "pair.json", out / "trivializer.json"
    verbs = (["verify", str(pair), str(triv)],
             ["reduce", str(pair), str(triv), "--outdir", str(tmp_path / "r")],
             ["export", str(triv), "--out", str(tmp_path / "o.pgm")])
    good = triv.read_bytes()
    for m, key in ((0, "re"), (1, "im")):
        for bad, message in _bad_payloads(json.loads(good)["modes"][m][key]):
            doc = json.loads(good)
            doc["modes"][m][key] = bad
            triv.write_text(json.dumps(doc))
            for argv in verbs:
                capsys.readouterr()
                assert cli.main(argv) == cli.EXIT_BADINPUT, (m, key, message, argv[0])
                assert message in capsys.readouterr().err, (m, key, message, argv[0])
    assert not (tmp_path / "r").exists()
    triv.write_bytes(good)
    assert cli.main(verbs[1]) == cli.EXIT_OK


def test_huge_degree_exits_2_promptly(tmp_path, capsys):
    """A trivializer's "degree" is checked against the number of modes the
    file lists before it sizes anything: 10^12 exits 2 at once, where
    listing its mode numbers first would take hours and terabytes."""
    out = run_generate(tmp_path, CONST_CHAIN)
    triv = out / "trivializer.json"
    doc = json.loads(triv.read_text())
    doc["degree"] = 10**12
    triv.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(["verify", str(out / "pair.json"), str(triv)]) == cli.EXIT_BADINPUT
    assert time.perf_counter() - start < 5.0
    assert "m = 0..degree" in capsys.readouterr().err


def test_verify_detects_corruption(tmp_path, capsys):
    out = run_generate(tmp_path, CONST_CHAIN)
    doc = fio.load_json(out / "pair.json")
    # vee triples: (y * nx + x) * 3 + k; pick x = nx/4 where the metric
    # harmonic has maximal slope, so the entry is nonzero
    idx = (0 * 48 + 12) * 3 + 2
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


def test_verify_fails_structure_on_perturbed_mode_one(tmp_path, capsys):
    """A file holds the modes m >= 0 of the trivializer and the reader
    rebuilds m < 0 by conjugation, so reality holds by construction; a
    corrupted mode 1 leaves u off SO(3), and the orthogonality part of the
    structure residual catches it."""
    out = run_generate(tmp_path, CONST_CHAIN)
    doc = fio.load_json(out / "trivializer.json")
    (entry,) = [e for e in doc["modes"] if e["m"] == 1]
    entry["re"] = mode_grid_payload(1.01 * read_mode_grid(entry["re"]))
    entry["im"] = mode_grid_payload(1.01 * read_mode_grid(entry["im"]))
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
    data = read_transport_csv(csv)
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
    assert pair.conn.as_field().l2_norm() < 1e-5  # undoing the only step: back to trivial


def test_failed_output_gates_exit_1_and_write_nothing(tmp_path, monkeypatch, capsys):
    """generate gates every step's output at the cert tolerance and reduce
    gates the reduced pair at DEFAULT_CERT_TOL; a miss exits 1 before any
    file or directory is written.  The one-step chain's output residual is
    about 2.4e-15; the reduced pair's, about 7.5e-16, is reported as 1.0
    here, after the input pair has passed its own gate."""
    one = {"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 1, 0]]},
           "chain": [{"kind": "constant", "axis": [0.6, 0.0, 0.8]}]}
    cfg = write_config(tmp_path, {**one, "tolerances": {"cert": 1e-18}}, "strict.json")
    assert cli.main(["generate", cfg, "--outdir", str(tmp_path / "strict")]) == cli.EXIT_FAIL
    assert "OutputNotCertified" in capsys.readouterr().err
    assert not (tmp_path / "strict").exists()
    out = run_generate(tmp_path, one)
    field = bk.transport_residual_field
    monkeypatch.setattr(bk, "transport_residual_field",
                        lambda p: 1.0 if p.trivializer.degree == 0 else field(p))
    rc = cli.main([
        "reduce", str(out / "pair.json"), str(out / "trivializer.json"),
        "--outdir", str(tmp_path / "red"),
    ])
    assert rc == cli.EXIT_FAIL
    assert "reduced field residual" in capsys.readouterr().err
    assert not (tmp_path / "red").exists()


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
    img = read_pgm(png)
    assert img.shape == (96, 96)
    assert img.max() == 255.0  # min-max scaled
    rc = cli.main([
        "export", str(out / "trivializer.json"),
        "--selector", "1,0,0,abs", "--bits", "16",
        "--out", str(tmp_path / "u.pgm"),
    ])
    assert rc == cli.EXIT_OK
    assert read_pgm(tmp_path / "u.pgm").max() == 65535.0


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
    # two elliptic steps of scale 2.5: on a 48^2 grid the first section
    # already reads 7.6e-4 on the holomorphy gate, so generate must fail loudly
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


FAULT_GUARD = """
import io, json, os, resource, sys
from contextlib import redirect_stdout
from cocyclelab import cli

work = sys.argv[1]
cfg = os.path.join(work, "config.json")
with open(cfg, "w") as f:
    json.dump({"metric": {"nx": 48, "ny": 48}, "chain": [
        {"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]},
        {"kind": "repeat-q"}]}, f)
out = os.path.join(work, "out")

def run(*argv):
    with redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != cli.EXIT_OK:
        sys.exit(f"{argv[0]} exited {rc}")

run("generate", cfg, "--outdir", out)
faults = []
for k in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run("verify", os.path.join(out, "pair.json"), os.path.join(out, "trivializer.json"),
        "--report", os.path.join(work, f"report{k}.json"))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_repeated_verify_reuses_heap_pages(tmp_path):
    """A second flat 48^2 verify in one process finds the pages the first one
    freed still in the heap: without fixed thresholds glibc trims them and
    the run faults about 18k pages in again."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert faults[1] < 2000, faults
    assert (tmp_path / "report0.json").read_bytes() == (tmp_path / "report1.json").read_bytes()


@pytest.mark.parametrize("cdll", ["raises", "no-mallopt"])
def test_heap_thresholds_are_best_effort(tmp_path, monkeypatch, cdll):
    """No libc to load, or one without mallopt, leaves the heap as it is and
    the verb runs as before."""
    def fake_cdll(name, *args, **kwargs):
        if cdll == "raises":
            raise OSError("no libc")
        return object()

    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    run_generate(tmp_path, {"metric": {"nx": 32, "ny": 32}, "chain": []})
