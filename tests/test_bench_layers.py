"""The benchmark leans on the package in two places: its traced run wraps
entry points by name (perfbench/tracer.py, LAYERS), and its self-test
corrupts a pair file by searching for a fixed prefix of the phi block
(perfbench/selftest.py).  Both files are read here, not edited."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

from cocyclelab import cli, fieldio as fio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SELFTEST = PERFBENCH / "selftest.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _, _ in tracer.LAYERS:
        owner = importlib.import_module(f"cocyclelab.{modname}")
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or not callable(getattr(owner, name, None)):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"traced layers missing from cocyclelab: {missing}"


def test_selftest_nan_prefix_precedes_a_number_in_a_pair_file(tmp_path):
    """The self-test writes NaN over the text between its `head` literal and
    the next comma; that text must be a float of a freshly written pair."""
    heads = [node.value.value for node in ast.walk(ast.parse(SELFTEST.read_text()))
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and getattr(node.targets[0], "id", None) == "head"]
    assert len(heads) == 1, heads
    cfg = tmp_path / "config.json"
    fio.save_json(cfg, {"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 1, 0]]},
                        "chain": [{"kind": "constant", "axis": [0.6, -0.48, 0.64]}]})
    assert cli.main(["generate", str(cfg), "--outdir", str(tmp_path)]) == cli.EXIT_OK
    text = (tmp_path / "pair.json").read_text()
    at = text.index(heads[0]) + len(heads[0])
    assert re.match(r"-?[0-9]+(\.[0-9]*)?(e[-+]?[0-9]+)?,", text[at:]), text[at:at + 40]
    # the self-test's edit: that number becomes NaN, which verify refuses as bad input
    end = text.index(",", at)
    (tmp_path / "pair.json").write_text(text[:at] + "NaN" + text[end:])
    argv = ["verify", str(tmp_path / "pair.json"), str(tmp_path / "trivializer.json")]
    assert cli.main(argv) == cli.EXIT_BADINPUT
