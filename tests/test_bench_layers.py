"""The benchmark's traced run wraps package entry points by name
(perfbench/tracer.py, LAYERS); each must still exist in cocyclelab."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
