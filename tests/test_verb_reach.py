"""src/ holds only what a verb runs.

Every verb runs under sys.setprofile on a curved and a flat chain, and each
public module-level function of the package must be entered at least once.
A function that only the tests call belongs in tests/oracles.py.  No module
imports a name it never reads."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import cocyclelab
from cocyclelab import cli, fieldio as fio

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Exempt: the functions that perfbench/tracer.py wraps by name (refine_grid
# and recurrence_residuals have no verb behind them, and stay until the
# benchmark changes: ROADMAP item 6), and gauge_transform, which the closing
# certificate of a peel to degree zero will run (ROADMAP item 3).
WAITING = {"cocycle.gauge_transform"}

CHAINS = {
    "curved": {"metric": {"nx": 32, "ny": 32, "harmonics": [[0.1, 1, 0], [0.04, 1, 1, 0.5, 1.2]]},
               "chain": [{"kind": "constant", "axis": [0.6, -0.48, 0.64]},
                         {"kind": "repeat-q"}]},
    "flat": {"metric": {"nx": 48, "ny": 48},
             "chain": [{"kind": "elliptic", "scale": [0.3, 0.1], "offset": [0.15, -0.1]},
                       {"kind": "repeat-q"}]},
}


def _traced_layers() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{modname}.{attr}" for modname, attr, _, _ in tracer.LAYERS}


def _public_functions() -> dict:
    """Code object -> "module.name" of every public function defined at module
    level in the package."""
    found = {}
    for info in pkgutil.iter_modules(cocyclelab.__path__):
        module = importlib.import_module(f"cocyclelab.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[obj.__code__] = f"{info.name}.{name}"
    return found


def _run_verbs(tmp_path, name: str, doc: dict) -> None:
    cfg = tmp_path / f"{name}.json"
    fio.save_json(cfg, doc)
    out = tmp_path / name
    pair, triv = str(out / "pair.json"), str(out / "trivializer.json")
    for argv in (
        ["generate", str(cfg), "--outdir", str(out)],
        ["verify", pair, triv, "--geodesics", "1", "--t-final", "1.0", "--dt", "2e-3",
         "--report", str(out / "report.json")],
        ["reduce", pair, triv, "--outdir", str(out / "reduced")],
        ["transport", pair, "--x", "0.2", "--y", "0.7", "--theta", "1.1",
         "--t-final", "0.5", "--out", str(out / "t.csv")],
        ["export", pair, "--out", str(out / "phi.pgm")],
        ["export", triv, "--selector", "1,0,1,re", "--out", str(out / "u.pgm")],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv


def test_every_public_function_is_run_by_a_verb(tmp_path, capsys):
    public = _public_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for name, doc in CHAINS.items():
            _run_verbs(tmp_path, name, doc)
    finally:
        sys.setprofile(None)
    unreached = sorted(set(public.values()) - {public[c] for c in reached}
                       - _traced_layers() - WAITING)
    assert not unreached, f"public functions no verb runs: {unreached}"


def _unused_imports(source: str) -> list[str]:
    """The names a module's import statements bind and its code never reads:
    a name counts as read when it is loaded anywhere, including inside a
    string annotation, or listed in __all__.  __future__ imports bind
    nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    trees = [tree]
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                     + [args.vararg, args.kwarg] if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        trees += [ast.parse(n.value, mode="eval") for n in notes
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            trees += [ast.parse(e.value, mode="eval") for e in node.value.elts]
    read = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    sample = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from .a import b, c, d\n__all__ = ['d']\n"
              "def f(x: 'c') -> float:\n    return np.pi * x\n")
    assert _unused_imports(sample) == ["b (line 4)", "math (line 2)"]
    src = Path(cocyclelab.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}
