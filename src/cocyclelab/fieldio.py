"""Deterministic file formats: JSON fields and pairs, transport CSV, PGM heatmaps.

Every float is written as its ``.17g`` token, which round-trips float64
exactly and makes outputs byte-identical for identical inputs; an
integer-valued float that ``.17g`` prints as bare digits carries a ``.0``
(``1.0``, ``-0.0``), so every float token has a '.', an 'e' or both.  Float
arrays (mode grids, ``metric_lambda``) are checked and formatted as a whole:
one finiteness test and one format string per array, with the same tokens as
the scalar formatter.  NaN and infinity are never written, and reading a
field or pair rejects a non-finite value in any number it reads (grid
header, metric, mode blocks), including literals such as ``1e999`` that
overflow to infinity, with ValueError (exit 2 at the command line).  The
field schema is one flat layout shared by every field type:

    {"grid": {"nx", "ny", "lx", "ly"},
     "metric_lambda": [row-major reals],
     "degree": N,
     "modes": [{"m": int, "re": [...], "im": [...]}, ...]}

Mode entries are row-major in (y, x), then 3x3 row-major.  Pair files bundle
three such mode blocks (connection coefficients a, b and the Higgs field)
over one grid header.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

from .smfield import Connection, FourierField, Higgs, Pair
from .torus import Harmonic, TorusMetric

FLOAT_FMT = ".17g"


# -- canonical JSON ------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        raise ValueError("non-finite value cannot be serialized")
    s = format(float(x), FLOAT_FMT)
    # keep a uniform token shape: every float carries a '.', 'e' or sign
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def _emit_floats(a: np.ndarray, out: list) -> None:
    """A 1-d float64 array in one pass, with the tokens of _fmt_float."""
    if not np.isfinite(a).all():
        raise ValueError("non-finite value cannot be serialized")
    # .17g prints bare digits exactly for the integer values below 1e17, and
    # %.1f prints those same digits followed by the ".0" _fmt_float appends
    bare = (a == np.floor(a)) & (np.abs(a) < 1e17)
    fmt = ",".join(np.where(bare, "%.1f", "%.17g").tolist())
    out.append("[" + fmt % tuple(a.tolist()) + "]")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _emit(str(k), out)
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1:
        _emit_floats(obj, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


def save_json(path, obj) -> str:
    """Write canonical JSON; returns the sha256 of the bytes written."""
    data = dumps_canonical(obj).encode()
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in input")


def load_json(path):
    """Parse a JSON file; the non-standard NaN and Infinity tokens that
    Python's json module would accept are rejected with ValueError."""
    import json

    with open(path, "rb") as f:
        return json.loads(f.read().decode(), parse_constant=_reject_constant)


# -- field schema --------------------------------------------------------------------


def _grid_header(metric: TorusMetric) -> dict:
    head = {
        "grid": {"nx": metric.nx, "ny": metric.ny, "lx": metric.lx, "ly": metric.ly},
        "metric_lambda": metric.lam.ravel(),
    }
    if metric.harmonics is not None:
        head["metric_harmonics"] = [
            {"amp": h.amp, "kx": h.kx, "ky": h.ky,
             "phase_x": h.phase_x, "phase_y": h.phase_y}
            for h in metric.harmonics
        ]
    return head


def _finite(values) -> np.ndarray:
    """Numbers read from a file as a float array.  json parses a literal such
    as 1e999 to infinity, so a non-finite number is rejected here."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("non-finite value in input")
    return a


def metric_from_header(doc: dict) -> TorusMetric:
    g = doc["grid"]
    _finite([g["nx"], g["ny"], g["lx"], g["ly"]])
    nx, ny = int(g["nx"]), int(g["ny"])
    lam = _finite(doc["metric_lambda"]).reshape(ny, nx)
    harm = doc.get("metric_harmonics")
    if harm is not None:
        _finite([[h["amp"], h["kx"], h["ky"], h.get("phase_x", 0.0), h.get("phase_y", 0.0)]
                 for h in harm])
        return TorusMetric.from_harmonics(
            nx, ny, float(g["lx"]), float(g["ly"]),
            [Harmonic(h["amp"], int(h["kx"]), int(h["ky"]),
                      h.get("phase_x", 0.0), h.get("phase_y", 0.0)) for h in harm],
        )
    return TorusMetric.from_grid(float(g["lx"]), float(g["ly"]), lam)


def _mode_block(field: FourierField) -> dict:
    modes = [{"m": m, "re": c.real.ravel(), "im": c.imag.ravel()}
             for m, c in field.modes.items()]
    return {"degree": field.degree, "modes": modes}


def _field_from_block(metric: TorusMetric, block: dict) -> FourierField:
    shape = (metric.ny, metric.nx, 3, 3)
    modes = {}
    for entry in block["modes"]:
        re = _finite(entry["re"]).reshape(shape)
        im = _finite(entry["im"]).reshape(shape)
        modes[int(_finite(entry["m"]))] = re + 1j * im
    return FourierField(metric, modes)


def field_to_json(field: FourierField) -> dict:
    doc = _grid_header(field.metric)
    doc.update(_mode_block(field))
    return doc


def field_from_json(doc: dict, metric: TorusMetric | None = None) -> FourierField:
    met = metric if metric is not None else metric_from_header(doc)
    return _field_from_block(met, doc)


def save_field(path, field: FourierField) -> str:
    return save_json(path, field_to_json(field))


def load_field(path, metric: TorusMetric | None = None) -> FourierField:
    return field_from_json(load_json(path), metric=metric)


# -- pairs ---------------------------------------------------------------------------


def pair_to_json(pair: Pair) -> dict:
    met = pair.metric
    doc = _grid_header(met)
    doc["a"] = _mode_block(FourierField(met, {0: pair.conn.a.astype(complex)}))
    doc["b"] = _mode_block(FourierField(met, {0: pair.conn.b.astype(complex)}))
    doc["phi"] = _mode_block(FourierField(met, {0: pair.higgs.phi.astype(complex)}))
    return doc


def pair_from_json(doc: dict) -> Pair:
    met = metric_from_header(doc)
    a = _field_from_block(met, doc["a"]).mode(0).real
    b = _field_from_block(met, doc["b"]).mode(0).real
    phi = _field_from_block(met, doc["phi"]).mode(0).real
    return Pair(Connection(met, a, b), Higgs(met, phi))


def save_pair(path, pair: Pair) -> str:
    return save_json(path, pair_to_json(pair))


def load_pair(path, trivializer_path=None) -> Pair:
    pair = pair_from_json(load_json(path))
    if trivializer_path is not None:
        triv = load_field(trivializer_path, metric=pair.metric)
        pair = Pair(pair.conn, pair.higgs, trivializer=triv)
    return pair


# -- transport CSV -------------------------------------------------------------------

CSV_HEADER = "t,c11,c12,c13,c21,c22,c23,c31,c32,c33,drift"


def write_transport_csv(path, result) -> None:
    """One row per saved sample: time, the nine entries of C row-major, and
    the orthogonality drift ||C^T C - Id||_F."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for t, c, d in zip(result.times, result.matrices, result.drift):
        row = [format(t, FLOAT_FMT)]
        row.extend(format(v, FLOAT_FMT) for v in c.ravel())
        row.append(format(d, FLOAT_FMT))
        buf.write(",".join(row) + "\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def read_transport_csv(path) -> dict:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "times": data[:, 0],
        "matrices": data[:, 1:10].reshape(-1, 3, 3),
        "drift": data[:, 10],
    }


# -- PGM heatmaps --------------------------------------------------------------------


def write_pgm(path, image: np.ndarray, bits: int = 8) -> tuple[float, float]:
    """Binary PGM (P5), min-max scaled; writes <path>.txt with the scale so
    pixel values can be mapped back to field values.  Returns (lo, hi)."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("heatmap needs a 2-d array")
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo
    maxval = (1 << bits) - 1
    if span == 0.0:
        scaled = np.zeros_like(img)
    else:
        scaled = np.round((img - lo) / span * maxval)
    ny, nx = img.shape
    header = f"P5\n{nx} {ny}\n{maxval}\n".encode()
    if bits == 8:
        payload = scaled.astype(np.uint8).tobytes()
    else:
        payload = scaled.astype(">u2").tobytes()
    with open(path, "wb") as f:
        f.write(header + payload)
    with open(str(path) + ".txt", "w") as f:
        f.write(f"min {format(lo, FLOAT_FMT)}\n")
        f.write(f"max {format(hi, FLOAT_FMT)}\n")
        f.write(f"maxval {maxval}\n")
        f.write("value = min + pixel / maxval * (max - min)\n")
    return lo, hi


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM back into pixel values (not rescaled)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM file")
    parts = data.split(b"\n", 3)
    nx, ny = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    raw = parts[3]
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    img = np.frombuffer(raw, dtype=dtype, count=nx * ny).reshape(ny, nx)
    return img.astype(float)


def heatmap_from_field(field: FourierField, selector: str) -> np.ndarray:
    """Turn a field into a 2-d image.

    Selectors: "norm" for sqrt(sum_m ||c_m||_F^2) pointwise, or
    "m,i,j,part" with part in re/im/abs for a single matrix entry of one mode.
    """
    sel = selector.strip().lower()
    if sel == "norm":
        return np.sqrt((np.abs(field.coef) ** 2).sum(axis=(0, 1, 2)))
    parts = [p.strip() for p in sel.split(",")]
    if len(parts) != 4:
        raise ValueError(f"bad selector {selector!r}: want 'norm' or 'm,i,j,part'")
    try:
        m, i, j = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad selector {selector!r}: non-integer indices") from exc
    if not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"bad selector {selector!r}: entry indices out of range")
    comp = field.mode(m)[..., i, j]
    if parts[3] == "re":
        return comp.real.copy()
    if parts[3] == "im":
        return comp.imag.copy()
    if parts[3] == "abs":
        return np.abs(comp)
    raise ValueError(f"bad selector {selector!r}: part must be re, im or abs")
