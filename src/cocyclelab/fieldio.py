"""Deterministic file formats: JSON fields and pairs, transport CSV, PGM heatmaps.

Every float written as text is its shortest round-trip token (Python's
``repr``, which json.dumps also writes), so a value reads back bit for bit
and identical inputs give identical bytes.  JSON is written by one
json.dumps call with no spaces.  NaN and infinity are never written (the
encoder raises ValueError), and reading a field or pair rejects a
non-finite value in any number it reads (grid header, metric, mode blocks),
including literals such as ``1e999`` that overflow to infinity, with
ValueError (exit 2 at the command line).

Field and pair files are format 3, which stores only the numbers the
mathematics leaves free.  A field is real on SM and holds its modes
m = 0..degree only (smfield), and a file holds the same modes: mode 0 as its
real part, the others as real and imaginary parts, read back into the
field's band as they stand.  An so(3)-valued grid is stored as its vee
triples and rebuilt with hat.  The field schema:

    {"format": 3,
     "grid": {"nx", "ny", "lx", "ly"},
     "metric_lambda": [row-major reals],
     "metric_harmonics": [{"amp", "kx", "ky", "phase_x", "phase_y"}, ...],
     "values": "matrix" | "so3",
     "degree": N,
     "modes": [{"m": 0, "re": "<base64>"}, {"m": 1, "re": "...", "im": "..."}, ...,
               {"m": N, "re": "...", "im": "..."}]}

Each mode grid is row-major in (y, x), then 3x3 row-major ("matrix", 9
numbers a point) or the vee triple (v1, v2, v3) of hat(v) ("so3", 3 numbers
a point).  In a field file each "re" and "im" grid is one JSON string: the
standard base64 alphabet, without newlines, of the grid's little-endian
float64 bytes, so a field reads back bit for bit without printing or parsing
a float.  The reader rejects with ValueError a payload that is not a
string, holds a character outside the alphabet or wrong padding, decodes to
other than 8 * ny * nx * (9 or 3) bytes, or decodes to a non-finite value.

A pair file has the same header without "values", "degree" and "modes", and
three so(3)-valued mode-0 blocks: the connection coefficients "a" and "b"
and the Higgs field "phi", each {"degree": 0, "modes": [{"m": 0, "re": [vee
triples]}]}, the triples a pair holds in memory, moved as they stand.  A
pair keeps its grids as number lists: it holds a small part of a chain's
floats, and stays readable and editable as text.  A file without
"format": 3 is rejected with ValueError.

The field writer drops numbers only where they are redundant to
STRUCTURE_TOL, verify's structure tolerance: an so(3) field whose
antisymmetry residual exceeds it raises StructureViolated (a failed check,
exit 1) and writes nothing.

The metric is read from its harmonic series; metric_lambda is that series
sampled on the grid, and a file whose metric_lambda differs from it by more
than LAMBDA_TOL, or that has no metric_harmonics, is rejected.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math

import numpy as np

from .errors import StructureViolated, gate, json_int, json_number
from .lie3 import hat, vee
from .smfield import Connection, FourierField, Higgs, Pair
from .torus import TorusMetric

FORMAT = 3
# verify's structure tolerance: the writer drops the symmetric part of an
# so(3) value only when it is redundant to it
STRUCTURE_TOL = 1e-9
# the writer's tokens round-trip exactly; the margin absorbs libm differences
# in the sampled series between machines
LAMBDA_TOL = 1e-12


# -- canonical JSON ------------------------------------------------------------------


def save_json(path, obj) -> str:
    """Write obj as compact JSON; returns the sha256 of the bytes written.
    NaN or infinity raises ValueError, and a numpy array or integer raises
    TypeError: callers hand over Python lists."""
    data = json.dumps(obj, allow_nan=False, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in input")


def load_json(path):
    """Parse a JSON file; the non-standard NaN and Infinity tokens that
    Python's json module would accept are rejected with ValueError."""
    with open(path, "rb") as f:
        return json.loads(f.read().decode(), parse_constant=_reject_constant)


# -- field schema --------------------------------------------------------------------


def _grid_header(metric: TorusMetric) -> dict:
    return {
        "format": FORMAT,
        "grid": {"nx": metric.nx, "ny": metric.ny, "lx": metric.lx, "ly": metric.ly},
        "metric_lambda": metric.lam.ravel().tolist(),
        "metric_harmonics": [
            {"amp": h.amp, "kx": h.kx, "ky": h.ky,
             "phase_x": h.phase_x, "phase_y": h.phase_y}
            for h in metric.harmonics
        ],
    }


def _check_format(doc) -> None:
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != FORMAT:
        what = "no \"format\" key" if found is None else f"format {found}"
        raise ValueError(f"file has {what}; cocyclelab reads format {FORMAT} only: "
                         f"re-run generate to write format {FORMAT}")


def _finite(values) -> np.ndarray:
    """Numbers read from a file as a float array.  json parses a literal such
    as 1e999 to infinity, so a non-finite number is rejected here."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("non-finite value in input")
    return a


def metric_from_header(doc: dict) -> TorusMetric:
    """The metric of a file: its harmonic series, which the sampled
    metric_lambda must match to LAMBDA_TOL."""
    g = doc["grid"]
    lx, ly = (json_number(g[k], f"grid {k}") for k in ("lx", "ly"))
    nx, ny = json_int(g["nx"], "grid nx"), json_int(g["ny"], "grid ny")
    lam = _finite(doc["metric_lambda"]).reshape(ny, nx)
    if "metric_harmonics" not in doc:
        raise ValueError("the grid header has no metric_harmonics")
    met = TorusMetric.from_harmonics(nx, ny, lx, ly, doc["metric_harmonics"])
    gate(float(np.abs(lam - met.lam).max()), LAMBDA_TOL, ValueError,
         "metric_lambda differs from the series of metric_harmonics: distance")
    return met


def _pack(grid: np.ndarray) -> str:
    """A float grid as the base64 text of its row-major little-endian float64
    bytes; a non-finite value is refused before anything is encoded."""
    if not np.isfinite(grid).all():
        raise ValueError("non-finite value cannot be serialized")
    raw = grid.astype("<f8", copy=False).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _unpack(payload, shape: tuple[int, ...]) -> np.ndarray:
    """The float grid of the given shape in a payload written by _pack, as
    read-only memory; ValueError for a payload that is not a base64 string
    of exactly that many finite float64 values."""
    if not isinstance(payload, str):
        raise ValueError(f"a field mode grid is a base64 string, not {type(payload).__name__}")
    try:
        raw = binascii.a2b_base64(payload, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"a field mode grid is not base64: {exc}") from None
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ValueError(f"a field mode grid holds {len(raw)} bytes, not 8 * {count}")
    return _finite(np.frombuffer(raw, dtype="<f8")).reshape(shape)


def _mode_block(field: FourierField, so3: bool) -> dict:
    """The modes m = 0..degree of a field: mode 0 as its real part, the
    others as real and imaginary parts, each packed by _pack; vee triples if
    so3, which must drop no more than STRUCTURE_TOL."""
    if so3:
        residual = float(np.abs(field.coef + np.swapaxes(field.coef, 1, 2)).max())
        if not np.isfinite(residual):
            raise ValueError("non-finite value cannot be serialized")
        gate(residual, STRUCTURE_TOL, StructureViolated, "field: antisymmetry residual",
             f", so format {FORMAT} cannot store it")
    modes = []
    for m in range(field.degree + 1):
        c = np.moveaxis(field.coef[m], (0, 1), (2, 3))  # the file's (ny, nx, 3, 3) order
        # vee on each real part: complex arithmetic could flip a zero's sign
        parts = (("re", c.real), ("im", c.imag)) if m else (("re", c.real),)
        modes.append({"m": m} | {key: _pack(vee(p) if so3 else p) for key, p in parts})
    return {"degree": field.degree, "modes": modes}


def _field_from_block(metric: TorusMetric, block: dict, so3: bool) -> FourierField:
    """The field of a mode block, each grid read by _unpack and copied into
    the field's own band, so the result owns writable memory."""
    degree = json_int(block["degree"], "degree")
    entries = block["modes"]
    # the count first, so an edited degree sizes nothing before it is refused
    if (degree < 0 or len(entries) != degree + 1
            or [json_int(e["m"], "mode m") for e in entries] != list(range(degree + 1))):
        raise ValueError(f"format {FORMAT} lists the modes m = 0..degree in order")
    if "im" in entries[0]:
        raise ValueError("mode 0 of a real field has no im part")
    shape = (metric.ny, metric.nx) + ((3,) if so3 else (3, 3))
    # the band m = 0..degree in the field's (mode, 3, 3, ny, nx) layout
    coef = np.zeros((degree + 1, 3, 3, metric.ny, metric.nx), dtype=complex)
    for m, entry in enumerate(entries):
        grid = np.moveaxis(coef[m], (0, 1), (2, 3))
        parts = (("re", grid.real), ("im", grid.imag)) if m else (("re", grid.real),)
        for key, out in parts:
            c = _unpack(entry[key], shape)
            out[...] = hat(c) if so3 else c
    return FourierField.band(metric, coef)


def field_to_json(field: FourierField, so3: bool = False) -> dict:
    doc = _grid_header(field.metric)
    doc["values"] = "so3" if so3 else "matrix"
    doc.update(_mode_block(field, so3))
    return doc


def field_from_json(doc: dict, metric: TorusMetric | None = None) -> FourierField:
    """The field of a document.  With metric (that of the pair the field
    belongs to) the field lives on that metric object, and the header must
    describe the same metric: equal grid and metric_harmonics, and a
    metric_lambda within LAMBDA_TOL of their series; ValueError otherwise."""
    _check_format(doc)
    if doc.get("values") not in ("matrix", "so3"):
        raise ValueError('a field file declares "values": "matrix" or "so3"')
    met = metric_from_header(doc)
    if metric is not None:
        for key, got, want in (
            ("grid", (met.nx, met.ny, met.lx, met.ly),
             (metric.nx, metric.ny, metric.lx, metric.ly)),
            ("metric_harmonics", met.harmonics, metric.harmonics),
        ):
            if got != want:
                raise ValueError(f"the field's {key} {got} differs from the pair's {want}")
        met = metric
    return _field_from_block(met, doc, doc["values"] == "so3")


def save_field(path, field: FourierField, so3: bool = False) -> str:
    """Write a field; so3 stores each value as its vee triple (a unit
    section, say)."""
    return save_json(path, field_to_json(field, so3))


def load_field(path, metric: TorusMetric | None = None) -> FourierField:
    return field_from_json(load_json(path), metric=metric)


# -- pairs ---------------------------------------------------------------------------

PAIR_BLOCKS = ("a", "b", "phi")


def pair_to_json(pair: Pair) -> dict:
    doc = _grid_header(pair.metric)
    for name, triples in zip(PAIR_BLOCKS, (pair.conn.a, pair.conn.b, pair.higgs.phi)):
        doc[name] = {"degree": 0,
                     "modes": [{"m": 0, "re": np.moveaxis(triples, 0, -1).ravel().tolist()}]}
    return doc


def _pair_triples(metric: TorusMetric, block: dict) -> np.ndarray:
    """The (3, ny, nx) vee triples of a pair block, copied C-contiguous;
    ValueError but for degree 0 and one mode, m = 0, with no "im" part and a
    "re" list of 3 * ny * nx finite numbers."""
    entries = block["modes"]
    if (json_int(block["degree"], "degree") != 0 or len(entries) != 1
            or json_int(entries[0]["m"], "mode m") != 0 or "im" in entries[0]):
        raise ValueError("a pair block holds one real mode, m = 0")
    triples = _finite(entries[0]["re"]).reshape(metric.ny, metric.nx, 3)
    return np.ascontiguousarray(np.moveaxis(triples, -1, 0))


def pair_from_json(doc: dict) -> Pair:
    _check_format(doc)
    met = metric_from_header(doc)
    a, b, phi = (_pair_triples(met, doc[name]) for name in PAIR_BLOCKS)
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
    the orthogonality drift ||C^T C - Id||_F, all formatted in one pass by
    one format string (the repr token of every value)."""
    cols = np.column_stack([result.times, np.reshape(result.matrices, (-1, 9)), result.drift])
    line = ",".join(["%r"] * cols.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n" + (line * len(cols)) % tuple(cols.ravel().tolist()))


# -- PGM heatmaps --------------------------------------------------------------------


def write_pgm(path, image: np.ndarray, bits: int = 8) -> tuple[float, float]:
    """Binary PGM (P5), min-max scaled; writes <path>.txt with the scale so
    pixel values can be mapped back to field values.  Returns (lo, hi).

    A span hi - lo of at most 64 ulps of max(|lo|, |hi|) is rounding noise
    (the norm of an orthogonal trivializer is sqrt(3) at every point), so
    the image is drawn flat, all pixels 0, as for an exactly constant one;
    the sidecar still records lo and hi."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("heatmap needs a 2-d array")
    lo, hi = float(img.min()), float(img.max())
    span = hi - lo
    maxval = (1 << bits) - 1
    if span <= 64 * np.spacing(max(abs(lo), abs(hi))):
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
        f.write(f"min {lo!r}\n")
        f.write(f"max {hi!r}\n")
        f.write(f"maxval {maxval}\n")
        f.write("value = min + pixel / maxval * (max - min)\n")
    return lo, hi


def heatmap_from_field(field: FourierField, selector: str) -> np.ndarray:
    """Turn a field into a 2-d image.

    Selectors: "norm" for sqrt(sum_m ||c_m||_F^2) pointwise, over the modes
    -K..K, or "m,i,j,part" with part in
    re/im/abs for a single matrix entry of one mode (mode -m is conj(c_m)).
    """
    sel = selector.strip().lower()
    if sel == "norm":
        # |c_{-m}| = |c_m|, summed in the order of the modes -K..K
        sq = np.abs(field.coef) ** 2
        return np.sqrt(np.concatenate([sq[:0:-1], sq]).sum(axis=(0, 1, 2)))
    parts = [p.strip() for p in sel.split(",")]
    if len(parts) != 4:
        raise ValueError(f"bad selector {selector!r}: want 'norm' or 'm,i,j,part'")
    try:
        m, i, j = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad selector {selector!r}: non-integer indices") from exc
    if not (0 <= i < 3 and 0 <= j < 3):
        raise ValueError(f"bad selector {selector!r}: entry indices out of range")
    comp = field.mode(m)[i, j]
    if parts[3] == "re":
        return comp.real.copy()
    if parts[3] == "im":
        return comp.imag.copy()
    if parts[3] == "abs":
        return np.abs(comp)
    raise ValueError(f"bad selector {selector!r}: part must be re, im or abs")
