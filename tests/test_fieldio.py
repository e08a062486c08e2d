"""Deterministic JSON/CSV/PGM serialization round trips."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cocyclelab import backlund as bk
from cocyclelab import fieldio as fio
from cocyclelab.cocycle import transport
from cocyclelab.errors import StructureViolated
from cocyclelab.lie3 import hat
from cocyclelab.smfield import FourierField, Pair
from cocyclelab.torus import Harmonic, SMPoint, TorusMetric
from oracles import read_mode_grid, read_pgm, read_transport_csv, write_transport_csv

RNG = np.random.default_rng(1234)


def random_field(met, degree=2, seed=0):
    """A random field: a real mode 0 and complex modes 1..degree."""
    rng = np.random.default_rng(seed)
    shape = (3, 3, met.ny, met.nx)
    modes = {0: rng.normal(size=shape)}
    for m in range(1, degree + 1):
        modes[m] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return FourierField(met, modes)


# finite doubles at the edges of float text: signed zeros, subnormals, the
# largest double, and integer values on both sides of 1e17, where the
# shortest token turns from digits into an exponent
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
               1e17 - 16, 1e17, -(1e17 - 16), 2.0**60, 1.7976931348623157e308]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**62), 2**62).map(float),
    st.floats(min_value=9e16, max_value=1.1e17),
    st.sampled_from(EDGE_FLOATS),
)
# each example overwrites the same file, so one directory serves them all
ONE_FILE = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def float_arrays(min_side=0):
    shape = hnp.array_shapes(min_dims=1, max_dims=1, min_side=min_side, max_side=64)
    return hnp.arrays(np.float64, shape, elements=FINITE)


def written(path, obj) -> bytes:
    """The bytes save_json writes for obj, checked against the hash it returns."""
    digest = fio.save_json(path, obj)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    return data


def test_float_formatting_round_trips(tmp_path):
    vals = [0.1, 1.0 / 3.0, np.pi, 1e-300, -2.5e17, 0.0, 1.0]
    vals += RNG.normal(size=50).tolist()
    vals += (RNG.normal(size=20) * 10.0 ** RNG.integers(-200, 200, size=20)).tolist()
    back = json.loads(written(tmp_path / "v.json", vals))
    assert np.array(back).tobytes() == np.array(vals).tobytes()
    assert written(tmp_path / "one.json", [1.0]) == b"[1.0]"  # a float stays a float
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            fio.save_json(tmp_path / "bad.json", [float(bad)])


@ONE_FILE
@example(np.array(EDGE_FLOATS))
@given(float_arrays())
def test_float_array_matches_scalar_tokens(tmp_path, a):
    """A float list is written as the repr token of each value, the token
    of the transport CSV and the heatmap sidecar, and reads back bit for bit."""
    p = tmp_path / "doc.json"
    data = written(p, a.tolist())
    assert data.decode() == "[" + ",".join(repr(x) for x in a.tolist()) + "]"
    nested = json.loads(written(p, {"modes": [{"re": a.tolist()}]}))["modes"][0]["re"]
    for back in (json.loads(data), nested):
        assert np.array(back, dtype=np.float64).tobytes() == a.tobytes()  # signed zeros too


@ONE_FILE
@given(float_arrays(min_side=1), st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]),
       st.data())
def test_float_array_rejects_non_finite(tmp_path, a, bad, data):
    a[data.draw(st.integers(0, a.size - 1))] = bad
    p = tmp_path / "bad.json"
    for doc in (a.tolist(), {"modes": [{"re": a.tolist()}]}, {"res": {"x": float(bad)}}):
        with pytest.raises(ValueError):
            fio.save_json(p, doc)
        assert not p.exists()


def test_canonical_json_parses_back(tmp_path):
    doc = {"b": [1.5, 2.0, None, True], "a": {"y": 0.1, "x": 3, "s": 'q"\\\n\t\x01\u00e9'}}
    data = written(tmp_path / "a.json", doc)
    assert json.loads(data) == doc  # the control characters are escaped
    assert written(tmp_path / "b.json", doc) == data  # same input, same bytes
    for bad in (object(), np.arange(3.0), np.int64(1)):
        with pytest.raises(TypeError):
            fio.save_json(tmp_path / "c.json", {"f": bad})


def test_field_json_round_trip_exact(tmp_path):
    met = TorusMetric.from_harmonics(20, 16, 1.0, 1.5, [Harmonic(0.05, 1, 1)])
    f = random_field(met, degree=2, seed=3)
    p = tmp_path / "field.json"
    h1 = fio.save_field(p, f)
    doc = fio.load_json(p)
    assert doc["format"] == 3 and doc["values"] == "matrix"
    assert [e["m"] for e in doc["modes"]] == [0, 1, 2]
    g = fio.load_field(p)
    assert g.metric.nx == 20 and g.metric.ny == 16
    assert sorted(g.modes) == sorted(f.modes)
    for m in range(3):
        assert np.array_equal(g.mode(m), f.mode(m))  # bit-exact float64 bytes
    h2 = fio.save_field(tmp_path / "again.json", g)
    assert h1 == h2  # identical bytes both times
    # a unit section is stored as its vee triples and read back bit-exact
    axis = np.stack([np.cos(met.lam), np.sin(met.lam), np.zeros_like(met.lam)])
    section = bk.UnitSection(met, axis).field()
    fio.save_field(tmp_path / "g.json", section, so3=True)
    doc = fio.load_json(tmp_path / "g.json")
    assert doc["values"] == "so3" and len(read_mode_grid(doc["modes"][0]["re"])) == 16 * 20 * 3
    assert np.array_equal(fio.load_field(tmp_path / "g.json").mode(0), section.mode(0))


# signed zeros, subnormals and integer values next to ordinary doubles
BIT_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -3.0,
                      2.0**60, 1e17, 0.1, -np.pi])


@pytest.mark.parametrize("values", ["matrix", "so3"])
def test_field_reads_back_bit_for_bit(tmp_path, values):
    """A field file holds the float64 bytes of each mode grid, so every bit
    comes back, signs of zeros included."""
    met = TorusMetric.from_harmonics(20, 16, 1.0, 1.5, [Harmonic(0.05, 1, 1)])
    rng = np.random.default_rng(41)
    so3 = values == "so3"

    def part():
        shape = (met.ny, met.nx) + ((3,) if so3 else (3, 3))
        grid = rng.choice(BIT_EDGES, size=shape)
        normal = rng.random(shape) < 0.3
        grid[normal] = rng.normal(size=normal.sum())
        return np.moveaxis(hat(grid) if so3 else grid, (2, 3), (0, 1))

    modes = {0: part()}
    for m in (1, 2):
        c = np.empty((3, 3, met.ny, met.nx), dtype=complex)
        c.real, c.imag = part(), part()
        modes[m] = c
    f = FourierField(met, modes)
    assert np.signbit(f.coef.real).any() and (f.coef.real == 0).any()
    fio.save_field(tmp_path / "f.json", f, so3=so3)
    g = fio.load_field(tmp_path / "f.json")
    assert g.degree == f.degree and g.coef.flags.writeable
    assert np.array_equal(g.coef.view(np.uint64), f.coef.view(np.uint64))


def test_metric_round_trip_flat(tmp_path):
    met = TorusMetric.flat(16, 16, lx=2.0, ly=3.0)
    f = FourierField.identity(met)
    p = tmp_path / "flat.json"
    fio.save_field(p, f)
    g = fio.load_field(p)
    assert g.metric.is_flat
    assert g.metric.lx == 2.0 and g.metric.ly == 3.0


def test_pair_round_trip(tmp_path):
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.1, 1, 0)])
    axis = np.array([0.0, 0.6, 0.8])
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, axis))
    pair = cert.pair_out
    fio.save_pair(tmp_path / "pair.json", pair)
    fio.save_field(tmp_path / "triv.json", pair.trivializer)
    back = fio.load_pair(tmp_path / "pair.json", tmp_path / "triv.json")
    assert np.array_equal(back.conn.a, pair.conn.a)
    assert np.array_equal(back.conn.b, pair.conn.b)
    assert np.array_equal(back.higgs.phi, pair.higgs.phi)
    assert np.array_equal(back.trivializer.mode(1), pair.trivializer.mode(1))
    no_triv = fio.load_pair(tmp_path / "pair.json")
    assert no_triv.trivializer is None


def test_loaded_pair_grids_are_contiguous_float64(tmp_path):
    """A loaded pair's a, b and phi are C-contiguous float64 grids of their
    own, not strided .real views that keep a complex band alive."""
    met = TorusMetric.from_harmonics(16, 24, 1.0, 1.5, [Harmonic(0.1, 1, 0)])
    cert = bk.backlund_transform(Pair.trivial(met),
                                 bk.UnitSection.constant(met, np.array([0.0, 0.6, 0.8])))
    fio.save_pair(tmp_path / "pair.json", cert.pair_out)
    back = fio.load_pair(tmp_path / "pair.json")
    for grid in (back.conn.a, back.conn.b, back.higgs.phi):
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        base = grid
        while base is not None:
            assert not np.iscomplexobj(base)
            base = base.base


def test_transport_csv_round_trip(tmp_path):
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.08, 0, 1)])
    axis = np.array([1.0, 0.0, 0.0])
    cert = bk.backlund_transform(Pair.trivial(met), bk.UnitSection.constant(met, axis))
    res = transport(cert.pair_out, SMPoint(0.1, 0.2, 0.3), 1.0, 1e-2, save_every=10)
    p = tmp_path / "run.csv"
    fio.write_transport_csv(p, res)
    text = p.read_text().splitlines()
    assert text[0] == fio.CSV_HEADER
    assert len(text) == 1 + len(res.times)
    back = read_transport_csv(p)
    assert np.array_equal(back["times"], res.times)
    assert np.array_equal(back["matrices"], np.asarray(res.matrices))
    assert np.array_equal(back["drift"], np.asarray(res.drift))


@pytest.mark.parametrize("t_final, save_every, rows", [(1.0, 10, 11), (-1.3, 10, 14), (1.0, 7, 16)])
def test_transport_csv_matches_per_value_writer(tmp_path, t_final, save_every, rows):
    """The one-pass writer gives the bytes of the per-value one: forward and
    backward transports, and a save interval that does not divide the step
    count (100 steps, every 7th saved, then the last)."""
    met = TorusMetric.from_harmonics(32, 32, 1.0, 1.0, [Harmonic(0.08, 0, 1)])
    cert = bk.backlund_transform(Pair.trivial(met),
                                 bk.UnitSection.constant(met, np.array([0.6, -0.48, 0.64])))
    res = transport(cert.pair_out, SMPoint(0.3, 0.7, 1.1), t_final, 1e-2, save_every=save_every)
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    fio.write_transport_csv(got, res)
    write_transport_csv(ref, res)
    assert got.read_bytes() == ref.read_bytes()
    assert len(res.times) == rows


def test_pgm_round_trip(tmp_path):
    img = RNG.normal(size=(20, 30))
    for bits in (8, 16):
        p = tmp_path / f"map{bits}.pgm"
        lo, hi = fio.write_pgm(p, img, bits=bits)
        assert (lo, hi) == (img.min(), img.max())
        pix = read_pgm(p)
        assert pix.shape == img.shape
        maxval = (1 << bits) - 1
        recon = lo + pix / maxval * (hi - lo)
        # quantization bounds the error by half a step
        assert np.abs(recon - img).max() <= 0.5001 * (hi - lo) / maxval
        sidecar = (str(p) + ".txt")
        with open(sidecar) as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("min ") and lines[1].startswith("max ")
        assert float(lines[0].split()[1]) == lo
        assert float(lines[1].split()[1]) == hi


def test_pgm_constant_image(tmp_path):
    # a span of a few ulps is rounding noise (the norm image of a certified
    # trivializer is sqrt(3) to about 7 ulps) and is drawn flat too
    noisy = np.full((4, 5), np.sqrt(3.0))
    noisy[1, 2] = np.nextafter(noisy[1, 2], 2.0)
    noisy[3] += 7 * np.spacing(np.sqrt(3.0))
    for img in (np.full((4, 5), 2.5), noisy):
        lo, hi = fio.write_pgm(tmp_path / "c.pgm", img)
        assert (lo, hi) == (img.min(), img.max())
        assert read_pgm(tmp_path / "c.pgm").max() == 0.0
        with open(str(tmp_path / "c.pgm") + ".txt") as f:
            lines = f.read().splitlines()
        assert lines[:2] == [f"min {lo!r}", f"max {hi!r}"]


def test_pgm_input_gates(tmp_path):
    with pytest.raises(ValueError):
        fio.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)), bits=12)
    with pytest.raises(ValueError):
        fio.write_pgm(tmp_path / "x.pgm", np.zeros(7))
    (tmp_path / "not.pgm").write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "not.pgm")


def test_heatmap_selectors():
    met = TorusMetric.flat(16, 16)
    f = random_field(met, degree=1, seed=11)
    norm = fio.heatmap_from_field(f, "norm")
    expect = np.sqrt(
        sum((np.abs(f.mode(m)) ** 2).sum(axis=(0, 1)) for m in (-1, 0, 1))
    )
    assert np.abs(norm - expect).max() < 1e-14
    re = fio.heatmap_from_field(f, "1,0,2,re")
    assert np.array_equal(re, f.mode(1)[0, 2].real)
    im = fio.heatmap_from_field(f, " 0 , 1 , 1 , im ")
    assert np.array_equal(im, f.mode(0)[1, 1].imag)
    ab = fio.heatmap_from_field(f, "-1,2,0,abs")
    assert np.array_equal(ab, np.abs(f.mode(-1)[2, 0]))
    for bad in ("nope", "1,2", "1,5,0,re", "x,0,0,re", "0,0,0,phase"):
        with pytest.raises(ValueError):
            fio.heatmap_from_field(f, bad)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_non_finite_tokens(tmp_path, token):
    p = tmp_path / "bad.json"
    p.write_text('{"re": [0.5, %s]}' % token)
    with pytest.raises(ValueError):
        fio.load_json(p)


def test_writer_refuses_data_the_layout_would_change(tmp_path):
    """Format 3 drops the symmetric part of an so(3) field (a unit section,
    g.json); data for which it is not redundant to STRUCTURE_TOL is a failed
    check, and no file is written."""
    met = TorusMetric.flat(16, 16)
    g = bk.UnitSection.constant(met, np.array([0.0, 0.6, 0.8])).field()
    g.coef[0, 0, 1, 3, 4] += 1e-8
    with pytest.raises(StructureViolated):
        fio.save_field(tmp_path / "g.json", g, so3=True)
    assert not (tmp_path / "g.json").exists()


def test_pair_reader_gates(tmp_path):
    """A pair block holds degree 0 and one mode, m = 0, as a list of
    3 * ny * nx finite numbers with no im part; anything else is refused."""
    met = TorusMetric.flat(16, 16)
    pair = bk.backlund_transform(
        Pair.trivial(met), bk.UnitSection.constant(met, np.array([0.0, 0.6, 0.8]))).pair_out
    good = fio.pair_to_json(pair)
    entry = good["a"]["modes"][0]
    edits = [
        ({"degree": 1, "modes": [entry, {"m": 1, "re": entry["re"], "im": entry["re"]}]},
         "one real mode"),
        ({"degree": 0, "modes": [entry, entry]}, "one real mode"),
        ({"degree": 0, "modes": [{"m": 1, "re": entry["re"]}]}, "one real mode"),
        ({"degree": 0, "modes": [{"m": 0, "re": entry["re"], "im": entry["re"]}]},
         "one real mode"),
        ({"degree": 0, "modes": [{"m": 0, "re": entry["re"][:-1]}]}, "reshape"),
        ({"degree": 0, "modes": [{"m": 0, "re": entry["re"][:-1] + [1e999]}]}, "non-finite"),
    ]
    for block, message in edits:
        doc = json.loads(json.dumps(good))
        doc["a"] = block
        with pytest.raises(ValueError, match=message):
            fio.pair_from_json(doc)
    back = fio.pair_from_json(json.loads(json.dumps(good)))
    assert np.array_equal(back.conn.a, pair.conn.a)


def test_non_finite_rejected(tmp_path):
    met = TorusMetric.flat(16, 16)
    grid = np.zeros((3, 3, 16, 16), dtype=complex)
    grid[0, 0, 0, 0] = np.nan
    f = FourierField(met, {0: grid})
    with pytest.raises(ValueError):
        fio.save_field(tmp_path / "nan.json", f)
