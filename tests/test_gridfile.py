"""Disk format round trips and the loud-failure paths."""

import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasekit import gridfile
from phasekit.grid import Grid1D, PhaseFunction2D, SampledFunction1D
from phasekit.gridfile import FileFormatError
from phasekit.weyl import OperatorKernel, Symbol2D

GRID = Grid1D.centered(8, 2.0)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


KINDS = ["function1d", "phase2d", "kernel", "symbol"]


def _build(kind, grid, values):
    """An object of kind on grid from an n x n array (a function takes its
    first row); a symbol also gets a poly tag holding a -0.0 and a subnormal."""
    if kind == "function1d":
        return SampledFunction1D(grid, values[0])
    if kind == "phase2d":
        return PhaseFunction2D(grid, grid.dual(), values)
    if kind == "kernel":
        return OperatorKernel(grid, values)
    poly = np.array([[0.5, -0.0], [1.0, -0.25 + 1.5e-310j]])
    return Symbol2D(grid, grid.dual(), values, poly)


def _objects():
    rng = np.random.default_rng(7)
    return {kind: _build(kind, GRID, _complex(rng, (GRID.n, GRID.n))) for kind in KINDS}


@pytest.mark.parametrize("payload", ["csv", "binary"])
@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_bit_exact(tmp_path, kind, payload):
    # csv uses round-trippable float reprs, so both encodings restore the
    # exact same doubles
    obj = _objects()[kind]
    path = str(tmp_path / f"{kind}.{payload}")
    gridfile.write(path, obj, payload)
    back = gridfile.read(path)
    assert type(back) is type(obj)
    assert np.array_equal(back.values, obj.values)
    if kind in ("function1d", "kernel"):
        assert back.grid.matches(obj.grid)
    else:
        assert back.grid_x.matches(obj.grid_x)


@pytest.mark.parametrize("payload", ["csv", "binary"])
def test_poly_tag_survives(tmp_path, payload):
    obj = _objects()["symbol"]
    path = str(tmp_path / f"sym.{payload}")
    gridfile.write(path, obj, payload)
    back = gridfile.read(path)
    assert back.poly is not None
    assert np.array_equal(back.poly, obj.poly)


def test_untagged_symbol_stays_untagged(tmp_path):
    obj = _objects()["symbol"]
    plain = Symbol2D(obj.grid_x, obj.grid_xi, obj.values, None)
    path = str(tmp_path / "plain.bin")
    gridfile.write(path, plain, "binary")
    assert gridfile.read(path).poly is None


@pytest.mark.parametrize("payload", ["csv", "binary"])
@pytest.mark.parametrize("kind", KINDS)
def test_writes_are_deterministic(tmp_path, kind, payload):
    obj = _objects()[kind]
    p1 = tmp_path / "a.out"
    p2 = tmp_path / "b.out"
    gridfile.write(str(p1), obj, payload)
    gridfile.write(str(p2), obj, payload)
    assert p1.read_bytes() == p2.read_bytes()


EXTREMES = [-0.0, 5e-324, -5e-324, 2.225e-308 / 7, 1.7976931348623157e308,
            -1.7976931348623157e308]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS),
       st.sampled_from(["csv", "binary"]), st.integers(1, 4), st.data())
def test_round_trip_any_finite_doubles(kind, payload, half_n, data):
    # every finite double, -0.0 and subnormals included, comes back with the
    # same bits; uint64 views tell -0.0 from 0.0
    grid = Grid1D.centered(2 * half_n, 3.0)
    doubles = st.one_of(st.sampled_from(EXTREMES),
                        st.floats(allow_nan=False, allow_infinity=False))
    count = 2 * grid.n * grid.n
    bits = np.array(data.draw(st.lists(doubles, min_size=count, max_size=count)))
    obj = _build(kind, grid, bits.view(np.complex128).reshape(grid.n, grid.n))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/obj.{payload}"
        gridfile.write(path, obj, payload)
        back = gridfile.read(path)
    assert type(back) is type(obj)
    assert np.array_equal(back.values.view(np.uint64), obj.values.view(np.uint64))
    if kind == "symbol":
        assert np.array_equal(back.poly.view(np.uint64), obj.poly.view(np.uint64))


def _reference_rows(values):
    # the writer's row text, spelled out one entry at a time
    if values.ndim == 1:
        return [f"{i},{complex(v).real!r},{complex(v).imag!r}"
                for i, v in enumerate(values)]
    return [f"{i},{j},{complex(values[i, j]).real!r},{complex(values[i, j]).imag!r}"
            for i in range(values.shape[0]) for j in range(values.shape[1])]


@pytest.mark.parametrize("kind", KINDS)
def test_csv_bytes_match_reference_text(tmp_path, kind):
    values = _complex(np.random.default_rng(3), (GRID.n, GRID.n))
    values.real.reshape(-1)[: len(EXTREMES)] = EXTREMES
    values.imag.reshape(-1)[-len(EXTREMES):] = EXTREMES
    obj = _build(kind, GRID, values)
    path = tmp_path / "obj.csv"
    gridfile.write(str(path), obj, "csv")
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    grids = ["grid"] if kind in ("function1d", "kernel") else [
        "grid_x", "grid_p" if kind == "phase2d" else "grid_xi"]
    tags = ["poly_re", "poly_im"] if kind == "symbol" else []
    assert list(json.loads(header)) == ["kind", *grids, "format_version", "dtype",
                                        "payload", *tags]
    assert body == "".join(row + "\n" for row in _reference_rows(obj.values))


def test_write_rejects_unknown_payload(tmp_path):
    with pytest.raises(FileFormatError):
        gridfile.write(str(tmp_path / "x"), _objects()["function1d"], "hex")


def test_write_rejects_foreign_object(tmp_path):
    with pytest.raises(FileFormatError):
        gridfile.write(str(tmp_path / "x"), np.zeros(4), "csv")


def _write_then_corrupt(tmp_path, mutate, payload="csv"):
    path = tmp_path / "victim"
    gridfile.write(str(path), _objects()["function1d"], payload)
    raw = path.read_bytes()
    path.write_bytes(mutate(raw))
    return str(path)


def test_missing_header_line(tmp_path):
    path = tmp_path / "nolines"
    path.write_bytes(b"no newline at all")
    with pytest.raises(FileFormatError, match="header"):
        gridfile.read(str(path))


def test_garbage_header(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: b"{oops\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(FileFormatError, match="unreadable header"):
        gridfile.read(path)


def test_non_object_header(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: b"[1,2]\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(FileFormatError, match="JSON object"):
        gridfile.read(path)


def _patched_header(raw, **overrides):
    import json

    head, rest = raw.split(b"\n", 1)
    header = json.loads(head.decode("utf-8"))
    header.update(overrides)
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + rest


def test_version_gate(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, format_version=99))
    with pytest.raises(FileFormatError, match="format_version"):
        gridfile.read(path)


def test_dtype_gate(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, dtype="float32"))
    with pytest.raises(FileFormatError, match="dtype"):
        gridfile.read(path)


def test_payload_gate(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, payload="hex"))
    with pytest.raises(FileFormatError, match="payload"):
        gridfile.read(path)


def test_unknown_kind(tmp_path):
    # an unhashable kind must not slip past the kind table as a TypeError
    for kind in ("tensor3", []):
        path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, kind=kind))
        with pytest.raises(FileFormatError, match=re.escape(f"unknown kind {kind!r}")):
            gridfile.read(path)


def test_malformed_grid_entry(tmp_path):
    path = _write_then_corrupt(
        tmp_path, lambda raw: _patched_header(raw, grid={"n": 8, "x_min": -2.0})
    )
    with pytest.raises(FileFormatError, match="grid"):
        gridfile.read(path)


def test_odd_grid_size_rejected(tmp_path):
    # grids are even-sized by construction, so a hand-edited odd header
    # must fail at the grid gate, not deep in an FFT
    path = _write_then_corrupt(
        tmp_path,
        lambda raw: _patched_header(raw, grid={"n": 7, "x_min": -2.0, "dx": 0.5}),
    )
    with pytest.raises(FileFormatError, match="grid"):
        gridfile.read(path)


@pytest.mark.parametrize("entry,key", [
    ({"n": 8.9, "x_min": -2.0, "dx": 0.5}, "n"),
    ({"n": "8", "x_min": -2.0, "dx": 0.5}, "n"),
    ({"n": 8, "x_min": float("nan"), "dx": 0.5}, "x_min"),
    ({"n": 8, "x_min": float("inf"), "dx": 0.5}, "x_min"),
    ({"n": 8, "x_min": -2.0, "dx": float("inf")}, "dx"),
])
def test_grid_entry_takes_json_numbers_as_they_stand(tmp_path, entry, key):
    # json writes nan and inf as NaN and Infinity, which json reads back
    path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, grid=entry))
    with pytest.raises(FileFormatError, match=rf"grid entry in header: .*\b{key}\b"):
        gridfile.read(path)


def test_truncated_binary(tmp_path):
    path = _write_then_corrupt(tmp_path, lambda raw: raw[:-8], payload="binary")
    with pytest.raises(FileFormatError, match="bytes"):
        gridfile.read(path)


def test_csv_missing_row(tmp_path):
    def drop_one(raw):
        lines = raw.decode("utf-8").splitlines()
        return "\n".join(lines[:-1]).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, drop_one)
    with pytest.raises(FileFormatError, match="incomplete"):
        gridfile.read(path)


def test_csv_wrong_field_count(tmp_path):
    def chop_field(raw):
        lines = raw.decode("utf-8").splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        return "\n".join(lines).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, chop_field)
    with pytest.raises(FileFormatError, match="fields"):
        gridfile.read(path)


def test_csv_index_out_of_range(tmp_path):
    # 10**30 does not fit an int64 index buffer, and is outside shape all the same
    for index in ("9999", str(10**30)):
        def bump_index(raw):
            lines = raw.decode("utf-8").splitlines()
            _, rest = lines[1].split(",", 1)
            lines[1] = f"{index}," + rest
            return "\n".join(lines).encode("utf-8") + b"\n"

        path = _write_then_corrupt(tmp_path, bump_index)
        with pytest.raises(FileFormatError, match=f"index \\({index},\\) outside shape"):
            gridfile.read(path)


def test_csv_non_numeric_value(tmp_path):
    def poison(raw):
        lines = raw.decode("utf-8").splitlines()
        idx, _, im = lines[2].split(",")
        lines[2] = f"{idx},not-a-number,{im}"
        return "\n".join(lines).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, poison)
    with pytest.raises(FileFormatError, match="line 3"):
        gridfile.read(path)


@pytest.mark.parametrize("replace", [False, True])
def test_csv_duplicate_index_row(tmp_path, replace):
    # a repeated index would otherwise overwrite the first row silently,
    # whether it comes as an extra line or in place of another row
    def repeat_row(raw):
        lines = raw.decode("utf-8").splitlines()
        if replace:
            lines[4] = lines[2]
        else:
            lines.insert(4, lines[2])
        return "\n".join(lines).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, repeat_row)
    with pytest.raises(FileFormatError, match="line 5: index .* twice"):
        gridfile.read(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", [-2, -1])
def test_csv_non_finite_value(tmp_path, token, part):
    def poison(raw):
        lines = raw.decode("utf-8").splitlines()
        fields = lines[3].split(",")
        fields[part] = token
        lines[3] = ",".join(fields)
        return "\n".join(lines).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, poison)
    with pytest.raises(FileFormatError, match="line 4: value is not finite"):
        gridfile.read(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binary_non_finite_value(tmp_path, bad):
    obj = _objects()["phase2d"]
    values = obj.values.copy()
    values[2, 5] = complex(0.5, bad)
    path = str(tmp_path / "p.bin")
    gridfile.write(path, PhaseFunction2D(obj.grid_x, obj.grid_p, values), "binary")
    with pytest.raises(FileFormatError, match=r"entry \(2, 5\) is not finite"):
        gridfile.read(path)


def test_malformed_poly_tag(tmp_path):
    obj = _objects()["symbol"]
    path = tmp_path / "sym.bin"
    gridfile.write(str(path), obj, "binary")
    raw = path.read_bytes()
    path.write_bytes(_patched_header(raw, poly_re=[1.0, 2.0], poly_im=[0.0]))
    with pytest.raises(FileFormatError, match="poly"):
        gridfile.read(str(path))


def test_read_reports_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        gridfile.read(str(tmp_path / "absent.bin"))


def _handmade(tmp_path, kind, grids, body, payload="csv"):
    header = {"kind": kind, **grids, "format_version": 1, "dtype": "complex128",
              "payload": payload}
    path = tmp_path / "handmade"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    return str(path)


def _grid(n):
    return {"n": n, "x_min": -2.0, "dx": 0.5}


def test_binary_header_past_int64_is_rejected(tmp_path):
    # 2**32 x 2**32 entries: a numpy product would wrap to 0 bytes
    path = _handmade(tmp_path, "phase2d", {"grid_x": _grid(2**32), "grid_p": _grid(2**32)},
                     b"", payload="binary")
    with pytest.raises(FileFormatError, match="holds 0 bytes, header implies 2951"):
        gridfile.read(path)


def test_csv_huge_header_allocates_nothing(tmp_path):
    # one row of a 2**40-entry header: incomplete, found before any
    # n-entry array is made
    path = _handmade(tmp_path, "function1d", {"grid": _grid(2**40)}, b"0,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="payload incomplete: 1099511627775 of"):
        gridfile.read(path)


def test_csv_names_the_first_faulty_line(tmp_path):
    # a repeat on line 3 comes before an out-of-range index on line 6
    rows = ["0,1.0,0.0", "0,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0", "99,1.0,0.0"]
    path = _handmade(tmp_path, "function1d", {"grid": _grid(8)},
                     "".join(r + "\n" for r in rows).encode("utf-8"))
    with pytest.raises(FileFormatError, match=r"^line 3: index \(0,\) appears twice"):
        gridfile.read(path)
