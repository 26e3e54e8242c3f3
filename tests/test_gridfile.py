"""Disk format round trips and the loud-failure paths."""

import json
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasekit import gridfile
from phasekit.grid import Grid1D, PhaseFunction2D, SampledFunction1D
from phasekit.gridfile import FileFormatError
from phasekit.weyl import OperatorKernel, Symbol2D

from helpers import parse_csv_per_line

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


@pytest.mark.parametrize("payload", ["csv", "binary"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_poly_tag_is_an_inconsistent_header(tmp_path, payload, bad):
    # JSON's NaN and Infinity literals parse; Symbol2D refuses the tag
    obj = _objects()["symbol"]
    path = tmp_path / "sym"
    gridfile.write(str(path), obj, payload)
    path.write_bytes(_patched_header(path.read_bytes(), poly_re=[[0.5, bad], [1.0, -0.25]]))
    with pytest.raises(FileFormatError, match="inconsistent header: polynomial coefficients "
                                              "must be a finite 2D matrix"):
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
    return {"n": n, "x_min": -0.25 * n, "dx": 0.5}


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


# --------------------------------------------------------------------------
# the C-parser read against the per-line reference reader


READER_EXTREMES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308]


def _payload_lines(path):
    # the payload as read() splits it: after the header's newline, by splitlines
    with open(path, "rb") as fh:
        return fh.read().split(b"\n", 1)[1].decode("utf-8").splitlines()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["function1d", "phase2d"]), st.integers(1, 4), st.data())
def test_csv_read_matches_the_per_line_oracle(kind, half_n, data):
    grid = Grid1D.centered(2 * half_n, 3.0)
    doubles = st.one_of(st.sampled_from(READER_EXTREMES + [-x for x in READER_EXTREMES]),
                        st.floats(allow_nan=False, allow_infinity=False))
    count = 2 * grid.n * grid.n
    bits = np.array(data.draw(st.lists(doubles, min_size=count, max_size=count)))
    obj = _build(kind, grid, bits.view(np.complex128).reshape(grid.n, grid.n))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/obj.csv"
        gridfile.write(path, obj, "csv")
        back = gridfile.read(path)
        oracle = parse_csv_per_line(_payload_lines(path), obj.values.shape)
    assert np.array_equal(back.values.view(np.int64), oracle.view(np.int64))
    assert np.array_equal(back.values.view(np.int64), obj.values.view(np.int64))


# field tokens both readers take or refuse alike; ASCII only, no underscores
TOKENS = ["x", "", " ", "#", "3.0", "1e5", "0x1", "-1", "+0", " 2 ", "9999", str(10**30),
          str(-(10**30)), "nan", "-inf", "1e999", "1.5e-320"]
EDITS = ["field", "drop-field", "extra-field", "repeat", "delete", "blank", "hash-line"]


def _edited(lines, edit, at, token, field):
    if not lines:
        return [token]
    lines = list(lines)
    k = at % len(lines)
    if edit == "field":
        parts = lines[k].split(",")
        parts[field % len(parts)] = token
        lines[k] = ",".join(parts)
    elif edit == "drop-field":
        lines[k] = lines[k].rsplit(",", 1)[0]
    elif edit == "extra-field":
        lines[k] += "," + token
    elif edit == "repeat":
        lines[k] = lines[(k + 1) % len(lines)]
    elif edit == "delete":
        del lines[k]
    elif edit == "blank":
        lines.insert(k, token if token.isspace() else "")
    else:
        lines.insert(k, "# note")
    return lines


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["function1d", "phase2d"]), st.integers(1, 3),
       st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 99), st.sampled_from(TOKENS),
                          st.integers(0, 3)), min_size=1, max_size=3))
def test_edited_csv_fails_as_the_per_line_oracle_does(kind, half_n, seed, edits):
    # one to three edited lines: the same message for the first faulty line,
    # or the same bits where the edits leave the payload valid
    grid = Grid1D.centered(2 * half_n, 3.0)
    obj = _build(kind, grid, _complex(np.random.default_rng(seed), (grid.n, grid.n)))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/obj.csv"
        gridfile.write(path, obj, "csv")
        with open(path, "rb") as fh:
            header = fh.readline()
        lines = _payload_lines(path)
        for edit in edits:
            lines = _edited(lines, *edit)
        with open(path, "wb") as fh:
            fh.write(header + "".join(line + "\n" for line in lines).encode())
        try:
            oracle = parse_csv_per_line(lines, obj.values.shape)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as info:
                gridfile.read(path)
            assert str(info.value) == str(exc)
        else:
            back = gridfile.read(path)
            assert np.array_equal(back.values.view(np.int64), oracle.view(np.int64))


@pytest.mark.parametrize("body", [b"", b"\n\n", b"  \n\t\n"])
def test_csv_empty_payload_is_incomplete_without_a_warning(tmp_path, body):
    path = _handmade(tmp_path, "function1d", {"grid": _grid(8)}, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FileFormatError, match="^payload incomplete: 8 of 8 entries missing"):
            gridfile.read(path)


def _rows_file(tmp_path, rows, n=4):
    return _handmade(tmp_path, "function1d", {"grid": _grid(n)},
                     "".join(r + "\n" for r in rows).encode("utf-8"))


@pytest.mark.parametrize("rows,message", [
    (["0,1.0,0.0", "", "   ", "\t", "1,x,0.0"],
     "line 6: could not convert string to float: 'x'"),
    (["0,1.0,0.0", " ", "", "0,1.0,0.0", "2,1.0,0.0", "3,1.0,0.0"],
     r"line 5: index \(0,\) appears twice"),
    (["", "0,1.0,0.0", "\t", "1,1.0,inf", "2,1.0,0.0", "3,1.0,0.0"],
     "line 5: value is not finite"),
    (["0,1.0,0.0", "# a comment", "1,1.0,0.0"],
     "line 3: expected 3 comma-separated fields, got 1"),
    (["0,1.0,0.0", "3.0,1.0,0.0"],
     re.escape("line 3: invalid literal for int() with base 10: '3.0'")),
])
def test_csv_names_the_physical_line(tmp_path, rows, message):
    # blank and whitespace-only lines hold no row but keep their line number;
    # '#' starts no comment
    with pytest.raises(FileFormatError, match="^" + message):
        gridfile.read(_rows_file(tmp_path, rows))


def test_csv_whitespace_only_lines_are_skipped(tmp_path):
    rows = ["0,1.0,-0.0", "  ", "1,2.0,0.0", "\t", "2,3.0,0.0", "3,4.0,5e-324", " \t "]
    back = gridfile.read(_rows_file(tmp_path, rows))
    expected = np.array([1.0, -0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5e-324]).view(np.complex128)
    assert np.array_equal(back.values.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("kind", KINDS)
def test_crlf_csv_reads(tmp_path, kind):
    obj = _objects()[kind]
    path = tmp_path / "crlf.csv"
    gridfile.write(str(path), obj, "csv")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(gridfile.read(str(path)).values, obj.values)


@pytest.mark.parametrize("row,message", [
    ("1_0,1.0,0.0", "line 3: could not convert string '1_0' to int64"),
    ("1,1_0.5,0.0", "line 3: could not convert string '1_0.5' to float64"),
    ("\u0661,1.0,0.0", "CSV payload is not ASCII text"),
    ("1,\uff11.5,0.0", "CSV payload is not ASCII text"),
    # numpy's int parser would read this letter as the digit 462
    ("\u01fe,1.0,0.0", "CSV payload is not ASCII text"),
])
def test_csv_narrowings(tmp_path, row, message):
    # the per-line reader took underscores and non-ASCII digits; write never
    # emits them, and the C parser refuses them
    with pytest.raises(FileFormatError, match="^" + re.escape(message)):
        gridfile.read(_rows_file(tmp_path, ["0,1.0,0.0", row]))
