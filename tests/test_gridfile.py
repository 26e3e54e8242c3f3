"""Disk format round trips and the loud-failure paths."""

import numpy as np
import pytest

from phasekit import gridfile
from phasekit.grid import Grid1D, PhaseFunction2D, SampledFunction1D
from phasekit.gridfile import FileFormatError
from phasekit.weyl import OperatorKernel, Symbol2D

GRID = Grid1D.centered(8, 2.0)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _objects():
    rng = np.random.default_rng(7)
    poly = np.array([[0.5, 0.0], [1.0, -0.25]], dtype=np.complex128)
    return {
        "function1d": SampledFunction1D(GRID, _complex(rng, GRID.n)),
        "phase2d": PhaseFunction2D(GRID, GRID.dual(),
                                   _complex(rng, (GRID.n, GRID.n))),
        "kernel": OperatorKernel(GRID, _complex(rng, (GRID.n, GRID.n))),
        "symbol": Symbol2D(GRID, GRID.dual(),
                           _complex(rng, (GRID.n, GRID.n)), poly),
    }


@pytest.mark.parametrize("payload", ["csv", "binary"])
@pytest.mark.parametrize("kind", ["function1d", "phase2d", "kernel", "symbol"])
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
def test_writes_are_deterministic(tmp_path, payload):
    obj = _objects()["phase2d"]
    p1 = tmp_path / "a.out"
    p2 = tmp_path / "b.out"
    gridfile.write(str(p1), obj, payload)
    gridfile.write(str(p2), obj, payload)
    assert p1.read_bytes() == p2.read_bytes()


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
    path = _write_then_corrupt(tmp_path, lambda raw: _patched_header(raw, kind="tensor3"))
    with pytest.raises(FileFormatError, match="kind"):
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
    def bump_index(raw):
        lines = raw.decode("utf-8").splitlines()
        _, rest = lines[1].split(",", 1)
        lines[1] = "9999," + rest
        return "\n".join(lines).encode("utf-8") + b"\n"

    path = _write_then_corrupt(tmp_path, bump_index)
    with pytest.raises(FileFormatError, match="outside shape"):
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
