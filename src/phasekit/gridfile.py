"""Self-describing disk format for grid data.

A grid file is one JSON header line followed by the payload.  The header
names the format version, the kind of object (function1d, phase2d, kernel,
symbol), the grid(s) as {n, x_min, dx}, the dtype (always complex128), and
the payload encoding.  Payloads are either CSV rows (index or index pair,
then real and imaginary parts, written with round-trippable float reprs) or
raw little-endian complex128 bytes in row-major order; the raw encoding
round-trips bit-exactly.  Readers check that the payload length matches the
shape the header promises, so truncated files fail loudly instead of
shifting data, and reject non-finite values and repeated CSV indices.

Polynomial tags on symbols survive the trip through an optional header
field; without that, a tagged symbol would silently lose its exact-algebra
star-product branch on reload.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .grid import ConfigurationError, Grid1D, PhaseFunction2D, SampledFunction1D
from .weyl import OperatorKernel, Symbol2D

__all__ = [
    "FileFormatError",
    "GridObject",
    "read",
    "write",
]

FORMAT_VERSION = 1
PAYLOADS = ("csv", "binary")

GridObject = Union[SampledFunction1D, PhaseFunction2D, OperatorKernel, Symbol2D]


class FileFormatError(Exception):
    """Raised when a grid file cannot be parsed or is internally inconsistent."""


# --------------------------------------------------------------------------
# header pieces


def _grid_header(grid: Grid1D) -> dict:
    return {
        "n": grid.n,
        "x_min": float(grid.x_min),
        "dx": float(grid.dx),
    }


def _grid_from_header(entry: dict, what: str) -> Grid1D:
    try:
        return Grid1D(int(entry["n"]), float(entry["x_min"]), float(entry["dx"]))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise FileFormatError(f"malformed {what} entry in header: {exc}") from exc


def _header_for(obj: GridObject, payload: str) -> tuple[dict, np.ndarray]:
    common = {"format_version": FORMAT_VERSION, "dtype": "complex128", "payload": payload}
    if isinstance(obj, SampledFunction1D):
        header = {
            "kind": "function1d",
            "grid": _grid_header(obj.grid),
            **common,
        }
        return header, np.asarray(obj.values, dtype=np.complex128)
    if isinstance(obj, PhaseFunction2D):
        header = {
            "kind": "phase2d",
            "grid_x": _grid_header(obj.grid_x),
            "grid_p": _grid_header(obj.grid_p),
            **common,
        }
        return header, np.asarray(obj.values, dtype=np.complex128)
    if isinstance(obj, OperatorKernel):
        header = {
            "kind": "kernel",
            "grid": _grid_header(obj.grid),
            **common,
        }
        return header, np.asarray(obj.values, dtype=np.complex128)
    if isinstance(obj, Symbol2D):
        header = {
            "kind": "symbol",
            "grid_x": _grid_header(obj.grid_x),
            "grid_xi": _grid_header(obj.grid_xi),
            **common,
        }
        if obj.poly is not None:
            coeffs = np.asarray(obj.poly, dtype=np.complex128)
            header["poly_re"] = coeffs.real.tolist()
            header["poly_im"] = coeffs.imag.tolist()
        return header, np.asarray(obj.values, dtype=np.complex128)
    raise FileFormatError(f"cannot serialize object of type {type(obj).__name__}")


# --------------------------------------------------------------------------
# payload encodings


def _csv_lines(values: np.ndarray) -> list[str]:
    lines = []
    if values.ndim == 1:
        for i, entry in enumerate(values):
            v = complex(entry)
            lines.append(f"{i},{v.real!r},{v.imag!r}")
    else:
        for i in range(values.shape[0]):
            for j in range(values.shape[1]):
                v = complex(values[i, j])
                lines.append(f"{i},{j},{v.real!r},{v.imag!r}")
    return lines


def _parse_csv(lines: list[str], shape: tuple[int, ...]) -> np.ndarray:
    values = np.zeros(shape, dtype=np.complex128)
    seen = np.zeros(shape, dtype=bool)
    want = len(shape) + 2
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != want:
            raise FileFormatError(
                f"line {lineno}: expected {want} comma-separated fields, "
                f"got {len(parts)}"
            )
        try:
            idx = tuple(int(p) for p in parts[: len(shape)])
            re, im = float(parts[-2]), float(parts[-1])
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
        try:
            if any(i < 0 for i in idx):
                raise IndexError(idx)
            values[idx] = complex(re, im)
        except IndexError:
            raise FileFormatError(
                f"line {lineno}: index {idx} outside shape {shape}"
            ) from None
        seen[idx] = True
    # One line per entry, all finite, is the common case and costs no
    # per-line work; anything else is rescanned to name the bad line.
    complete = bool(seen.all())
    if len(lines) != values.size or not complete or not np.isfinite(values).all():
        _reject_bad_line(lines, len(shape))
    if not complete:
        missing = int(seen.size - seen.sum())
        raise FileFormatError(
            f"payload incomplete: {missing} of {seen.size} entries missing"
        )
    return values


def _reject_bad_line(lines: list[str], ndim: int) -> None:
    """Raise for the first line that repeats an index or holds a non-finite
    value; the lines already parsed, so only those two faults remain."""
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        idx = tuple(int(p) for p in parts[:ndim])
        if idx in seen:
            raise FileFormatError(f"line {lineno}: index {idx} appears twice")
        if not np.isfinite([float(parts[-2]), float(parts[-1])]).all():
            raise FileFormatError(f"line {lineno}: value is not finite")
        seen.add(idx)


# --------------------------------------------------------------------------
# public API


def write(path: str, obj: GridObject, payload: str = "csv") -> None:
    """Write a grid object to path with the requested payload encoding."""
    if payload not in PAYLOADS:
        raise FileFormatError(f"payload must be one of {PAYLOADS}, got {payload!r}")
    header, values = _header_for(obj, payload)
    header_line = json.dumps(header, separators=(",", ":"))
    if payload == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_line + "\n")
            fh.write("\n".join(_csv_lines(values)))
            fh.write("\n")
    else:
        with open(path, "wb") as fh:
            fh.write(header_line.encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def _shape_for(header: dict) -> tuple[tuple[int, ...], dict]:
    kind = header.get("kind")
    if kind == "function1d":
        grid = _grid_from_header(header.get("grid", {}), "grid")
        return (grid.n,), {"grid": grid}
    if kind == "phase2d":
        gx = _grid_from_header(header.get("grid_x", {}), "grid_x")
        gp = _grid_from_header(header.get("grid_p", {}), "grid_p")
        return (gx.n, gp.n), {"grid_x": gx, "grid_p": gp}
    if kind == "kernel":
        grid = _grid_from_header(header.get("grid", {}), "grid")
        return (grid.n, grid.n), {"grid": grid}
    if kind == "symbol":
        gx = _grid_from_header(header.get("grid_x", {}), "grid_x")
        gxi = _grid_from_header(header.get("grid_xi", {}), "grid_xi")
        return (gx.n, gxi.n), {"grid_x": gx, "grid_xi": gxi}
    raise FileFormatError(f"unknown kind {kind!r}")


def _assemble(header: dict, values: np.ndarray) -> GridObject:
    kind = header["kind"]
    _, grids = _shape_for(header)
    if kind == "function1d":
        return SampledFunction1D(grids["grid"], values)
    if kind == "phase2d":
        return PhaseFunction2D(grids["grid_x"], grids["grid_p"], values)
    if kind == "kernel":
        return OperatorKernel(grids["grid"], values)
    poly = None
    if "poly_re" in header or "poly_im" in header:
        try:
            re = np.asarray(header["poly_re"], dtype=np.float64)
            im = np.asarray(header["poly_im"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed poly tag: {exc}") from exc
        if re.ndim != 2 or re.shape != im.shape:
            raise FileFormatError("malformed poly tag: expected matching 2D arrays")
        poly = re + 1j * im
    return Symbol2D(grids["grid_x"], grids["grid_xi"], values, poly)


def read(path: str) -> GridObject:
    """Read a grid file, dispatching on the kind recorded in its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FileFormatError("missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError("header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"unsupported format_version {version!r} (this reader handles "
            f"{FORMAT_VERSION})"
        )
    if header.get("dtype") != "complex128":
        raise FileFormatError(f"unsupported dtype {header.get('dtype')!r}")
    payload = header.get("payload")
    if payload not in PAYLOADS:
        raise FileFormatError(f"unsupported payload {payload!r}")
    shape, _ = _shape_for(header)
    body = raw[newline + 1 :]
    if payload == "csv":
        values = _parse_csv(body.decode("utf-8").splitlines(), shape)
    else:
        expected = int(np.prod(shape)) * 16
        if len(body) != expected:
            raise FileFormatError(
                f"binary payload holds {len(body)} bytes, header implies {expected}"
            )
        values = (
            np.frombuffer(body, dtype="<c16").astype(np.complex128).reshape(shape)
        )
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            index = tuple(int(i) for i in np.unravel_index(bad[0], shape))
            raise FileFormatError(f"binary payload entry {index} is not finite")
    return _assemble(header, values)
