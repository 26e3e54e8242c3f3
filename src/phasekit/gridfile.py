"""Self-describing disk format for grid data.

A grid file is one JSON header line followed by the payload.  The header
names the format version, the kind of object (function1d, phase2d, kernel,
symbol), the grid(s) as {n, x_min, dx}, the dtype (always complex128), and
the payload encoding.  Payloads are either CSV rows (index or index pair,
then real and imaginary parts, written with round-trippable float reprs) or
raw little-endian complex128 bytes in row-major order; the raw encoding
round-trips bit-exactly.  Readers check that the payload length matches the
shape the header promises, so truncated files fail loudly instead of
shifting data, and reject non-finite values, repeated CSV indices, grids off
centre and symbols whose frequency grid is not the dual.  A CSV payload goes
through numpy's C parser in one call.  If the parser refuses it, the reader
parses blocks of about sqrt(N) lines, then the lines of the first block
refused one by one, to name the first faulty line.  No n-entry array is made
before the rows are known to fill it.

Polynomial tags on symbols survive the trip through an optional header
field; without that, a tagged symbol would silently lose its exact-algebra
star-product branch on reload.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from typing import Iterable, Union

import numpy as np

from .grid import ConfigurationError, Grid1D, PhaseFunction2D, SampledFunction1D
from .weyl import OperatorKernel, Symbol2D

__all__ = ["FileFormatError", "GridObject", "read", "write"]

FORMAT_VERSION = 1
PAYLOADS = ("csv", "binary")

GridObject = Union[SampledFunction1D, PhaseFunction2D, OperatorKernel, Symbol2D]

# kind -> (class, the grid attribute of each array axis).  Each attribute is
# also the header key of its grid; a kernel's one grid spans both axes.
_KINDS = {
    "function1d": (SampledFunction1D, ("grid",)),
    "phase2d": (PhaseFunction2D, ("grid_x", "grid_p")),
    "kernel": (OperatorKernel, ("grid", "grid")),
    "symbol": (Symbol2D, ("grid_x", "grid_xi")),
}


class FileFormatError(Exception):
    """Raised when a grid file cannot be parsed or is internally inconsistent."""


def _grid_from_header(entry: dict, what: str) -> Grid1D:
    # JSON numbers as they stand: Grid1D refuses a non-integer n, a
    # non-finite or non-numeric x_min or dx, and a grid off centre
    try:
        return Grid1D(entry["n"], entry["x_min"], entry["dx"])
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise FileFormatError(f"malformed {what} entry in header: {exc}") from exc


def _poly_from_header(header: dict) -> np.ndarray | None:
    if "poly_re" not in header and "poly_im" not in header:
        return None
    try:
        re = np.asarray(header["poly_re"], dtype=np.float64)
        im = np.asarray(header["poly_im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed poly tag: {exc}") from exc
    if re.ndim != 2 or re.shape != im.shape:
        raise FileFormatError("malformed poly tag: expected matching 2D arrays")
    # pairing, not re + 1j * im, which turns a -0.0 into 0.0
    return np.stack((re, im), axis=-1).view(np.complex128)[..., 0]


# --------------------------------------------------------------------------
# CSV payload


def _csv_rows(values: np.ndarray):
    """Row text index[,index],repr(re),repr(im), one axis-0 slice at a time."""
    cols = [f"{j}," for j in range(values.shape[1])] if values.ndim == 2 else [""]
    for i, row in enumerate(values.reshape(len(values), len(cols))):
        for col, re, im in zip(cols, row.real.tolist(), row.imag.tolist()):
            yield f"{i},{col}{re!r},{im!r}\n"


def _loadtxt(lines: list[str], fields: np.dtype) -> np.ndarray:
    if not any(lines):  # loadtxt warns on a payload without rows
        return np.empty(0, fields)
    return np.loadtxt(lines, fields, comments=None, delimiter=",", ndmin=1)


def _name_faulty_line(block: Iterable[tuple[int, str]], fields: np.dtype,
                      shape: tuple[int, ...]) -> None:
    """Raise for the first (line number, line) of block the C parser refuses on its own."""
    for lineno, line in block:
        try:
            _loadtxt([line], fields)
        except ValueError as exc:
            parts = line.strip().split(",")
            if len(parts) != len(shape) + 2:
                raise FileFormatError(f"line {lineno}: expected {len(shape) + 2} "
                                      f"comma-separated fields, got {len(parts)}") from None
            try:
                idx = tuple(int(p) for p in parts[:-2])
                float(parts[-2]), float(parts[-1])
            except ValueError as literal:
                raise FileFormatError(f"line {lineno}: {literal}") from None
            if any(not -(2**63) <= i < 2**63 for i in idx):  # beyond int64 is beyond any shape
                raise FileFormatError(f"line {lineno}: index {idx} outside shape "
                                      f"{shape}") from None
            raise FileFormatError(f"line {lineno}: {exc}") from None


def _parse_blocks(lines: list[str], fields: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """Parse the non-blank lines (the format skips whitespace-only ones, which
    loadtxt refuses) in blocks of about sqrt(N); in the first block refused,
    name the first faulty line."""
    kept = [line for line in lines if line.strip()]
    size = max(1, math.isqrt(len(kept)))
    tables = [np.empty(0, fields)]
    for start in range(0, len(kept), size):
        try:
            tables.append(_loadtxt(kept[start:start + size], fields))
        except ValueError:
            numbered = ((k, ln) for k, ln in enumerate(lines, start=2) if ln.strip())
            _name_faulty_line(islice(numbered, start, start + size), fields, shape)
            raise
    return np.concatenate(tables)


def _parse_csv(lines: list[str], shape: tuple[int, ...]) -> np.ndarray:
    fields = np.dtype([("index", "<i8", (len(shape),)), ("value", "<f8", (2,))])
    try:
        table = _loadtxt(lines, fields)
    except ValueError:
        table = _parse_blocks(lines, fields, shape)
    index = table["index"]
    outside = ((index < 0) | (index >= shape)).any(axis=1)
    # a stable sort puts each repeat after its first occurrence
    order = np.lexsort(index.T[::-1])
    ordered = index[order]
    repeat = np.zeros(len(index), dtype=bool)
    repeat[order[1:]] = (ordered[1:] == ordered[:-1]).all(axis=1)
    bad = outside | repeat | ~np.isfinite(table["value"]).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        # rows fill the non-blank lines in order
        lineno = next(islice((k for k, ln in enumerate(lines, 2) if ln.strip()), row, None))
        idx = tuple(int(i) for i in index[row])
        if outside[row]:
            raise FileFormatError(f"line {lineno}: index {idx} outside shape {shape}")
        if repeat[row]:
            raise FileFormatError(f"line {lineno}: index {idx} appears twice")
        raise FileFormatError(f"line {lineno}: value is not finite")
    size = math.prod(shape)
    if len(index) != size:
        raise FileFormatError(f"payload incomplete: {size - len(index)} of {size} "
                              "entries missing")
    # (re, im) pairs as they stand, so a -0.0 keeps its sign
    out = np.empty((size, 2))
    out[np.ravel_multi_index(tuple(index.T), shape)] = table["value"]
    return out.view(np.complex128).reshape(shape)


# --------------------------------------------------------------------------
# public API


def write(path: str, obj: GridObject, payload: str = "csv") -> None:
    """Write a grid object to path with the requested payload encoding."""
    if payload not in PAYLOADS:
        raise FileFormatError(f"payload must be one of {PAYLOADS}, got {payload!r}")
    kind = next((k for k, (cls, _) in _KINDS.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise FileFormatError(f"cannot serialize object of type {type(obj).__name__}")
    header: dict = {"kind": kind}
    for key in dict.fromkeys(_KINDS[kind][1]):
        grid = getattr(obj, key)
        header[key] = {"n": grid.n, "x_min": float(grid.x_min), "dx": float(grid.dx)}
    header.update(format_version=FORMAT_VERSION, dtype="complex128", payload=payload)
    if getattr(obj, "poly", None) is not None:
        coeffs = np.asarray(obj.poly, dtype=np.complex128)
        header["poly_re"] = coeffs.real.tolist()
        header["poly_im"] = coeffs.imag.tolist()
    header_line = json.dumps(header, separators=(",", ":"))
    values = np.asarray(obj.values, dtype=np.complex128)
    if payload == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_line + "\n")
            fh.writelines(_csv_rows(values))
    else:
        with open(path, "wb") as fh:
            fh.write(header_line.encode("utf-8") + b"\n")
            fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


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
    try:
        cls, axes = _KINDS[header.get("kind")]
    except (KeyError, TypeError):  # TypeError: an unhashable kind such as []
        raise FileFormatError(f"unknown kind {header.get('kind')!r}") from None
    grids = {key: _grid_from_header(header.get(key, {}), key)
             for key in dict.fromkeys(axes)}
    shape = tuple(grids[key].n for key in axes)
    body = raw[newline + 1 :]
    if payload == "csv":
        try:
            lines = body.decode("utf-8").splitlines()  # keeps no decoded text alive
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"CSV payload is not UTF-8 text: {exc}") from exc
        if not body.isascii():  # numpy's C parser takes some non-ASCII letters for digits
            raise FileFormatError("CSV payload is not ASCII text")
        values = _parse_csv(lines, shape)
    else:
        # Python ints: a numpy product of a huge header shape wraps silently
        expected = math.prod(shape) * 16
        if len(body) != expected:
            raise FileFormatError(f"binary payload holds {len(body)} bytes, "
                                  f"header implies {expected}")
        values = np.frombuffer(body, dtype="<c16").astype(np.complex128).reshape(shape)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            index = tuple(int(i) for i in np.unravel_index(bad[0], shape))
            raise FileFormatError(f"binary payload entry {index} is not finite")
    poly = (_poly_from_header(header),) if cls is Symbol2D else ()
    try:
        return cls(*grids.values(), values, *poly)
    except ConfigurationError as exc:  # a symbol's grids off a dual pair, or a poly tag's NaN
        raise FileFormatError(f"inconsistent header: {exc}") from exc
