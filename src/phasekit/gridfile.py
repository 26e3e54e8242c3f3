"""Self-describing disk format for grid data.

A grid file is one JSON header line followed by the payload.  The header
names the format version, the kind of object (function1d, phase2d, kernel,
symbol), the grid(s) as {n, x_min, dx}, the dtype (always complex128), and
the payload encoding.  Payloads are either CSV rows (index or index pair,
then real and imaginary parts, written with round-trippable float reprs) or
raw little-endian complex128 bytes in row-major order; the raw encoding
round-trips bit-exactly.  Readers check that the payload length matches the
shape the header promises, so truncated files fail loudly instead of
shifting data, and reject non-finite values and repeated CSV indices.  CSV
lines are parsed once; the first faulty line is named, and the n-entry
array is allocated only once the rows are known to fill it.

Polynomial tags on symbols survive the trip through an optional header
field; without that, a tagged symbol would silently lose its exact-algebra
star-product branch on reload.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Union

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
    # JSON numbers as they stand: Grid1D refuses a non-integer n and a
    # non-finite or non-numeric x_min or dx
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


def _parse_csv(lines: list[str], shape: tuple[int, ...]) -> np.ndarray:
    ndim = len(shape)
    want = ndim + 2
    # one parse per line into flat buffers: row-major indices, interleaved
    # (re, im) doubles, and the line number of each row
    indices, pairs, linenos = array("q"), array("d"), array("q")
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != want:
            raise FileFormatError(f"line {lineno}: expected {want} comma-separated "
                                  f"fields, got {len(parts)}")
        try:
            idx = [int(p) for p in parts[:ndim]]
            pairs.append(float(parts[-2]))
            pairs.append(float(parts[-1]))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
        try:
            indices.extend(idx)
        except OverflowError:
            # past int64, so past every shape whose rows a file can hold
            raise FileFormatError(f"line {lineno}: index {tuple(idx)} outside "
                                  f"shape {shape}") from None
        linenos.append(lineno)

    rows = len(linenos)
    index = np.frombuffer(indices, dtype=np.int64).reshape(rows, ndim)
    values = np.frombuffer(pairs, dtype=np.complex128)
    outside = np.zeros(rows, dtype=bool)
    for axis, n in enumerate(shape):
        outside |= (index[:, axis] < 0) | (index[:, axis] >= n)
    # a stable sort puts each repeat after its first occurrence
    order = np.lexsort(index.T[::-1])
    ordered = index[order]
    repeat = np.zeros(rows, dtype=bool)
    repeat[order[1:]] = (ordered[1:] == ordered[:-1]).all(axis=1)
    bad = outside | repeat | ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad))
        lineno, idx = linenos[row], tuple(int(i) for i in index[row])
        if outside[row]:
            raise FileFormatError(f"line {lineno}: index {idx} outside shape {shape}")
        if repeat[row]:
            raise FileFormatError(f"line {lineno}: index {idx} appears twice")
        raise FileFormatError(f"line {lineno}: value is not finite")
    size = math.prod(shape)
    if rows != size:
        raise FileFormatError(f"payload incomplete: {size - rows} of {size} "
                              "entries missing")
    out = np.empty(size, dtype=np.complex128)
    out[np.ravel_multi_index(tuple(index.T), shape)] = values
    return out.reshape(shape)


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
    return cls(*grids.values(), values, *poly)
