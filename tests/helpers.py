"""Reference implementations that tests compare the package against."""

from __future__ import annotations

import math
from array import array

import numpy as np

from phasekit.gridfile import FileFormatError


def parse_csv_per_line(lines: list[str], shape: tuple[int, ...]) -> np.ndarray:
    """The CSV payload reader that the C-parser read replaced: each line is
    split and converted by Python's int and float, into flat buffers, then the
    whole-column checks run; errors name the first faulty physical line."""
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


def count_fft_passes(monkeypatch) -> list[str]:
    """Record the name of every scipy.fft.fft/ifft call made from now on,
    which is every FFT pass the package makes."""
    import scipy.fft

    passes: list[str] = []
    for name in ("fft", "ifft"):
        inner = getattr(scipy.fft, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            passes.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return passes
