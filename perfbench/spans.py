"""Span tracer for the traced run, wrapping phasekit's layers from outside.

Nothing under src/ knows about it.  `Tracer.install()` replaces the names
each phasekit module binds for its neighbours' entry points (for example
`propagate` as bound in phasekit.wigner, phasekit.weyl and phasekit.bopp)
with timing wrappers, plus a few library entry points: scipy.fft.fft/ifft
(the grid's FFT passes), numpy.fft.fftshift/ifftshift (counted only) and
scipy.linalg.eigh/numpy.linalg.eigh (the eigensolves, which phasekit calls
only from phasekit.bopp).  `uninstall()` puts every original back.

Spans are kept in memory, one list per job: key, start, end and the index
of the span that was open when it began.  A layer's self time is its span
minus its direct child spans; the job's root span minus its children is
the unattributed remainder, so self times add up to the job time exactly.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from types import ModuleType

import numpy.fft
import numpy.linalg
import scipy.fft
import scipy.linalg

import phasekit.cli  # noqa: F401  (loads every phasekit module)

ROOT = "job"

#: (defining module, function, span key, modules whose binding is wrapped).
#: None wraps the binding in every phasekit module that holds the function.
#: `_propagate_values` is wrapped only where phasekit.bopp binds it, so
#: inside phasekit.metaplectic it stays part of `propagate`'s own time.
_PHASEKIT_SPANS = (
    ("phasekit.metaplectic", "propagate", "metaplectic.propagate", None),
    ("phasekit.metaplectic", "_propagate_values", "metaplectic.propagate_values",
     ("phasekit.bopp",)),
    ("phasekit.wigner", "wigner_fractional", "wigner.wigner_fractional", None),
    ("phasekit.wigner", "windowed_transform", "wigner.windowed_transform", None),
    ("phasekit.wigner", "windowed_adjoint", "wigner.windowed_adjoint", None),
    ("phasekit.weyl", "kernel_to_symbol", "weyl.kernel_to_symbol", None),
    ("phasekit.weyl", "symbol_to_kernel", "weyl.symbol_to_kernel", None),
    ("phasekit.weyl", "moyal_product", "weyl.moyal_product", None),
    ("phasekit.weyl", "theta_product", "weyl.theta_product", None),
    ("phasekit.weyl", "expectation", "weyl.expectation", None),
    ("phasekit.weyl", "mccoy_kernel", "weyl.mccoy_kernel", None),
    ("phasekit.bopp", "dense_matrix", "bopp.dense_matrix", None),
    ("phasekit.bopp", "bopp_spectrum", "bopp.bopp_spectrum", None),
    ("phasekit.bopp", "evolve_pair", "bopp.evolve_pair", None),
    ("phasekit.cli", "main", "cli", ("phasekit.cli",)),
    ("phasekit.cli", "_write_manifest", "cli.manifest", ("phasekit.cli",)),
    ("phasekit.gridfile", "read", "gridfile.read", None),
    ("phasekit.gridfile", "write", "gridfile.write", None),
)

_LIBRARY_SPANS = (
    (scipy.fft, "fft", "grid.fft"),
    (scipy.fft, "ifft", "grid.fft"),
    (scipy.linalg, "eigh", "bopp.eigh"),
    (numpy.linalg, "eigh", "bopp.eigh"),
)

_LIBRARY_COUNTS = (
    (numpy.fft, "fftshift", "grid.shift.calls"),
    (numpy.fft, "ifftshift", "grid.shift.calls"),
)


def _phasekit_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "phasekit" or name.startswith("phasekit."))]


def bindings() -> list[tuple[ModuleType, str, str]]:
    """Every (module, attribute, span key) the tracer replaces.  Count-only
    attributes carry their counter name as the key."""
    out = []
    for home, attr, key, where in _PHASEKIT_SPANS:
        fn = getattr(sys.modules[home], attr)
        for module in _phasekit_modules():
            if vars(module).get(attr) is fn and (where is None or module.__name__ in where):
                out.append((module, attr, key))
    out.extend(_LIBRARY_SPANS)
    out.extend(_LIBRARY_COUNTS)
    return out


def snapshot() -> dict[tuple[str, str], object]:
    """The objects currently bound at every attribute the tracer replaces."""
    return {(m.__name__, attr): getattr(m, attr) for m, attr, _ in bindings()}


def changed_since(before: dict[tuple[str, str], object]) -> list[str]:
    """Attributes no longer bound to the identical object (`is`)."""
    return [f"{mod}.{attr}" for (mod, attr), obj in before.items()
            if getattr(sys.modules[mod], attr) is not obj]


def _payload_of(path: str) -> str:
    """Payload encoding named in a grid file's header line."""
    try:
        with open(path, "rb") as fh:
            return str(json.loads(fh.readline()).get("payload"))
    except (OSError, ValueError, AttributeError):
        return "unreadable"


class Tracer:
    """Wraps the layer entry points and records spans and counts per job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, key in bindings():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(module, attr, key, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, module: ModuleType, attr: str, key: str, fn):
        if key == "grid.shift.calls":
            return self._counting(fn, key)
        key_of = lambda args, kwargs: key  # noqa: E731
        after = None
        if key == "grid.fft":
            def after(args, kwargs, result):
                self.counts["grid.fft.passes"] += 1
                self.counts["grid.fft.bytes"] += args[0].nbytes
        elif key == "bopp.eigh":
            def after(args, kwargs, result):
                self.counts["bopp.eigh.calls"] += 1
        elif key == "metaplectic.propagate":
            def after(args, kwargs, result):
                self.counts["metaplectic.propagate.calls"] += 1
        elif key == "bopp.dense_matrix":
            def after(args, kwargs, result):
                self.counts["bopp.dense_bytes"] += result.nbytes
        elif key == "wigner.windowed_transform" and module.__name__ == "phasekit.bopp":
            def after(args, kwargs, result):
                self.counts["bopp.lift.calls"] += 1
        elif key == "gridfile.read":
            key_of = lambda args, kwargs: "gridfile.read." + _payload_of(args[0])  # noqa: E731

            def after(args, kwargs, result):
                self.counts["gridfile.bytes_read"] += os.path.getsize(args[0])
        elif key == "gridfile.write":
            def key_of(args, kwargs):
                payload = args[2] if len(args) > 2 else kwargs.get("payload", "csv")
                return "gridfile.write." + payload

            def after(args, kwargs, result):
                self.counts["gridfile.bytes_written"] += os.path.getsize(args[0])
        return self._timing(fn, key_of, after)

    def _counting(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _timing(self, fn, key_of, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            key = key_of(args, kwargs)
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapped

    # -- one job ------------------------------------------------------------

    def run_job(self, fn, *args):
        """Run fn(*args) as one job under a root span; returns its result.
        Spans and counts start empty for every job."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        root = self._timing(fn, lambda a, k: ROOT, None)
        return root(*args)

    def job_seconds(self) -> float:
        span = self.spans[0]
        return span[2] - span[1]

    def self_times(self) -> dict[str, tuple[float, float]]:
        """Per span key: (total seconds, self seconds) over the last job."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (key, start, end, _), inner in zip(self.spans, child):
            entry = out.setdefault(key, [0.0, 0.0])
            entry[0] += end - start
            entry[1] += end - start - inner
        return {key: (total, own) for key, (total, own) in out.items()}

    def layer_values(self) -> dict[str, float]:
        """LAYER_METRICS for the last job, times in unscaled ms.  Raises
        if the self times and the unattributed rest miss the job time."""
        times = self.self_times()
        attributed = sum(own for _, own in times.values())
        if abs(attributed - self.job_seconds()) > 1e-9 * self.job_seconds() + 1e-12:
            raise RuntimeError(f"self times add to {attributed!r} s but the job "
                               f"took {self.job_seconds()!r} s")
        values = {}
        for name, _, _, kind, key in LAYER_METRICS:
            if kind == "count":
                values[name] = float(self.counts.get(key, 0))
            else:
                total, own = times.get(key, (0.0, 0.0))
                values[name] = (total if kind == "total" else own) * 1e3
        return values


# (metric, unit, better, source kind, source key).  Kinds: "total" and
# "self" are span seconds reported in ms, "count" is a per-job counter.
LAYER_METRICS = (
    ("grid.fft.passes", "count", "lower", "count", "grid.fft.passes"),
    ("grid.fft.bytes", "bytes", "lower", "count", "grid.fft.bytes"),
    ("grid.fft.ms", "ms", "lower", "total", "grid.fft"),
    ("grid.shift.calls", "count", "lower", "count", "grid.shift.calls"),
    ("metaplectic.propagate.calls", "count", "lower", "count", "metaplectic.propagate.calls"),
    ("metaplectic.propagate.self_ms", "ms", "lower", "self", "metaplectic.propagate"),
    ("metaplectic.propagate_values.ms", "ms", "lower", "total", "metaplectic.propagate_values"),
    ("wigner.wigner_fractional.self_ms", "ms", "lower", "self", "wigner.wigner_fractional"),
    ("wigner.windowed_transform.self_ms", "ms", "lower", "self", "wigner.windowed_transform"),
    ("wigner.windowed_adjoint.self_ms", "ms", "lower", "self", "wigner.windowed_adjoint"),
    ("weyl.kernel_to_symbol.ms", "ms", "lower", "total", "weyl.kernel_to_symbol"),
    ("weyl.symbol_to_kernel.ms", "ms", "lower", "total", "weyl.symbol_to_kernel"),
    ("weyl.moyal_product.self_ms", "ms", "lower", "self", "weyl.moyal_product"),
    ("weyl.theta_product.self_ms", "ms", "lower", "self", "weyl.theta_product"),
    ("weyl.expectation.self_ms", "ms", "lower", "self", "weyl.expectation"),
    ("weyl.mccoy_kernel.ms", "ms", "lower", "total", "weyl.mccoy_kernel"),
    ("bopp.dense_matrix.self_ms", "ms", "lower", "self", "bopp.dense_matrix"),
    ("bopp.bopp_spectrum.self_ms", "ms", "lower", "self", "bopp.bopp_spectrum"),
    ("bopp.evolve_pair.self_ms", "ms", "lower", "self", "bopp.evolve_pair"),
    ("bopp.eigh.ms", "ms", "lower", "total", "bopp.eigh"),
    ("bopp.eigh.calls", "count", "lower", "count", "bopp.eigh.calls"),
    ("bopp.lift.calls", "count", "lower", "count", "bopp.lift.calls"),
    ("bopp.dense_bytes", "bytes", "lower", "count", "bopp.dense_bytes"),
    ("gridfile.read.csv_ms", "ms", "lower", "total", "gridfile.read.csv"),
    ("gridfile.write.csv_ms", "ms", "lower", "total", "gridfile.write.csv"),
    ("gridfile.read.binary_ms", "ms", "lower", "total", "gridfile.read.binary"),
    ("gridfile.write.binary_ms", "ms", "lower", "total", "gridfile.write.binary"),
    ("gridfile.bytes_read", "bytes", "lower", "count", "gridfile.bytes_read"),
    ("gridfile.bytes_written", "bytes", "lower", "count", "gridfile.bytes_written"),
    ("cli.self_ms", "ms", "lower", "self", "cli"),
    ("cli.manifest_ms", "ms", "lower", "total", "cli.manifest"),
    ("job.unattributed_ms", "ms", "lower", "self", ROOT),
)

#: Per-layer diagnostics the worker computes itself: name, unit, better.
DIAGNOSTICS = (
    ("wigner.fractional_over_direct", "ratio", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("host.raw_latency_p50_ms", "ms", "lower"),
    ("import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

