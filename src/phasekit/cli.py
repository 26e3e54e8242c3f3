"""Command-line front end.

Eleven subcommands cover the library surface: flow (closed-form flow
matrix), propagate (phase-plane propagator), wigner / fracwigner
(distributions), reconstruct (windowed adjoint), weyl-symbol (kernel to
angle symbol), star (symbol products), expect (operator expectations),
bopp-spectrum (phase-plane eigensolve), evolve (paired dynamics), and
verify (the acceptance suite).

Every run writes its artifacts plus a JSON manifest recording the resolved
inputs, output paths, and any achieved errors next to the tolerance used.
Settings come from an optional JSON config file (--config) with flags
winning over config values.  Runs are deterministic for a fixed config and
seed; nothing here consults the clock.  Thread count for the FFT layer
comes from the PHASEKIT_THREADS environment variable.

Each subcommand is one entry in a command table: the flags it takes (from
one shared flag table), the flags it requires, its compute step, and its
artifacts.  One finisher writes the artifacts and the manifest and prints
the summary line for all of them.

State and window specs are small strings: "gaussian", "hermite:2",
"coherent:0.6+0.4j", "chirp", "chirp:0.8", or a path to a function1d grid
file.  Exit codes: 0 success, 1 numerical failure (verify), 2 usage,
including unreadable inputs, unwritable outputs, non-numeric or non-finite
numbers, and grids too large for the dense phase-plane harnesses.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from . import gridfile, states, verify
from .bopp import REPRESENTATIONS, bopp_spectrum, evolve_pair
from .grid import ConfigurationError, Grid1D, PhaseFunction2D, SampledFunction1D
from .gridfile import FileFormatError
from .metaplectic import propagate
from .symplectic import THETA_WIGNER, flow_matrix
from .weyl import (
    OperatorKernel,
    Symbol2D,
    expectation,
    fractional_symbol,
    kernel_to_symbol,
    symbol_oscillator,
    symbol_x,
    symbol_xi,
    theta_product,
)
from .wigner import (
    Theta,
    Window,
    _finite_angle,
    wigner_fractional,
    wigner_metaplectic,
    windowed_adjoint,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

_GRID_DEFAULTS = {"n": 256, "x_min": -8.0, "dx": 0.0625}


class UsageError(Exception):
    """Configuration or input problem; maps to exit code 2."""


# --------------------------------------------------------------------------
# settings: config file merged under flags


class Settings:
    """Flag values layered over a config file over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, Any] = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except FileNotFoundError:
                raise UsageError(f"config file not found: {path}")
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}")
            if not isinstance(loaded, dict):
                raise UsageError("config file must hold a JSON object")
            self.config = loaded
            declared = loaded.get("command")
            if declared is not None and declared != args.command:
                raise UsageError(
                    f"config declares command {declared!r} but "
                    f"{args.command!r} was invoked"
                )
        # Every number is converted and checked here, once, with the type
        # the flag table declares; Settings.theta checks the angle.
        grid = self.config.get("grid", {})
        tolerances = self.config.get("tolerances", {})
        if not (isinstance(grid, dict) and isinstance(tolerances, dict)):
            raise UsageError("config 'grid' and 'tolerances' must be JSON objects")
        for flag, spec in _FLAGS.items():
            kind, key = spec.get("type"), flag.replace("-", "_")
            for name, entries in ((f"--{flag}", vars(args)), (f"config {key!r}", self.config),
                                  (f"config grid.{key}", grid if key in _GRID_DEFAULTS else {})):
                if kind is not None and entries.get(key) is not None:
                    entries[key] = _typed(entries[key], kind, name,
                                          kind is float and flag != "theta")
        for key, value in tolerances.items():
            tolerances[key] = _typed(value, float, f"config tolerances.{key}", finite=True)

    def get(self, key: str, default: Any = None) -> Any:
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self.config:
            return self.config[key]
        return default

    def theta(self, default: float = THETA_WIGNER) -> float:
        """The one reader of --theta (or the config's theta); finite only."""
        value = self.get("theta")
        return _finite_angle(default if value is None else value)

    def payload(self) -> str:
        value = self.get("payload", "csv")
        if value not in gridfile.PAYLOADS:
            raise UsageError(f"payload must be one of {gridfile.PAYLOADS}")
        return value

    def grid(self) -> Grid1D:
        spec = {**_GRID_DEFAULTS, **self.config.get("grid", {})}
        n = self.get("n")
        if n is not None:
            spec["n"] = n
        # the config's top level, then the flags: in each, x_min and dx win
        # over the half_width shortcut
        for layer in (self.config, vars(self.args)):
            half = layer.get("half_width")
            if half is not None:
                spec["x_min"], spec["dx"] = -half, 2.0 * half / spec["n"]
            spec.update({key: layer[key] for key in ("x_min", "dx")
                         if layer.get(key) is not None})
        try:
            return Grid1D(spec["n"], spec["x_min"], spec["dx"])
        except ConfigurationError as exc:
            raise UsageError(str(exc))


def _typed(value: Any, kind: type, name: str, finite: bool) -> Any:
    """value as kind, else a UsageError naming it; also if finite is asked
    for and the value is nan or infinite."""
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    if finite and not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value}")
    return value


def _read_kind(path: str, kinds: tuple[type, ...], what: str):
    obj = gridfile.read(path)
    if not isinstance(obj, kinds):
        names = "|".join(k.__name__ for k in kinds)
        raise UsageError(f"{path}: expected {what} ({names}), "
                         f"got {type(obj).__name__}")
    return obj


def _resolve_state(spec: str, grid: Grid1D) -> SampledFunction1D:
    """Build a state from a spec string or load it from a grid file."""
    token, _, arg = spec.partition(":")
    if token in ("gaussian", "chirp") and not arg:
        return getattr(states, token)(grid)
    if token == "hermite":
        try:
            level = int(arg)
        except ValueError:
            raise UsageError(f"hermite spec needs an integer level: {spec!r}")
        return states.hermite(grid, level)  # which refuses a negative level
    if token == "coherent":
        try:
            alpha = complex(arg)
        except ValueError:
            raise UsageError(f"coherent spec needs a complex amplitude: {spec!r}")
        if not np.isfinite(alpha):
            raise UsageError(f"coherent spec amplitude must be finite: {spec!r}")
        return states.coherent(grid, alpha)
    if token == "chirp":
        try:
            rate = float(arg)
        except ValueError:
            raise UsageError(f"chirp spec rate must be a number: {spec!r}")
        if not math.isfinite(rate):
            raise UsageError(f"chirp spec rate must be finite: {spec!r}")
        return states.chirp(grid, rate)
    if os.path.exists(spec):
        return _read_kind(spec, (SampledFunction1D,), "a function1d grid file")
    raise UsageError(
        f"unknown state spec {spec!r} (gaussian, hermite:M, coherent:Z, "
        "chirp[:RATE], or a function1d file path)"
    )


def _window(s: Settings, grid: Grid1D) -> tuple[str, Window]:
    spec = s.get("window", "gaussian")
    return spec, Window(_resolve_state(spec, grid))


_BUILTIN_SYMBOLS = ("oscillator", "x", "xi")


def _resolve_symbol(spec: str, grid: Grid1D, kinds: tuple[type, ...] = (Symbol2D,),
                    what: str = "a symbol grid file"):
    """A builtin symbol on grid, or an operator of one of kinds from a file."""
    if spec in _BUILTIN_SYMBOLS:
        return {"oscillator": symbol_oscillator,
                "x": symbol_x, "xi": symbol_xi}[spec](grid)
    if os.path.exists(spec):
        return _read_kind(spec, kinds, what)
    raise UsageError(f"unknown symbol spec {spec!r} "
                     f"(one of {_BUILTIN_SYMBOLS} or {what})")


def _grid_record(g: Grid1D) -> dict:
    return {"n": g.n, "x_min": g.x_min, "dx": g.dx}


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path: str, payload: dict) -> None:
    _write_json(path, {"format_version": gridfile.FORMAT_VERSION, **payload})


def _float_csv(value: float) -> str:
    return repr(float(value) + 0.0)  # the +0.0 folds -0.0 into 0.0


def _csv(rows, header: str | None = None) -> str:
    """CSV text: floats as round-trippable reprs, ints as is, None empty."""
    lines = [] if header is None else [header]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) if isinstance(v, int)
                              else _float_csv(v) for v in row))
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# the command table


#: Every flag any subcommand takes; a command lists the names it accepts.
_FLAGS: dict[str, dict[str, Any]] = {
    "config": {"help": "JSON config file; flags win over it"},
    "output": {"help": "output path (or base path)"},
    "manifest": {"help": "manifest path (default: <output>.manifest.json)"},
    "payload": {"choices": gridfile.PAYLOADS,
                "help": "grid file payload encoding (default csv)"},
    "n": {"type": int, "help": "grid size (even)"},
    "x-min": {"type": float, "help": "left grid edge"},
    "dx": {"type": float, "help": "grid spacing"},
    "half-width": {"type": float,
                   "help": "centered grid shortcut: x_min=-H, dx=2H/n"},
    "theta": {"type": float,
              "help": "angle (default: the distinguished angle; flow: 0)"},
    "input": {"help": "phase2d grid file"},
    "state": {"help": "state spec (default gaussian)"},
    "phi": {"help": "second state spec (default: same)"},
    "gaussian": {"action": "store_true", "help": "shorthand for --state gaussian"},
    "window": {"help": "window spec (default gaussian)"},
    "kernel": {"help": "kernel grid file"},
    "a": {"help": "first symbol (file or builtin oscillator/x/xi)"},
    "b": {"help": "second symbol"},
    "method": {"choices": ("algebraic", "kernel", "quadrature")},
    "op": {"help": "kernel/symbol file or builtin symbol"},
    "symbol": {"help": "symbol file or builtin oscillator/x/xi "
                       "(evolve: default oscillator)"},
    "count": {"type": int, "help": "number of clusters"},
    "representation": {"choices": REPRESENTATIONS},
    "gap": {"type": float, "help": "cluster gap threshold"},
    "t": {"type": float, "help": "final time"},
    "steps": {"type": int, "help": "checkpoint count (default 16)"},
    "suite": {"help": "criterion or alias (default all)"},
    "seed": {"type": int, "help": "seed for randomized checks"},
    "tolerance": {"action": "append", "metavar": "CHECK=VALUE",
                  "help": "override a tolerance, e.g. "
                          "propagator/group-law=1e-5 (repeatable)"},
}
_COMMON = ("config", "output", "manifest", "payload")
_GRID = ("n", "x-min", "dx", "half-width")


@dataclass
class _Run:
    """One command's result: manifest inputs, artifact contents keyed like
    the manifest's outputs (a grid object, a dict written as JSON, or CSV
    text), the summary line, extra manifest fields, and a failure note."""

    inputs: dict
    artifacts: dict
    summary: str
    extra: dict = field(default_factory=dict)
    failure: str | None = None


class _Command(NamedTuple):
    """Help text, accepted and required flags, compute step, default
    output path (or base), and {manifest output key: suffix to the base}."""

    help: str
    flags: tuple[str, ...]
    required: tuple[str, ...]
    run: Callable[[Settings, dict], _Run]
    output: str
    outputs: dict[str, str]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, flags: tuple[str, ...], output: str,
             outputs: dict[str, str], required: tuple[str, ...] = ()):
    def register(run):
        _COMMANDS[name] = _Command(help, flags, required, run, output, outputs)
        return run
    return register


@_command("flow", "closed-form 4x4 flow matrix as CSV", ("theta",),
          "flow.csv", {"matrix": ""})
def _run_flow(s: Settings, out: dict) -> _Run:
    theta = s.theta(0.0)
    return _Run({"theta": theta}, {"matrix": _csv(flow_matrix(theta))},
                f"flow matrix at theta={theta:g} -> {out['matrix']}")


@_command("propagate", "apply the phase-plane propagator", ("input", "theta"),
          "propagate.csv", {"phase2d": ""}, required=("input",))
def _run_propagate(s: Settings, out: dict) -> _Run:
    path = s.get("input")
    F = _read_kind(path, (PhaseFunction2D,), "a phase-plane function")
    theta = s.theta()
    return _Run({"input": path, "theta": theta}, {"phase2d": propagate(F, theta)},
                f"propagated by theta={theta:g} -> {out['phase2d']}")


@_command("fracwigner", "distribution at any angle",
          ("state", "phi", "gaussian", "theta", *_GRID), "fracwigner.csv",
          {"phase2d": ""})
@_command("wigner", "distribution at the distinguished angle",
          ("state", "phi", "gaussian", *_GRID), "wigner.csv", {"phase2d": ""})
def _run_wigner(s: Settings, out: dict) -> _Run:
    command = s.args.command
    theta = s.theta() if command == "fracwigner" else None
    grid = s.grid()
    psi_spec = "gaussian" if s.get("gaussian") else s.get("state", "gaussian")
    phi_spec = s.get("phi", psi_spec)
    psi = _resolve_state(psi_spec, grid)
    phi = _resolve_state(phi_spec, psi.grid)
    if theta is None:
        W = wigner_metaplectic(psi, phi)
        theta = THETA_WIGNER
    else:
        W = wigner_fractional(psi, phi, theta)
    return _Run({"state": psi_spec, "phi": phi_spec, "theta": theta,
                 "grid": _grid_record(psi.grid)},
                {"phase2d": W},
                f"{command}({psi_spec}, {phi_spec}) at theta={theta:g} -> "
                f"{out['phase2d']}")


@_command("reconstruct", "windowed adjoint of a phase-plane function",
          ("input", "window", "theta"), "reconstruct.csv", {"function1d": ""},
          required=("input",))
def _run_reconstruct(s: Settings, out: dict) -> _Run:
    path = s.get("input")
    F = _read_kind(path, (PhaseFunction2D,), "a phase-plane function")
    window_spec, window = _window(s, F.grid_x)
    theta = s.theta()
    return _Run({"input": path, "window": window_spec, "theta": theta},
                {"function1d": windowed_adjoint(F, window, theta)},
                f"reconstructed with window {window_spec} at theta={theta:g} "
                f"-> {out['function1d']}")


@_command("weyl-symbol", "angle symbol of an operator kernel", ("kernel", "theta"),
          "weyl-symbol.csv", {"symbol": ""}, required=("kernel",))
def _run_weyl_symbol(s: Settings, out: dict) -> _Run:
    path = s.get("kernel")
    kernel = _read_kind(path, (OperatorKernel,), "an operator kernel")
    theta = s.theta()
    # The distinguished angle has an exact route; other angles go through
    # the propagator.
    if Theta(theta).is_wigner:
        symbol = kernel_to_symbol(kernel)
    else:
        symbol = fractional_symbol(kernel, theta)
    return _Run({"kernel": path, "theta": theta}, {"symbol": symbol},
                f"symbol at theta={theta:g} -> {out['symbol']}")


@_command("star", "star product of two symbols", ("a", "b", "theta", "method", *_GRID),
          "star.csv", {"symbol": ""}, required=("a", "b"))
def _run_star(s: Settings, out: dict) -> _Run:
    a_spec, b_spec = s.get("a"), s.get("b")
    a = _resolve_symbol(a_spec, s.grid())
    b = _resolve_symbol(b_spec, a.grid_x)
    theta = s.theta()
    method = s.get("method")
    return _Run({"a": a_spec, "b": b_spec, "theta": theta, "method": method or "auto",
                 "grid": _grid_record(a.grid_x)},
                {"symbol": theta_product(a, b, theta, method=method)},
                f"star product at theta={theta:g} -> {out['symbol']}")


@_command("expect", "operator expectation in a state", ("op", "state", "theta", *_GRID),
          "expect.json", {"expectation": ""}, required=("op",))
def _run_expect(s: Settings, out: dict) -> _Run:
    op_spec = s.get("op")
    op = _resolve_symbol(op_spec, s.grid(), (OperatorKernel, Symbol2D),
                         "a kernel or symbol grid file")
    op_grid = op.grid if isinstance(op, OperatorKernel) else op.grid_x
    state_spec = s.get("state", "gaussian")
    state = _resolve_state(state_spec, op_grid)
    theta = s.theta()
    result = expectation(op, state, theta)
    record = {
        "value": [result.value.real, result.value.imag],
        "phase_value": [result.phase_value.real, result.phase_value.imag],
        "residual": result.residual,
        "self_adjoint": result.self_adjoint,
    }
    if result.adjoint_value is not None:
        record["adjoint_value"] = [result.adjoint_value.real,
                                   result.adjoint_value.imag]
    return _Run({"op": op_spec, "state": state_spec, "theta": theta,
                 "grid": _grid_record(op_grid)},
                {"expectation": record},
                f"expectation value {result.value:.12g} (phase-space route "
                f"residual {result.residual:.3e}) -> {out['expectation']}",
                {"results": record})


@_command("bopp-spectrum", "eigenvalue clusters of a phase-plane operator",
          ("symbol", "count", "window", "representation", "gap", *_GRID),
          "bopp-spectrum", {"report_json": ".json", "report_csv": ".csv"},
          required=("symbol", "count"))
def _run_bopp_spectrum(s: Settings, out: dict) -> _Run:
    symbol_spec, count = s.get("symbol"), s.get("count")
    symbol = _resolve_symbol(symbol_spec, s.grid())
    window_spec, window = _window(s, symbol.grid_x)
    representation = s.get("representation", "bopp_conjugated")
    gap = s.get("gap")
    kwargs = {} if gap is None else {"gap": gap}
    report = bopp_spectrum(symbol, count, window,
                           representation=representation, **kwargs)
    record = {
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "multiplicities": [int(m) for m in report.multiplicities],
        "residuals": [float(r) for r in report.residuals],
        "pairing": {str(k): int(v) for k, v in report.pairing.items()},
        "reference_eigenvalues": [float(v) for v in report.reference_eigenvalues],
        "pushforward_residuals": [float(r) for r in report.pushforward_residuals],
        "gap": float(report.gap),
    }
    eigenvalues = record["eigenvalues"]
    references = [record["reference_eigenvalues"][report.pairing[i]]
                  for i in range(len(eigenvalues))]
    table = _csv(zip(range(len(eigenvalues)), eigenvalues, record["multiplicities"],
                     record["residuals"], references, record["pushforward_residuals"]),
                 "index,eigenvalue,multiplicity,residual,reference,pushforward")
    eig_txt = ", ".join(f"{v:.6f}" for v in eigenvalues)
    worst = max(record["residuals"])
    return _Run({"symbol": symbol_spec, "count": count, "window": window_spec,
                 "representation": representation, "gap": record["gap"],
                 "grid": _grid_record(symbol.grid_x)},
                {"report_json": record, "report_csv": table},
                f"lowest {count} cluster eigenvalues: {eig_txt} (worst residual "
                f"{worst:.3e}) -> {out['report_json']}, {out['report_csv']}",
                {"results": {"eigenvalues": eigenvalues, "max_residual": worst}})


@_command("evolve", "evolve a state and its phase-plane lift side by side",
          ("symbol", "state", "window", "t", "steps", "representation", *_GRID),
          "evolve", {"state": "-state.csv", "phase": "-phase.csv",
                     "divergence_table": "-divergence.csv"}, required=("t",))
def _run_evolve(s: Settings, out: dict) -> _Run:
    symbol_spec = s.get("symbol", "oscillator")
    t_final, steps = s.get("t"), s.get("steps", 16)
    symbol = _resolve_symbol(symbol_spec, s.grid())
    state_spec = s.get("state", "gaussian")
    state = _resolve_state(state_spec, symbol.grid_x)
    window_spec, window = _window(s, symbol.grid_x)
    representation = s.get("representation", "bopp_conjugated")
    result = evolve_pair(symbol, state, window, t_final, steps,
                         representation=representation)
    table = _csv(zip(result.times, result.divergences), "time,divergence")
    return _Run({"symbol": symbol_spec, "state": state_spec, "window": window_spec,
                 "t": t_final, "steps": steps, "representation": representation,
                 "grid": _grid_record(symbol.grid_x)},
                {"state": result.state, "phase": result.phase,
                 "divergence_table": table},
                f"evolved to t={t_final:g} in {steps} checkpoints; divergence "
                f"{result.divergence:.3e} -> {out['state']}, {out['phase']}",
                {"results": {"divergence": result.divergence,
                             "state_norm_drift": result.state_norm_drift,
                             "phase_norm_drift": result.phase_norm_drift,
                             "route": "krylov", "krylov_dims": list(result.krylov_dims)}})


def _parse_tolerance_overrides(s: Settings) -> dict[str, float]:
    overrides = dict(s.config.get("tolerances", {}))
    for item in (getattr(s.args, "tolerance", None) or []):
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--tolerance needs criterion/check=value: {item!r}")
        overrides[key] = _typed(value, float, f"--tolerance {key}", finite=True)
    return overrides


# verify writes no artifacts, so its manifest path ignores --output
@_command("verify", "run acceptance criteria", ("suite", "seed", "tolerance"),
          "verify", {})
def _run_verify(s: Settings, out: dict) -> _Run:
    suite = s.get("suite", "all")
    try:
        names = verify.resolve_suite(suite)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    seed = s.get("seed", 0)
    overrides = _parse_tolerance_overrides(s)
    rows = []
    failing: list[str] = []
    for r in verify.run_all(seed=seed, names=names):
        tolerance = float(overrides.get(f"{r.criterion}/{r.check}", r.tolerance))
        passed = bool(float(r.error) <= tolerance)
        rows.append({"criterion": r.criterion, "check": r.check,
                     "tolerance": tolerance, "error": float(r.error),
                     "passed": passed, "detail": r.detail})
        if not passed and r.criterion not in failing:
            failing.append(r.criterion)
    labels = [f"{row['criterion']}/{row['check']}" for row in rows]
    width = max(len(label) for label in labels)
    lines = [f"{'pass' if row['passed'] else 'FAIL'}  {label:<{width}}  "
             f"error={row['error']:.3e}  tolerance={row['tolerance']:.1e}"
             for label, row in zip(labels, rows)]
    good = sum(row["passed"] for row in rows)
    lines.append(f"{good}/{len(rows)} checks passed (suite {suite}, seed {seed})")
    return _Run({"suite": suite, "seed": seed, "criteria": list(names),
                 "tolerance_overrides": overrides},
                {}, "\n".join(lines), {"checks": rows, "passed": not failing},
                f"failing criteria: {', '.join(failing)}" if failing else None)


COMMANDS = tuple(_COMMANDS)


# --------------------------------------------------------------------------
# argument parsing and the one finisher


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="Phase-space transforms, symbol calculus, and the "
                    "verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags + _COMMON:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _finish(s: Settings) -> int:
    """Run the invoked command, write its artifacts and manifest, print."""
    name = s.args.command
    command = _COMMANDS[name]
    for flag in command.required:
        if s.get(flag) in (None, ""):
            raise UsageError(f"{name} needs --{flag}: {_FLAGS[flag]['help']}")
    base = s.get("output", command.output) if command.outputs else command.output
    out = {key: base + suffix for key, suffix in command.outputs.items()}
    run = command.run(s, out)
    for key, content in run.artifacts.items():
        if isinstance(content, str):
            with open(out[key], "w", encoding="utf-8") as fh:
                fh.write(content)
        elif isinstance(content, dict):
            _write_json(out[key], content)
        else:
            # grid files record the payload encoding they were written with
            run.inputs["payload"] = s.payload()
            gridfile.write(out[key], content, run.inputs["payload"])
    _write_manifest(s.get("manifest", base + ".manifest.json"), {
        "command": name, "inputs": run.inputs, "outputs": out, **run.extra})
    print(run.summary)
    if run.failure:
        print(run.failure, file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _finish(Settings(args))
    except (UsageError, ConfigurationError, FileFormatError, OSError) as exc:
        # OSError covers unreadable inputs and unwritable outputs alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
