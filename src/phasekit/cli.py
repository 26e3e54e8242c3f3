"""Command-line front end.

Eleven subcommands cover the library surface: flow (closed-form flow
matrix), propagate (phase-plane propagator), wigner / fracwigner
(distributions), reconstruct (windowed adjoint), weyl-symbol (kernel to
angle symbol), star (symbol products), expect (operator expectations),
bopp-spectrum (phase-plane eigensolve), evolve (paired dynamics), and
verify (the acceptance suite).

Every run writes its artifacts plus a JSON manifest: its inputs are the
settings the run read (each value as used, defaults included, and the grid
of the first state or symbol), then the output paths and any achieved
errors next to the tolerance used.  Settings come from an optional JSON
config file (--config) with flags winning over config values; a config key
that is not a setting of the invoked command, or a string setting given as
another JSON type, is refused.  The grid is the centred box [-H, H) of n
points (--n, --half-width; defaults 256 and 8).  Runs are deterministic for
a fixed config and seed; nothing here consults the clock.

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
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import gridfile, states, verify
from .bopp import PAIRING_GAP, REPRESENTATIONS, bopp_spectrum, evolve_pair
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
    Window,
    _finite_angle,
    _is_wigner_angle,
    wigner_fractional,
    windowed_adjoint,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2

#: Grid keys of the flags, the config's top level and its grid section.
_GRID_KEYS = ("n", "half_width")


class UsageError(Exception):
    """Configuration or input problem; maps to exit code 2."""


# --------------------------------------------------------------------------
# settings: config file merged under flags


class Settings:
    """Flag values layered over a config file over defaults.

    `get` and the spec readers record each value they hand out in `inputs`,
    which the finisher writes as the manifest's inputs; `lookup` reads
    without recording (output paths, required-flag checks).
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, Any] = {}
        self.inputs: dict[str, Any] = {}
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
        # Every number is converted and checked here, once, with the type the flag
        # table declares; Settings.theta checks the angle, verify its tolerances.
        grid = self.config.get("grid", {})
        if not (isinstance(grid, dict) and isinstance(self.config.get("tolerances", {}), dict)):
            raise UsageError("config 'grid' and 'tolerances' must be JSON objects")
        # A config names only settings of the invoked command: its flags but
        # --config and --tolerance (whose config form is tolerances), plus a
        # grid section where grid flags are taken and verify's tolerances.
        flags = _COMMANDS[args.command].flags + _COMMON
        known = {"command", *(f.replace("-", "_") for f in flags
                              if f not in ("config", "tolerance")),
                 *(key for key, flag in (("grid", "n"), ("tolerances", "tolerance"))
                   if flag in flags)}
        unknown = [repr(key) for key in self.config if key not in known]
        unknown += [f"grid.{key}" for key in grid if key not in _GRID_KEYS]
        if unknown:
            raise UsageError(f"config {unknown[0]} is not a setting of {args.command}")
        for flag, spec in _FLAGS.items():
            kind, key = spec.get("type"), flag.replace("-", "_")
            for name, entries in ((f"--{flag}", vars(args)), (f"config {key!r}", self.config),
                                  (f"config grid.{key}", grid if key in _GRID_KEYS else {})):
                if kind is not None and entries.get(key) is not None:
                    entries[key] = value = _typed(entries[key], kind, name,
                                                  kind is float and flag != "theta")
                    if flag == "gap" and value < 0:  # every level would be its own cluster
                        raise UsageError(f"{name} must be finite and nonnegative, got {value}")
            # an untyped flag's config value is a string, or --gaussian's a boolean
            # (a config 'tolerance', the other flag with an action, was refused above)
            value = self.config.get(key)
            want, what = (bool, "a boolean") if spec.get("action") else (str, "a string")
            if kind is None and value is not None and not isinstance(value, want):
                raise UsageError(f"config {key!r} must be {what}, got {value!r}")

    def lookup(self, key: str, default: Any = None) -> Any:
        """The flag, else the config value, else default; not recorded."""
        for layer in (vars(self.args), self.config):
            if layer.get(key) is not None:
                return layer[key]
        return default

    def get(self, key: str, default: Any = None) -> Any:
        """lookup, recorded in the manifest's inputs."""
        self.inputs[key] = value = self.lookup(key, default)
        return value

    def theta(self, default: float = THETA_WIGNER) -> float:
        """The one reader of --theta (or the config's theta); finite only."""
        return _finite_angle(self.get("theta", default))

    def state(self, key: str, grid: Grid1D, default: str = "gaussian") -> SampledFunction1D:
        """The state spec under key, resolved on grid (a file brings its own)."""
        state = _resolve_state(self.get(key, default), grid)
        self.inputs.setdefault("grid", asdict(state.grid))
        return state

    def symbol(self, key: str, grid: Grid1D, default: str | None = None,
               kinds: tuple[type, ...] = (Symbol2D,), what: str = "a symbol grid file"):
        """A builtin symbol on grid, or an operator of one of kinds from a file."""
        spec = self.get(key, default)
        if spec in _SYMBOLS:
            op = _SYMBOLS[spec](grid)
        elif os.path.exists(spec):
            op = _read_kind(spec, kinds, what)
        else:
            raise UsageError(f"unknown symbol spec {spec!r} "
                             f"(one of {tuple(_SYMBOLS)} or {what})")
        self.inputs.setdefault("grid", asdict(op.grid if isinstance(op, OperatorKernel)
                                              else op.grid_x))
        return op

    def window(self, grid: Grid1D) -> Window:
        return Window(_resolve_state(self.get("window", "gaussian"), grid))

    def grid(self) -> Grid1D:
        """The centred box [-half_width, half_width) of n points; each from
        the flags, else the config's top level, else its grid section, else
        the defaults n = 256 and half_width = 8."""
        layers = (vars(self.args), self.config, self.config.get("grid", {}),
                  {"n": 256, "half_width": 8.0})
        n, half_width = (next(layer[key] for layer in layers if layer.get(key) is not None)
                         for key in _GRID_KEYS)
        try:
            return Grid1D.centered(n, half_width)
        except ConfigurationError as exc:
            raise UsageError(str(exc))


def _typed(value: Any, kind: type, name: str, finite: bool) -> Any:
    """value as kind, else a UsageError naming it; also if finite is asked
    for and the value is nan or infinite."""
    what = "an integer" if kind is int else "a number"
    try:  # only what the flag accepts: a JSON true is no number, and int(2.5) truncates
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        value = kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be {what}, got {value!r}")
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


#: Spec token -> (builder, argument type, refusal of an argument not of that
#: type, refusal of a non-finite one); hermite refuses a negative level itself.
_STATE_ARGS = {
    "hermite": (states.hermite, int, "needs an integer level", None),
    "coherent": (states.coherent, complex, "needs a complex amplitude", "amplitude must be finite"),
    "chirp": (states.chirp, float, "rate must be a number", "rate must be finite"),
}


def _resolve_state(spec: str, grid: Grid1D) -> SampledFunction1D:
    """Build a state from a spec string or load it from a grid file."""
    token, _, arg = spec.partition(":")
    if token in ("gaussian", "chirp") and not arg:
        return getattr(states, token)(grid)
    if token in _STATE_ARGS:
        build, kind, not_kind, not_finite = _STATE_ARGS[token]
        try:
            value = kind(arg)
        except ValueError:
            raise UsageError(f"{token} spec {not_kind}: {spec!r}")
        if not_finite and not np.isfinite(value):
            raise UsageError(f"{token} spec {not_finite}: {spec!r}")
        return build(grid, value)
    if os.path.exists(spec):
        return _read_kind(spec, (SampledFunction1D,), "a function1d grid file")
    raise UsageError(
        f"unknown state spec {spec!r} (gaussian, hermite:M, coherent:Z, "
        "chirp[:RATE], or a function1d file path)"
    )


_SYMBOLS = {"oscillator": symbol_oscillator, "x": symbol_x, "xi": symbol_xi}


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path: str, payload: dict) -> None:
    _write_json(path, {"format_version": gridfile.FORMAT_VERSION, **payload})


def _plain(value: Any) -> Any:
    """value as JSON data: a dataclass as its fields (None dropped), arrays
    as lists, complex numbers as [re, im], mapping keys as str."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return [_plain(item) for item in value]
    if isinstance(value, complex):  # numpy's complex128 too
        return [float(value.real), float(value.imag)]
    return value.item() if isinstance(value, np.generic) else value


def _float_csv(value: float) -> str:
    return repr(float(value) + 0.0)  # the +0.0 folds -0.0 into 0.0


def _csv(rows, header: str | None = None) -> str:
    """CSV text: floats as round-trippable reprs, ints as is."""
    lines = [] if header is None else [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else _float_csv(v) for v in row))
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
    "n": {"type": int, "help": "grid size (even; default 256)"},
    "half-width": {"type": float,
                   "help": "half width H of the centred box [-H, H) (default 8)"},
    "theta": {"type": float,
              "help": "angle (default: the distinguished angle; flow: 0)"},
    "input": {"help": "phase2d grid file"},
    "state": {"help": "state spec (default gaussian)"},
    "phi": {"help": "second state spec (default: same)"},
    "gaussian": {"action": "store_true", "default": None,
                 "help": "shorthand for --state gaussian"},
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
_GRID = ("n", "half-width")


@dataclass
class _Run:
    """One command's result: artifact contents keyed like the manifest's
    outputs (a grid object, a dict written as JSON, or CSV text), the
    summary line, extra manifest fields, and a failure note.  The manifest's
    inputs are what the run read through its Settings."""

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
    return _Run({"matrix": _csv(flow_matrix(theta))},
                f"flow matrix at theta={theta:g} -> {out['matrix']}")


@_command("propagate", "apply the phase-plane propagator", ("input", "theta"),
          "propagate.csv", {"phase2d": ""}, required=("input",))
def _run_propagate(s: Settings, out: dict) -> _Run:
    F = _read_kind(s.get("input"), (PhaseFunction2D,), "a phase-plane function")
    theta = s.theta()
    return _Run({"phase2d": propagate(F, theta)},
                f"propagated by theta={theta:g} -> {out['phase2d']}")


@_command("fracwigner", "distribution at any angle",
          ("state", "phi", "gaussian", "theta", *_GRID), "fracwigner.csv",
          {"phase2d": ""})
@_command("wigner", "distribution at the distinguished angle",
          ("state", "phi", "gaussian", *_GRID), "wigner.csv", {"phase2d": ""})
def _run_wigner(s: Settings, out: dict) -> _Run:
    theta = s.theta()  # THETA_WIGNER for wigner, which takes no theta setting
    if s.lookup("gaussian"):
        s.args.state = "gaussian"
    psi = s.state("state", s.grid())
    phi = s.state("phi", psi.grid, s.inputs["state"])
    return _Run({"phase2d": wigner_fractional(psi, phi, theta)},
                f"{s.args.command}({s.inputs['state']}, {s.inputs['phi']}) at "
                f"theta={theta:g} -> {out['phase2d']}")


@_command("reconstruct", "windowed adjoint of a phase-plane function",
          ("input", "window", "theta"), "reconstruct.csv", {"function1d": ""},
          required=("input",))
def _run_reconstruct(s: Settings, out: dict) -> _Run:
    F = _read_kind(s.get("input"), (PhaseFunction2D,), "a phase-plane function")
    window = s.window(F.grid_x)
    theta = s.theta()
    return _Run({"function1d": windowed_adjoint(F, window, theta)},
                f"reconstructed with window {s.inputs['window']} at theta={theta:g} "
                f"-> {out['function1d']}")


@_command("weyl-symbol", "angle symbol of an operator kernel", ("kernel", "theta"),
          "weyl-symbol.csv", {"symbol": ""}, required=("kernel",))
def _run_weyl_symbol(s: Settings, out: dict) -> _Run:
    kernel = _read_kind(s.get("kernel"), (OperatorKernel,), "an operator kernel")
    theta = s.theta()  # the distinguished angle has an exact route, others the propagator
    exact = _is_wigner_angle(theta)
    symbol = kernel_to_symbol(kernel) if exact else fractional_symbol(kernel, theta)
    return _Run({"symbol": symbol}, f"symbol at theta={theta:g} -> {out['symbol']}")


@_command("star", "star product of two symbols", ("a", "b", "theta", "method", *_GRID),
          "star.csv", {"symbol": ""}, required=("a", "b"))
def _run_star(s: Settings, out: dict) -> _Run:
    a = s.symbol("a", s.grid())
    b = s.symbol("b", a.grid_x)
    theta = s.theta()
    method = s.get("method")
    s.inputs["method"] = method or "auto"
    return _Run({"symbol": theta_product(a, b, theta, method=method)},
                f"star product at theta={theta:g} -> {out['symbol']}")


@_command("expect", "operator expectation in a state", ("op", "state", "theta", *_GRID),
          "expect.json", {"expectation": ""}, required=("op",))
def _run_expect(s: Settings, out: dict) -> _Run:
    op = s.symbol("op", s.grid(), kinds=(OperatorKernel, Symbol2D),
                  what="a kernel or symbol grid file")
    state = s.state("state", op.grid if isinstance(op, OperatorKernel) else op.grid_x)
    result = expectation(op, state, s.theta())
    record = _plain(result)
    return _Run({"expectation": record},
                f"expectation value {result.value:.12g} (phase-space route "
                f"residual {result.residual:.3e}) -> {out['expectation']}",
                {"results": record})


@_command("bopp-spectrum", "eigenvalue clusters of a phase-plane operator",
          ("symbol", "count", "window", "representation", "gap", *_GRID),
          "bopp-spectrum", {"report_json": ".json", "report_csv": ".csv"},
          required=("symbol", "count"))
def _run_bopp_spectrum(s: Settings, out: dict) -> _Run:
    symbol = s.symbol("symbol", s.grid())
    count = s.get("count")
    report = bopp_spectrum(symbol, count, s.window(symbol.grid_x),
                           representation=s.get("representation", "bopp_conjugated"),
                           gap=s.get("gap", PAIRING_GAP))
    record = _plain(report)
    eigenvalues = record["eigenvalues"]
    references = [record["reference_eigenvalues"][report.pairing[i]]
                  for i in range(len(eigenvalues))]
    table = _csv(zip(range(len(eigenvalues)), eigenvalues, record["multiplicities"],
                     record["residuals"], references, record["pushforward_residuals"]),
                 "index,eigenvalue,multiplicity,residual,reference,pushforward")
    eig_txt = ", ".join(f"{v:.6f}" for v in eigenvalues)
    worst = max(record["residuals"])
    return _Run({"report_json": record, "report_csv": table},
                f"lowest {count} cluster eigenvalues: {eig_txt} (worst residual "
                f"{worst:.3e}) -> {out['report_json']}, {out['report_csv']}",
                {"results": {"eigenvalues": eigenvalues, "max_residual": worst}})


@_command("evolve", "evolve a state and its phase-plane lift side by side",
          ("symbol", "state", "window", "t", "steps", "representation", *_GRID),
          "evolve", {"state": "-state.csv", "phase": "-phase.csv",
                     "divergence_table": "-divergence.csv"}, required=("t",))
def _run_evolve(s: Settings, out: dict) -> _Run:
    t_final, steps = s.get("t"), s.get("steps", 16)
    symbol = s.symbol("symbol", s.grid(), "oscillator")
    state = s.state("state", symbol.grid_x)
    result = evolve_pair(symbol, state, s.window(symbol.grid_x), t_final, steps,
                         representation=s.get("representation", "bopp_conjugated"))
    table = _csv(zip(result.times, result.divergences), "time,divergence")
    return _Run({"state": result.state, "phase": result.phase,
                 "divergence_table": table},
                f"evolved to t={t_final:g} in {steps} checkpoints; divergence "
                f"{result.divergence:.3e} -> {out['state']}, {out['phase']}",
                {"results": {"divergence": result.divergence,
                             "state_norm_drift": result.state_norm_drift,
                             "phase_norm_drift": result.phase_norm_drift,
                             "route": "krylov", "krylov_dims": list(result.krylov_dims)}})


def _parse_tolerance_overrides(s: Settings, suite: str, names: tuple[str, ...]) -> dict:
    """The config's tolerances, then each --tolerance over them, checked alike: a finite
    number of at least 0 (0 passes only an exact check) for a check of the suite."""
    known = {f"{name}/{check}" for name in names for check in verify.CHECKS[name]}
    given = [(f"config tolerances.{k}", k, v) for k, v in s.config.get("tolerances", {}).items()]
    for item in (getattr(s.args, "tolerance", None) or []):
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--tolerance needs criterion/check=value: {item!r}")
        given.append((f"--tolerance {key}", key, value))
    overrides = {}
    for name, key, value in given:
        overrides[key] = value = _typed(value, float, name, finite=True)
        if value < 0:  # no error is below it: the check would fail whatever it measured
            raise UsageError(f"{name} must be nonnegative, got {value}")
        if key not in known:
            raise UsageError(f"tolerance {key!r} names no check of suite {suite}")
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
    overrides = _parse_tolerance_overrides(s, suite, names)
    s.inputs.update(criteria=list(names), tolerance_overrides=overrides)
    results = verify.run_all(seed=seed, names=names)
    labels = [f"{r.criterion}/{r.check}" for r in results]
    rows = []
    failing: list[str] = []
    for label, r in zip(labels, results):
        tolerance = float(overrides.get(label, r.tolerance))
        passed = bool(float(r.error) <= tolerance)
        rows.append({**_plain(r), "tolerance": tolerance, "error": float(r.error),
                     "passed": passed})
        if not passed and r.criterion not in failing:
            failing.append(r.criterion)
    width = max(len(label) for label in labels)
    lines = [f"{'pass' if row['passed'] else 'FAIL'}  {label:<{width}}  "
             f"error={row['error']:.3e}  tolerance={row['tolerance']:.1e}"
             for label, row in zip(labels, rows)]
    good = sum(row["passed"] for row in rows)
    lines.append(f"{good}/{len(rows)} checks passed (suite {suite}, seed {seed})")
    return _Run({}, "\n".join(lines), {"checks": rows, "passed": not failing},
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
        if s.lookup(flag) in (None, ""):
            raise UsageError(f"{name} needs --{flag}: {_FLAGS[flag]['help']}")
    base = s.lookup("output", command.output) if command.outputs else command.output
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
            gridfile.write(out[key], content, s.get("payload", "csv"))
    _write_manifest(s.lookup("manifest", base + ".manifest.json"), {
        "command": name, "inputs": s.inputs, "outputs": out, **run.extra})
    print(run.summary)
    if run.failure:
        print(run.failure, file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_PASS


def _attach_values(argv: list[str]) -> list[str]:
    """argv with a float flag's dash-led value attached, --theta -1e-3 as --theta=-1e-3:
    argparse takes a separate -1e-3, -inf or -nan for a flag (only -1, -.5 for numbers)."""
    floats = {f"--{name}" for name, spec in _FLAGS.items() if spec.get("type") is float}
    out: list[str] = []
    for word in argv:
        if out and out[-1] in floats and word.startswith("-") and not word.startswith("--"):
            word = out.pop() + "=" + word
        out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return _finish(Settings(args))
    except (UsageError, ConfigurationError, FileFormatError, OSError) as exc:
        # OSError covers unreadable inputs and unwritable outputs alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
