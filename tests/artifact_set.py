"""A fixed set of CLI runs whose artifacts two commits can be compared on.

Usage: python tests/artifact_set.py WORKDIR
       python tests/artifact_set.py --compare DIR_A DIR_B

Makes the input files under WORKDIR/in, runs every command below in-process
with WORKDIR as the working directory, and prints, per command, its exit
code, stdout and stderr, then one sha256 per file under WORKDIR.  Run it
against two checkouts (PYTHONPATH=<checkout>/src) in two fresh directories
and diff the printouts: a refactor that keeps behaviour leaves no line
changed.  Warnings are printed as "Category: message", without the source
line, so that moving code does not show as a change.

With --compare, it reads two such directories and prints, for each file
whose sha256 differs, the largest difference of its values relative to the
largest value in DIR_A, if both copies are grid files; else, for text such
as a JSON manifest or a CSV table that differs only in its numbers, the
largest relative difference of a number, |a - b| / max(|a|, |b|), with
that pair; else that it differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import warnings

import numpy as np

from phasekit import cli, gridfile, states
from phasekit.grid import Grid1D, PhaseFunction2D
from phasekit.weyl import OperatorKernel, Symbol2D

COMMANDS = """
flow --theta 0.4 --output flow.csv
flow --output flow0.csv
wigner --state hermite:1 --n 32 --half-width 6 --output wigner.csv
wigner --gaussian --n 32 --half-width 6 --payload binary --output wigner.bin
wigner --state in/state.csv --phi chirp:0.8 --output wfile.csv
fracwigner --state coherent:0.6+0.4j --phi gaussian --theta 0.3 --n 32 --half-width 6 --payload binary --output frac.bin
fracwigner --config in/frac.json --output fraccfg.csv
fracwigner --state in/state.bin --theta 1.1 --output fracfile.bin --payload binary
propagate --input frac.bin --theta -0.2 --output prop.csv
propagate --input in/phase.csv --theta 0.9 --payload binary --output prop2.bin
reconstruct --input prop.csv --theta 0.1 --window gaussian --output recon.bin --payload binary
reconstruct --input in/phase.bin --window hermite:1 --output recon2.csv
weyl-symbol --kernel in/kernel.bin --output ws.csv
star --a ws.csv --b ws.csv --theta 0.4 --output starws.csv
weyl-symbol --kernel in/kernel.csv --theta 0.3 --payload binary --output ws2.bin
star --a x --b xi --n 32 --half-width 6 --output star.csv
star --a in/sym1.csv --b in/sym2.bin --theta 0.4 --method kernel --payload binary --output star2.bin
star --a in/sym1.csv --b in/sym2.bin --output star3.csv
expect --op oscillator --state hermite:2 --n 32 --half-width 6 --output e.json
expect --op in/kernel.bin --state in/state.csv --theta 0.5 --output e2.json
expect --op xi --state coherent:0.3+0.2j --n 32 --half-width 6 --output e3.json
bopp-spectrum --symbol oscillator --count 3 --n 16 --half-width 5 --output spec
bopp-spectrum --symbol oscillator --count 2 --n 16 --half-width 5 --representation bopp_direct --output specd
bopp-spectrum --symbol x --count 1 --n 16 --half-width 5 --representation extended --gap 0.01 --output specx
evolve --t 1.0 --steps 4 --n 16 --half-width 5 --output ev
evolve --t 0.5 --steps 3 --n 16 --half-width 5 --representation bopp_direct --state hermite:1 --payload binary --output evd
verify --suite flow
verify --suite flow --seed 3 --tolerance flow-algebra/symplectic-form=1e-30 --manifest vfail.json
flow --theta nan --output bad.csv
wigner --gaussian --n 32 --half-width 6 --output .
star --a x --b oscillator --n 32 --half-width 6 --output starxo.csv
reconstruct --input in/phase.bin --theta -1.7 --output recon3.csv
fracwigner --state hermite:2 --theta 5.0 --n 32 --half-width 6 --output frac5.csv
weyl-symbol --kernel in/kernel.bin --theta -0.3 --output ws3.csv
weyl-symbol --kernel in/kernel30.csv --output ws30.csv
star --a in/sym1.csv --b in/sym2.bin --theta 3.1 --output star4.csv
expect --op in/kernel.bin --state hermite:1 --theta -2.0 --output e4.json
bopp-spectrum --config in/spec.json --output speccfg
evolve --t 0.5 --steps 2 --n 16 --half-width 5 --representation extended --output evx
evolve --t 0.5 --n 80 --half-width 8 --output evcap
wigner --gaussian --n 32 --output wn32.csv
evolve --t 0.1 --steps 1 --n 32 --output evn32
wigner --config in/halfwidth.json --output whw.csv
flow --config in/typo.json --output typo.csv
propagate --input in/offcentre.bin --output offc.csv
star --a in/nondual.csv --b x --output nondual.csv
wigner --gaussian --n 32 --x-min -4 --output xmin.csv
wigner --config in/xmin.json --output xmincfg.csv
verify --suite flow --tolerance flow-algebra/nonexistent=1e-30 --manifest vnone.json
bopp-spectrum --symbol ws.csv --count 2 --representation bopp_direct --output specws
evolve --symbol ws.csv --t 0.5 --steps 2 --representation bopp_direct --output evws
"""


def make_inputs(root: str) -> None:
    """The input files: all on the n=32, half-width-6 grid, but for a kernel
    on n=30 (n/2 odd) and two whose headers are edited to an off-centre grid
    and a non-dual pair."""
    os.makedirs(os.path.join(root, "in"))
    grid = Grid1D.centered(32, 6.0)
    x = grid.nodes()[:, None]
    xi = grid.dual().nodes()[None, :]
    g = states.gaussian(grid).values
    h1 = states.hermite(grid, 1).values
    phase = PhaseFunction2D(grid, grid.dual(), np.exp(-x**2 - xi**2) * (1 + 0.3j * x))
    kernel = OperatorKernel(grid, np.outer(g, g.conj()) + 0.5 * np.outer(h1, h1.conj()))
    files = {
        "state.csv": states.random_wave(grid, np.random.default_rng(7)),
        "state.bin": states.hermite(grid, 3),
        "phase.csv": phase,
        "phase.bin": phase,
        "kernel.bin": kernel,
        "kernel.csv": kernel,
        "sym1.csv": Symbol2D(grid, grid.dual(), np.exp(-x**2 - xi**2)),
        "sym2.bin": Symbol2D(grid, grid.dual(), np.exp(-(x - 0.5)**2 / 2 - xi**2)),
        "kernel30.csv": OperatorKernel(Grid1D.centered(30, 6.0), np.outer(
            *(states.coherent(Grid1D.centered(30, 6.0), z).values for z in (0.5j, 0.2)))),
    }
    for name, obj in files.items():
        gridfile.write(os.path.join(root, "in", name), obj,
                       "binary" if name.endswith(".bin") else "csv")
    for source, name, key, entry in (
            ("phase.bin", "offcentre.bin", "grid_x", {"n": 32, "x_min": 0.0, "dx": 0.375}),
            ("sym1.csv", "nondual.csv", "grid_xi", {"n": 32, "x_min": -6.0, "dx": 0.375})):
        with open(os.path.join(root, "in", source), "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
        header = json.dumps({**json.loads(header), key: entry}).encode("utf-8")
        with open(os.path.join(root, "in", name), "wb") as fh:
            fh.write(header + b"\n" + body)
    configs = {
        "frac.json": {"command": "fracwigner", "n": 32, "half_width": 6.0,
                      "theta": 0.7, "state": "hermite:2"},
        "spec.json": {"command": "bopp-spectrum", "symbol": "oscillator", "count": 2,
                      "grid": {"n": 16, "half_width": 5.0}, "gap": 0.001},
        "halfwidth.json": {"command": "wigner", "gaussian": True,
                           "grid": {"n": 32, "half_width": 4}},
        "typo.json": {"thetaa": 0.9},
        "xmin.json": {"gaussian": True, "n": 32, "x_min": -4.0},
    }
    for name, record in configs.items():
        with open(os.path.join(root, "in", name), "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _show(message, category, filename, lineno, file=None, line=None):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digests(root: str) -> dict[str, str]:
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


#: A decimal number as JSON and Python's float repr write it.
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _text_difference(path_a: str, path_b: str) -> str:
    """How two text files differ: the largest relative difference of their
    numbers, read in order, when the text around the numbers is the same."""
    words, numbers = [], []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                return "differs (not text)"
        words.append(_NUMBER.split(text))
        numbers.append(np.array([float(m) for m in _NUMBER.findall(text)]))
    if words[0] != words[1]:
        return "differs (not only in its numbers)"
    a, b = numbers
    scale = np.maximum(np.abs(a), np.abs(b))
    errors = np.abs(a - b) / np.where(scale > 0, scale, 1.0)
    worst = int(np.argmax(errors))
    return (f"max relative difference {errors[worst]:.3e} over {a.size} numbers, "
            f"at {a[worst]:.6e} against {b[worst]:.6e}")


def compare(dir_a: str, dir_b: str) -> None:
    """Print how each file that differs between two artifact directories differs."""
    digests_a, digests_b = _digests(dir_a), _digests(dir_b)
    for path in sorted(digests_a.keys() | digests_b.keys()):
        if path not in digests_b or path not in digests_a:
            print(f"{path} only in {dir_a if path in digests_a else dir_b}")
            continue
        if digests_a[path] == digests_b[path]:
            continue
        try:
            a, b = (gridfile.read(os.path.join(root, path)).values for root in (dir_a, dir_b))
        except (gridfile.FileFormatError, ValueError):
            print(f"{path} {_text_difference(*(os.path.join(root, path) for root in (dir_a, dir_b)))}")
            continue
        if a.shape != b.shape:
            print(f"{path} differs in shape: {a.shape} and {b.shape}")
            continue
        scale = float(np.abs(a).max(initial=0.0))
        error = float(np.abs(a - b).max(initial=0.0)) / (scale or 1.0)
        print(f"{path} max relative difference {error:.3e}")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(argv[1], argv[2])
        return 0
    if len(argv) != 1:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    os.makedirs(root, exist_ok=True)
    if os.listdir(root):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    make_inputs(root)
    os.chdir(root)
    for line in COMMANDS.strip().splitlines():
        code, out, err = run(shlex.split(line))
        print(f"$ phasekit {line}\nexit {code}")
        for name, text in (("stdout", out), ("stderr", err)):
            for row in text.splitlines():
                print(f"  {name}| {row}")
    for folder, _, names in sorted(os.walk(".")):
        for name in sorted(names):
            path = os.path.relpath(os.path.join(folder, name))
            with open(path, "rb") as fh:
                print(f"{path} {hashlib.sha256(fh.read()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
