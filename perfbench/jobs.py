"""The benchmark's workloads: seeded inputs, one fixed job recipe each, checks.

A workload object is built from a seed; building it is the set-up that
makes every input the job will see.  `run(i)` performs job i and calls
phasekit only through module attributes (`wigner.wigner_fractional`, not a
name imported here), so the traced run can wrap those entry points.
`check(i, out)` measures the job's outputs against an identity that
`phasekit.verify` pins, with verify's tolerance, and returns one Check per
identity.  Job i's inputs depend only on the seed and i.

Half-width differs from verify's 8 on two workloads.  With seeded
`random_wave` states at half-width 8, the windowed round trip at angles
drawn across the period loses up to 1.5e-4 to box wrap (README, "The box
is the error budget"), so the seed program would fail its own 1e-6 gate
on about half of the angles.  At half-width 16 the worst of 300 draws sits
at rounding level for n=256 and at 4e-11 for the n=128 file chain.  The
cost of a job does not depend on the half-width.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from phasekit import bopp, cli, gridfile, states, weyl, wigner
from phasekit.grid import SQRT_TWO_PI, Grid1D
from phasekit.symplectic import PERIOD, THETA_WIGNER

#: Errors below this share of their tolerance count as this share when the
#: accuracy margin is taken: the margin reads headroom up to 3 decades.
#: Deeper margins are rounding noise whose minimum over a run changes from
#: seed to seed (the file chain's error ranges over 1e-15..4e-11 across
#: draws), which no bound could hold.
MARGIN_CAP_DECADES = 3.0

_ANGLE_EDGE = 0.05
_ANGLES = 1 << 16


@dataclass(frozen=True)
class Check:
    """One identity measured on one job's outputs."""

    name: str
    error: float
    tolerance: float
    #: Seconds spent computing an independent oracle for this check, if any.
    oracle_s: float = 0.0

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tolerance

    @property
    def margin(self) -> float:
        """Decades between the error and the tolerance, capped.  An exact
        check (tolerance 0) has no headroom to report and reads +inf."""
        if self.tolerance == 0.0:
            return math.inf
        if not math.isfinite(self.error):
            return -math.inf
        floor = self.tolerance * 10.0 ** -MARGIN_CAP_DECADES
        return math.log10(self.tolerance / max(self.error, floor))


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _angles(rng: np.random.Generator) -> np.ndarray:
    """Angles drawn continuously across the period, so none repeats."""
    return rng.uniform(_ANGLE_EDGE, PERIOD - _ANGLE_EDGE, _ANGLES)


class PhaseTransforms:
    """Fractional distribution plus a windowed analysis/synthesis round trip.

    The three-shear propagator and its FFT passes are nearly all of the job.
    Every angle is new, so an angle-keyed cache misses while grid-keyed
    reuse hits; every 4th job runs at THETA_WIGNER, where the quadrature
    oracle `wigner_direct` checks the distribution.
    """

    name = "phase-transforms"
    n = 256
    half_width = 16.0
    pool = 16
    trace_cycle = 8

    def __init__(self, seed: int, workdir: str | None = None) -> None:
        rng = _rng(seed, self.name)
        self.grid = Grid1D.centered(self.n, self.half_width)
        self.window = wigner.Window(states.gaussian(self.grid))
        self.pairs = [(states.random_wave(self.grid, rng),
                       states.random_wave(self.grid, rng))
                      for _ in range(self.pool)]
        self.angles = _angles(rng)
        self.angles[::4] = THETA_WIGNER

    def theta(self, i: int) -> float:
        return float(self.angles[i % self.angles.size])

    def run(self, i: int) -> dict:
        psi, phi = self.pairs[i % self.pool]
        theta = self.theta(i)
        dist = wigner.wigner_fractional(psi, phi, theta)
        lifted = wigner.windowed_transform(psi, self.window, theta)
        back = wigner.windowed_adjoint(lifted, self.window, theta)
        return {"dist": dist, "back": back}

    def check(self, i: int, out: dict) -> list[Check]:
        psi, phi = self.pairs[i % self.pool]
        dist = out["dist"]
        # Moyal overlap identity <W, W> = |psi|^2 |phi|^2 / (2 pi).
        want = psi.inner(psi) * np.conj(phi.inner(phi)) / (2.0 * np.pi)
        checks = [
            Check("overlap-identity", abs(dist.inner(dist) - want) / abs(want), 1e-7),
            Check("reconstruction", _rel(out["back"].values, psi.values), 1e-6),
        ]
        if self.theta(i) == THETA_WIGNER:
            start = time.perf_counter()
            direct = wigner.wigner_direct(psi, phi)
            elapsed = time.perf_counter() - start
            error = float(np.max(np.abs(dist.values - direct.values)))
            checks.append(Check("vs-integral", error, 1e-6, elapsed))
        return checks


def _decaying_symbol(grid: Grid1D, rng: np.random.Generator) -> weyl.Symbol2D:
    x, xi = grid.nodes(), grid.dual().nodes()
    ax, axi = rng.uniform(0.5, 1.0, 2)
    depth, freq, phase = rng.uniform(0.0, 0.4), rng.uniform(0.5, 2.0), rng.uniform(0, np.pi)
    profile = np.exp(-ax * x ** 2) * (1.0 + depth * np.cos(freq * x + phase))
    values = profile[:, None] * np.exp(-axi * xi ** 2)[None, :]
    return weyl.Symbol2D(grid, grid.dual(), values.astype(complex))


def _shifted_oscillator(grid: Grid1D, b: float, c: float) -> weyl.Symbol2D:
    """Symbol (x^2 + xi^2)/2 + b x + c xi, with its polynomial tag."""
    coeffs = np.zeros((3, 3))
    coeffs[2, 0] = coeffs[0, 2] = 0.5
    coeffs[1, 0], coeffs[0, 1] = b, c
    return weyl.polynomial_symbol(coeffs, grid)


class OperatorCalculus:
    """Kernel star product, angle star product, dictionary round trip and
    an expectation, on one pool entry of seeded symbols per job.

    The per-column loops of kernel_to_symbol/symbol_to_kernel, kernel
    composition and mccoy_kernel dominate.  The angle is fixed, so
    angle-keyed caches hit.  Every 8th job also checks associativity of
    both products, which reuses the job's products as left factors.
    """

    name = "operator-calculus"
    n = 128
    half_width = 8.0
    theta = 0.4
    pool = 8
    assoc_every = 8
    trace_cycle = 8

    def __init__(self, seed: int, workdir: str | None = None) -> None:
        rng = _rng(seed, self.name)
        self.grid = Grid1D.centered(self.n, self.half_width)
        self.entries = []
        for _ in range(self.pool):
            a, b, c = (_decaying_symbol(self.grid, rng) for _ in range(3))
            shift_x, shift_xi = rng.uniform(-0.3, 0.3, 2)
            operator = _shifted_oscillator(self.grid, shift_x, shift_xi)
            self.entries.append((a, b, c, operator, states.random_wave(self.grid, rng)))

    def run(self, i: int) -> dict:
        a, b, _, operator, psi = self.entries[i % self.pool]
        return {
            "star": weyl.moyal_product(a, b, method="kernel"),
            "star_theta": weyl.theta_product(a, b, self.theta),
            "round_trip": weyl.kernel_to_symbol(weyl.symbol_to_kernel(a)),
            "expectation": weyl.expectation(operator, psi),
        }

    def check(self, i: int, out: dict) -> list[Check]:
        a, b, c, _, _ = self.entries[i % self.pool]
        result = out["expectation"]
        residual = abs(result.value - result.phase_value) / max(1.0, abs(result.value))
        checks = [
            Check("symbol-kernel-round-trip", _rel(out["round_trip"].values, a.values), 1e-8),
            Check("expectation-routes", residual, 1e-8),
        ]
        if i % self.assoc_every == 0:
            lhs = weyl.moyal_product(out["star"], c, method="kernel")
            rhs = weyl.moyal_product(a, weyl.moyal_product(b, c, method="kernel"),
                                     method="kernel")
            checks.append(Check("associativity-kernel", _rel(lhs.values, rhs.values), 1e-8))
            lhs = weyl.theta_product(out["star_theta"], c, self.theta)
            rhs = weyl.theta_product(a, weyl.theta_product(b, c, self.theta), self.theta)
            checks.append(Check("associativity-angle", _rel(lhs.values, rhs.values), 1e-5))
        return checks


class PhaseSpectra:
    """Phase-plane spectrum and paired dynamics of a shifted oscillator.

    Runs on verify's dynamics grid.  Dense assembly and the LAPACK
    eigensolves dominate, and the n^2 x n^2 matrix sets the peak RSS.
    The spectrum of (x^2 + xi^2)/2 + b x + c xi is k + 1/2 - (b^2 + c^2)/2.
    """

    name = "phase-spectra"
    n = 32
    half_width = 6.0
    count = 3
    steps = 16
    t_final = 2.0 * np.pi
    pool = 8
    trace_cycle = 2

    def __init__(self, seed: int, workdir: str | None = None) -> None:
        rng = _rng(seed, self.name)
        self.grid = Grid1D.centered(self.n, self.half_width)
        self.window = wigner.Window(states.gaussian(self.grid))
        self.entries = []
        for _ in range(self.pool):
            b, c = rng.uniform(-0.3, 0.3, 2)
            alpha = complex(*rng.uniform(-0.5, 0.5, 2))
            self.entries.append((b, c, _shifted_oscillator(self.grid, b, c),
                                 states.coherent(self.grid, alpha)))

    def run(self, i: int) -> dict:
        _, _, symbol, psi0 = self.entries[i % self.pool]
        return {
            "spectrum": bopp.bopp_spectrum(symbol, self.count, self.window,
                                           representation="bopp_conjugated"),
            "evolution": bopp.evolve_pair(symbol, psi0, self.window,
                                          self.t_final, self.steps),
        }

    def check(self, i: int, out: dict) -> list[Check]:
        b, c, _, _ = self.entries[i % self.pool]
        report, result = out["spectrum"], out["evolution"]
        exact = np.arange(self.count) + 0.5 - 0.5 * (b * b + c * c)
        eigen_error = float(np.max(np.abs(np.asarray(report.eigenvalues) - exact)))
        # A nan (unpaired or skipped cluster) propagates and fails the check.
        push = float(np.max(report.pushforward_residuals))
        drift = max(result.state_norm_drift, result.phase_norm_drift)
        return [
            Check("oscillator-eigenvalues", eigen_error, 1e-3),
            Check("eigenvector-pushforward", push, 1e-4),
            Check("evolution-divergence", float(result.divergence), 1e-4),
            Check("norm-drift-per-unit-time", float(drift), 1e-8),
        ]


class CliFiles:
    """Three chained CLI commands through grid files, in-process.

    fracwigner writes CSV, propagate reads CSV and writes binary,
    reconstruct reads binary and writes CSV.  CSV reading and writing is
    most of the job; the binary leg guards the fast path.  The chain
    U(theta - theta')^-1 U(-theta') U(theta) is the identity, so the
    reconstruction equals (2 pi)^-1/2 psi.
    """

    name = "cli-files"
    n = 128
    half_width = 16.0
    trace_cycle = 4

    def __init__(self, seed: int, workdir: str | None = None) -> None:
        if workdir is None:
            raise ValueError("cli-files needs a work directory for its files")
        rng = _rng(seed, self.name)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        grid = Grid1D.centered(self.n, self.half_width)
        self.psi = states.random_wave(grid, rng)
        self.state_path = os.path.join(workdir, "state.csv")
        gridfile.write(self.state_path, self.psi, "csv")
        self.thetas = _angles(rng)
        self.shifts = _angles(rng)
        self.paths = {name: os.path.join(workdir, name)
                      for name in ("dist.csv", "moved.bin", "back.csv")}

    def _commands(self, i: int) -> list[list[str]]:
        theta = float(self.thetas[i % self.thetas.size])
        shift = float(self.shifts[i % self.shifts.size])
        grid = ["--n", str(self.n), "--half-width", repr(self.half_width)]
        return [
            ["fracwigner", "--state", self.state_path, "--phi", "gaussian",
             f"--theta={theta!r}", *grid, "--output", self.paths["dist.csv"]],
            ["propagate", "--input", self.paths["dist.csv"], f"--theta={-shift!r}",
             "--payload", "binary", "--output", self.paths["moved.bin"]],
            ["reconstruct", "--input", self.paths["moved.bin"],
             f"--theta={theta - shift!r}", "--window", "gaussian",
             "--output", self.paths["back.csv"]],
        ]

    def run(self, i: int) -> dict:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._commands(i):
                codes.append(cli.main(argv))
        return {"codes": codes}

    def check(self, i: int, out: dict) -> list[Check]:
        checks = [Check("exit-codes", float(sum(c != 0 for c in out["codes"])), 0.0)]
        unreadable = 0
        for argv in self._commands(i):
            output = argv[argv.index("--output") + 1]
            try:
                with open(output + ".manifest.json", encoding="utf-8") as fh:
                    unreadable += json.load(fh).get("command") != argv[0]
            except (OSError, ValueError):
                unreadable += 1
        checks.append(Check("manifests", float(unreadable), 0.0))
        back = gridfile.read(self.paths["back.csv"])
        checks.append(Check("chain-identity",
                            _rel(back.values, self.psi.values / SQRT_TWO_PI), 1e-6))
        return checks

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


_CLASSES = (PhaseTransforms, OperatorCalculus, PhaseSpectra, CliFiles)
WORKLOADS = tuple(cls.name for cls in _CLASSES)


def make(name: str, seed: int, workdir: str | None = None):
    """Build workload `name` for `seed`: this is the set-up."""
    for cls in _CLASSES:
        if cls.name == name:
            return cls(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
