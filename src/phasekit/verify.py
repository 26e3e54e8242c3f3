"""Acceptance checks for the whole package.

Each criterion exercises a documented identity on a fixed desk-scale
configuration and reports the worst error it observed next to the
tolerance it must beat.  Runs are deterministic: random data comes from a
generator seeded per criterion, so a failing number reproduces exactly.
The CLI's verify command and the acceptance test module are both thin
wrappers around run_all.

Grid choices are deliberate rather than uniform.  The finite-difference
probe of the propagator's generator and the realness check both need the
box at half-width 10, because the shear chirps inside the propagator pick
up seam mass from sheared intermediates, and at half-width 8 that residue
sits near 4e-5.  The direct Bopp route needs half-width 10 for its
momentum-side spectral lattice to cover a Gaussian symbol's bandwidth.
The star-product quadrature cross-check is pinned at n=32 where the 4D
integral is affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bopp import PhaseOperator, bopp_intertwining_residual, bopp_spectrum, evolve_pair
from .grid import ConfigurationError, Grid1D, SampledFunction1D, conjugate
from .metaplectic import generator_apply, propagate
from .symplectic import PERIOD, SYMPLECTIC_J, THETA_WIGNER, flow_matrix
from .weyl import (
    OperatorKernel,
    Symbol2D,
    fractional_symbol,
    kernel_to_symbol,
    moyal_product,
    symbol_oscillator,
    symbol_to_kernel,
    symbol_x,
    symbol_xi,
    theta_product,
    theta_symbol,
)
from .wigner import (
    Window,
    position_marginal,
    wigner_direct,
    wigner_fractional,
    wigner_metaplectic,
    windowed_adjoint,
    windowed_projection,
    windowed_transform,
)
from . import states

__all__ = ["CheckResult", "CRITERIA", "CHECKS", "SUITE_ALIASES", "resolve_suite",
           "run_criterion", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sub-check: the worst error seen against its bound."""

    criterion: str
    check: str
    tolerance: float
    error: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _maxabs(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)))


def _pflip(values: np.ndarray, axis: int) -> np.ndarray:
    """Reflect a centered-grid axis through the origin (node-exact)."""
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def _hermite_mix(grid: Grid1D) -> SampledFunction1D:
    coeffs = (1.0, 0.6j, -0.3, 0.2j)
    v = sum(c * states.hermite(grid, m).values for m, c in enumerate(coeffs))
    out = SampledFunction1D(grid, v)
    return SampledFunction1D(grid, out.values / out.norm())


# --------------------------------------------------------------------------
# criterion 1: flow algebra at the matrix level


def _flow_algebra(rng: np.random.Generator) -> list[CheckResult]:
    name = "flow-algebra"
    out = []

    # At the distinguished angle the trig pair is (cos, sin) = (3/4, sqrt7/4),
    # so the scaled sine is exactly 1/4 and every entry is a small rational.
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    out.append(CheckResult(name, "distinguished-angle-matrix", 1e-14,
                           _maxabs(flow_matrix(THETA_WIGNER), expected)))

    sweep = np.linspace(-1.5 * PERIOD, 1.5 * PERIOD, 31)
    err = max(
        _maxabs(flow_matrix(t).T @ SYMPLECTIC_J @ flow_matrix(t), SYMPLECTIC_J)
        for t in sweep
    )
    out.append(CheckResult(name, "symplectic-form", 1e-12, err,
                           "31 angles across three periods"))

    pairs = rng.uniform(-1.5 * PERIOD, 1.5 * PERIOD, size=(8, 2))
    err = max(_maxabs(flow_matrix(a) @ flow_matrix(b), flow_matrix(a + b))
              for a, b in pairs)
    out.append(CheckResult(name, "group-law", 1e-12, err, "8 random angle pairs"))

    out.append(CheckResult(name, "period", 1e-12,
                           _maxabs(flow_matrix(PERIOD), np.eye(4))))
    return out


# --------------------------------------------------------------------------
# criterion 2: the phase-plane propagator


def _propagator(rng: np.random.Generator) -> list[CheckResult]:
    name = "propagator"
    grid = Grid1D.centered(128, 10.0)
    F = wigner_metaplectic(states.gaussian(grid), states.hermite(grid, 1))
    base = F.norm()
    detail = "128x128 grid, half-width 10"
    out = []

    sweep = [0.1, 0.35, THETA_WIGNER, 1.0, PERIOD / 2.0, 2.2, -0.8]
    err = max(abs(propagate(F, t).norm() - base) / base for t in sweep)
    out.append(CheckResult(name, "unitarity", 1e-9, err, detail))

    pairs = [(0.3, -0.7), (1.1, 2.0), (THETA_WIGNER, THETA_WIGNER), (-0.45, 0.9)]
    pairs += [tuple(p) for p in rng.uniform(-1.2, 1.2, size=(2, 2))]
    err = max(
        np.linalg.norm(propagate(propagate(F, b), a).values
                       - propagate(F, a + b).values) / base
        for a, b in pairs
    )
    out.append(CheckResult(name, "group-law", 1e-6, err, detail))

    err = np.linalg.norm(propagate(F, PERIOD).values - F.values) / base
    out.append(CheckResult(name, "period", 1e-6, err, detail))

    eps = 1e-4
    fd = (propagate(F, eps).values - propagate(F, -eps).values) / (2.0 * eps)
    err = float(np.linalg.norm(fd + 1j * generator_apply(F).values)
                / np.linalg.norm(fd))
    out.append(CheckResult(name, "generator-difference", 1e-5, err,
                           f"central difference, step {eps:g}"))
    return out


# --------------------------------------------------------------------------
# criterion 3: two routes to the same distribution


_INTEGRAL_METHODS = ("trig", "upsample")


def _wigner_equivalence(rng: np.random.Generator) -> list[CheckResult]:
    name = "wigner-equivalence"
    grid = Grid1D.centered(256, 8.0)
    g0 = states.gaussian(grid)
    pairs = [
        (g0, g0),
        (g0, states.hermite(grid, 1)),
        (states.hermite(grid, 1), states.hermite(grid, 2)),
        (states.hermite(grid, 2), states.hermite(grid, 2)),
        (states.hermite(grid, 3), g0),
    ]
    out = []
    for method in _INTEGRAL_METHODS:
        err = max(
            _maxabs(wigner_metaplectic(a, b).values,
                    wigner_direct(a, b, method=method).values)
            for a, b in pairs
        )
        out.append(CheckResult(name, f"vs-integral-{method}", 1e-6, err,
                               "Gaussian/Hermite cross pairs, n=256"))
    return out


# --------------------------------------------------------------------------
# criterion 4: the overlap identity at four angles


def _moyal_identity(rng: np.random.Generator) -> list[CheckResult]:
    name = "moyal-identity"
    grid = Grid1D.centered(256, 8.0)
    angles = [0.0, 0.1, THETA_WIGNER, 2.0 * THETA_WIGNER]
    worst = 0.0
    for _ in range(20):
        p1, q1 = states.random_wave(grid, rng), states.random_wave(grid, rng)
        p2, q2 = states.random_wave(grid, rng), states.random_wave(grid, rng)
        rhs = p1.inner(p2) * np.conj(q1.inner(q2)) / (2.0 * np.pi)
        for theta in angles:
            lhs = wigner_fractional(p1, q1, theta).inner(
                wigner_fractional(p2, q2, theta))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return [CheckResult(name, "overlap-identity", 1e-7, worst,
                        "20 random quartets x 4 angles")]


# --------------------------------------------------------------------------
# criterion 5: windowed transform calculus


def _windowed_calculus(rng: np.random.Generator) -> list[CheckResult]:
    name = "windowed-calculus"
    grid = Grid1D.centered(256, 8.0)
    window = Window(states.gaussian(grid))
    psi = states.random_wave(grid, rng)
    F = wigner_metaplectic(states.random_wave(grid, rng),
                           states.random_wave(grid, rng))
    recon = idem = adj = 0.0
    for theta in (0.0, THETA_WIGNER):
        lifted = windowed_transform(psi, window, theta)
        back = windowed_adjoint(lifted, window, theta)
        recon = max(recon, _rel(back.values, psi.values))

        once = windowed_projection(F, window, theta)
        twice = windowed_projection(once, window, theta)
        idem = max(idem, _rel(twice.values, once.values))

        pairing = abs(F.inner(lifted)
                      - windowed_adjoint(F, window, theta).inner(psi))
        adj = max(adj, pairing / (F.norm() * psi.norm()))
    detail = "Gaussian window, angles 0 and distinguished"
    return [
        CheckResult(name, "reconstruction", 1e-6, recon, detail),
        CheckResult(name, "projection-idempotency", 1e-6, idem, detail),
        CheckResult(name, "adjointness", 1e-8, adj, detail),
    ]


# --------------------------------------------------------------------------
# criterion 6: symbol/kernel correspondence


def _weyl_calculus(rng: np.random.Generator) -> list[CheckResult]:
    name = "weyl-calculus"
    grid = Grid1D.centered(256, 10.0)
    g0 = states.gaussian(grid)
    h1, h2 = states.hermite(grid, 1), states.hermite(grid, 2)
    kernel = OperatorKernel(
        grid,
        np.outer(g0.values, np.conj(h1.values))
        + 0.4 * np.outer(h2.values, np.conj(g0.values)),
    )
    out = []

    round_trip = symbol_to_kernel(kernel_to_symbol(kernel))
    out.append(CheckResult(name, "symbol-kernel-round-trip", 1e-8,
                           _rel(round_trip.values, kernel.values)))

    # Midpoint formula against a closed form: for a(x, xi) = f(x) e^{-xi^2}
    # the kernel is f((x+y)/2) e^{-(x-y)^2/4} / (2 sqrt(pi)).
    x = grid.nodes()
    xi = grid.dual().nodes()
    X, Y = np.meshgrid(x, x, indexing="ij")
    err = 0.0
    for f in (lambda m: np.exp(-m ** 2),
              lambda m: np.exp(-m ** 2) * np.cos(2.0 * m)):
        symbol = Symbol2D(grid, grid.dual(),
                          (f(x)[:, None] * np.exp(-xi ** 2)[None, :]).astype(complex))
        oracle = f((X + Y) / 2.0) * np.exp(-((X - Y) ** 2) / 4.0) \
            / (2.0 * np.sqrt(np.pi))
        err = max(err, _maxabs(symbol_to_kernel(symbol).values, oracle))
    out.append(CheckResult(name, "midpoint-kernel-formula", 1e-7, err,
                           "two separable symbols, closed-form kernels"))

    err = max(
        _rel(fractional_symbol(kernel, theta).values,
             theta_symbol(kernel_to_symbol(kernel), theta).values)
        for theta in (0.0, 0.3, 2.0 * THETA_WIGNER)
    )
    out.append(CheckResult(name, "angle-symbol-routes", 1e-6, err,
                           "direct route vs transported route, 3 angles"))

    rank_one = OperatorKernel(grid, np.outer(h1.values, np.conj(g0.values)))
    err = _maxabs(kernel_to_symbol(rank_one).values,
                  2.0 * np.pi * wigner_metaplectic(h1, g0).values)
    out.append(CheckResult(name, "rank-one-symbol", 1e-6, err,
                           "symbol of a rank-one kernel vs 2*pi*Wigner"))
    return out


# --------------------------------------------------------------------------
# criterion 7: star products


def _star_products(rng: np.random.Generator) -> list[CheckResult]:
    name = "star-products"
    out = []

    grid = Grid1D.centered(256, 8.0)
    sx, sxi = symbol_x(grid), symbol_xi(grid)
    comm = moyal_product(sx, sxi).values - moyal_product(sxi, sx).values
    out.append(CheckResult(name, "coordinate-commutator", 1e-6,
                           float(np.max(np.abs(comm - 1j))),
                           "polynomial branch"))

    g32 = Grid1D.centered(32, 6.0)
    x32, e32 = g32.nodes(), g32.dual().nodes()

    def separable(ax: float, ae: float) -> Symbol2D:
        v = np.exp(-ax * x32 ** 2)[:, None] * np.exp(-ae * e32 ** 2)[None, :]
        return Symbol2D(g32, g32.dual(), v.astype(complex))

    a32, b32 = separable(0.6, 0.6), separable(0.4, 0.5)
    err = _rel(moyal_product(a32, b32, method="kernel").values,
               moyal_product(a32, b32, method="quadrature").values)
    out.append(CheckResult(name, "kernel-vs-quadrature", 1e-4, err,
                           "n=32, brute-force 4D integral"))

    g128 = Grid1D.centered(128, 8.0)
    x1, e1 = g128.nodes(), g128.dual().nodes()

    def decaying(ax: float, ae: float, mod=None) -> Symbol2D:
        v = np.exp(-ax * x1 ** 2)[:, None] * np.exp(-ae * e1 ** 2)[None, :]
        if mod is not None:
            v = v * mod(x1)[:, None]
        return Symbol2D(g128, g128.dual(), v.astype(complex))

    A = decaying(1.0, 1.0)
    B = decaying(0.5, 0.7, lambda t: 1.0 + 0.4 * np.cos(t))
    C = decaying(0.8, 0.6, lambda t: 1.0 + 0.3 * np.sin(2.0 * t))
    lhs = moyal_product(moyal_product(A, B, method="kernel"), C, method="kernel")
    rhs = moyal_product(A, moyal_product(B, C, method="kernel"), method="kernel")
    out.append(CheckResult(name, "associativity-kernel", 1e-8,
                           _rel(lhs.values, rhs.values), "n=128"))

    theta = 0.4
    lhs_t = theta_product(theta_product(A, B, theta), C, theta)
    rhs_t = theta_product(A, theta_product(B, C, theta), theta)
    out.append(CheckResult(name, "associativity-angle", 1e-5,
                           _rel(lhs_t.values, rhs_t.values), "angle 0.4, n=128"))

    gf = Grid1D.centered(256, 10.0)
    gg = states.gaussian(gf)
    f1, f2, f3 = states.hermite(gf, 1), states.hermite(gf, 2), states.hermite(gf, 3)
    k1 = OperatorKernel(gf, np.outer(gg.values, np.conj(f1.values))
                        + 0.3 * np.outer(f2.values, np.conj(gg.values)))
    k2 = OperatorKernel(gf, np.outer(f1.values, np.conj(f1.values))
                        + 0.5 * np.outer(gg.values, np.conj(f3.values)))
    lhs_c = theta_product(fractional_symbol(k1, theta),
                          fractional_symbol(k2, theta), theta, method="kernel")
    rhs_c = fractional_symbol(k1.compose(k2), theta)
    out.append(CheckResult(name, "composition-transport", 1e-5,
                           _rel(lhs_c.values, rhs_c.values),
                           "angle 0.4, product symbol vs composed kernel"))
    return out


# --------------------------------------------------------------------------
# criterion 8: phase-space operator routes


def _bopp_symbols(rng: np.random.Generator) -> list[CheckResult]:
    name = "bopp-symbols"
    grid = Grid1D.centered(64, 10.0)
    window = Window(states.gaussian(grid))
    lifted = windowed_transform(states.coherent(grid, 0.6 + 0.4j), window,
                                THETA_WIGNER)
    err = 0.0
    for symbol in (symbol_x(grid), symbol_xi(grid), symbol_oscillator(grid)):
        conj_route = PhaseOperator(symbol, "bopp_conjugated").apply(lifted)
        direct_route = PhaseOperator(symbol, "bopp_direct").apply(lifted)
        err = max(err, _rel(direct_route.values, conj_route.values))
    out = [CheckResult(name, "conjugated-vs-direct", 1e-6, err,
                       "x, momentum, oscillator symbols on a lifted coherent state")]

    err = max(
        bopp_intertwining_residual(symbol, states.hermite(grid, 1), window)
        for symbol in (symbol_oscillator(grid), symbol_x(grid))
    )
    out.append(CheckResult(name, "intertwining", 1e-5, err,
                           "oscillator and linear symbols, 64x64, half-width 10"))
    return out


# --------------------------------------------------------------------------
# criterion 9: spectral agreement on the phase plane


def _bopp_spectrum(rng: np.random.Generator) -> list[CheckResult]:
    name = "bopp-spectrum"
    grid = Grid1D.centered(64, 8.0)
    window = Window(states.gaussian(grid))
    report = bopp_spectrum(symbol_oscillator(grid), 5, window,
                           representation="bopp_conjugated")
    lam = np.asarray(report.eigenvalues)
    err = float(np.max(np.abs(lam - (np.arange(5) + 0.5))))
    detail = f"64x64, multiplicities {report.multiplicities.tolist()}"
    out = [CheckResult(name, "oscillator-eigenvalues", 1e-3, err, detail)]
    push = float(np.max(report.pushforward_residuals))
    out.append(CheckResult(name, "eigenvector-pushforward", 1e-4, push))
    return out


# --------------------------------------------------------------------------
# criterion 10: dynamics through the intertwiner


def _bopp_dynamics(rng: np.random.Generator) -> list[CheckResult]:
    name = "bopp-dynamics"
    grid = Grid1D.centered(32, 6.0)
    window = Window(states.gaussian(grid))
    result = evolve_pair(symbol_oscillator(grid), states.coherent(grid, 0.8),
                         window, 2.0 * np.pi, 16)
    detail = "oscillator, coherent(0.8), t to 2*pi in 16 checkpoints, 32x32"
    drift = max(result.state_norm_drift, result.phase_norm_drift)
    return [
        CheckResult(name, "evolution-divergence", 1e-4, result.divergence, detail),
        CheckResult(name, "norm-drift-per-unit-time", 1e-8, drift, detail),
    ]


# --------------------------------------------------------------------------
# criterion 11: symmetry identities and marginals


def _symmetries(rng: np.random.Generator) -> list[CheckResult]:
    name = "symmetries"
    out = []

    grid = Grid1D.centered(256, 8.0)
    psi = states.random_wave(grid, rng)
    phi = states.random_wave(grid, rng)
    err = 0.0
    for theta in (0.2, THETA_WIGNER):
        W = wigner_fractional(psi, phi, theta)
        Wc = wigner_fractional(conjugate(psi), conjugate(phi), theta)
        err = max(err, _maxabs(np.conj(W.values), _pflip(Wc.values, 1)))
    out.append(CheckResult(name, "conjugation-parity", 1e-6, err,
                           "conj W(psi,phi) = W(conj psi, conj phi) at flipped p"))

    wide = Grid1D.centered(256, 10.0)
    mix = _hermite_mix(wide)
    err = float(np.max(np.abs(wigner_fractional(mix, mix, THETA_WIGNER).values.imag)))
    out.append(CheckResult(name, "distinguished-angle-realness", 1e-9, err,
                           "Hermite superposition, half-width 10"))

    chirp = states.chirp(wide)
    observed = float(np.max(np.abs(wigner_fractional(chirp, chirp, 0.0).values.imag)))
    out.append(CheckResult(name, "zero-angle-imaginary-floor", 0.0,
                           max(0.0, 0.01 - observed),
                           f"chirp state, max imaginary part {observed:.3f} "
                           "(must be at least 0.01)"))

    g0 = states.gaussian(grid)
    h1, h2 = states.hermite(grid, 1), states.hermite(grid, 2)
    kernel = OperatorKernel(
        grid,
        np.outer(g0.values, np.conj(h1.values))
        + 0.4 * np.outer(h2.values, np.conj(g0.values)),
    )
    err = 0.0
    for theta in (0.2, THETA_WIGNER):
        adj = theta_symbol(kernel_to_symbol(kernel.adjoint()), theta)
        base = theta_symbol(kernel_to_symbol(kernel.transpose()), theta)
        err = max(err, _rel(adj.values, np.conj(_pflip(base.values, 1))))
    out.append(CheckResult(name, "adjoint-symbol-parity", 1e-6, err,
                           "adjoint symbol = conj of transposed symbol at flipped p"))

    err = max(
        _maxabs(position_marginal(wigner_fractional(s, s, THETA_WIGNER)).values,
                np.abs(s.values) ** 2)
        for s in (g0, h2, _hermite_mix(grid))
    )
    out.append(CheckResult(name, "position-marginal", 1e-7, err,
                           "marginal over p equals |psi|^2"))
    return out


# --------------------------------------------------------------------------
# registry and entry points


_REGISTRY: dict[str, Callable[[np.random.Generator], list[CheckResult]]] = {
    "flow-algebra": _flow_algebra,
    "propagator": _propagator,
    "wigner-equivalence": _wigner_equivalence,
    "moyal-identity": _moyal_identity,
    "windowed-calculus": _windowed_calculus,
    "weyl-calculus": _weyl_calculus,
    "star-products": _star_products,
    "bopp-symbols": _bopp_symbols,
    "bopp-spectrum": _bopp_spectrum,
    "bopp-dynamics": _bopp_dynamics,
    "symmetries": _symmetries,
}

CRITERIA = tuple(_REGISTRY)

#: Each criterion's check names in the order it reports them, known before
#: any check runs; a test holds it equal to what run_all returns.
CHECKS: dict[str, tuple[str, ...]] = {
    "flow-algebra": ("distinguished-angle-matrix", "symplectic-form", "group-law",
                     "period"),
    "propagator": ("unitarity", "group-law", "period", "generator-difference"),
    "wigner-equivalence": tuple(f"vs-integral-{m}" for m in _INTEGRAL_METHODS),
    "moyal-identity": ("overlap-identity",),
    "windowed-calculus": ("reconstruction", "projection-idempotency", "adjointness"),
    "weyl-calculus": ("symbol-kernel-round-trip", "midpoint-kernel-formula",
                      "angle-symbol-routes", "rank-one-symbol"),
    "star-products": ("coordinate-commutator", "kernel-vs-quadrature",
                      "associativity-kernel", "associativity-angle",
                      "composition-transport"),
    "bopp-symbols": ("conjugated-vs-direct", "intertwining"),
    "bopp-spectrum": ("oscillator-eigenvalues", "eigenvector-pushforward"),
    "bopp-dynamics": ("evolution-divergence", "norm-drift-per-unit-time"),
    "symmetries": ("conjugation-parity", "distinguished-angle-realness",
                   "zero-angle-imaginary-floor", "adjoint-symbol-parity",
                   "position-marginal"),
}

#: Short names accepted by the CLI's --suite flag.
SUITE_ALIASES = {
    "flow": "flow-algebra",
    "propagator": "propagator",
    "wigner": "wigner-equivalence",
    "moyal": "moyal-identity",
    "windowed": "windowed-calculus",
    "weyl": "weyl-calculus",
    "star": "star-products",
    "bopp": "bopp-symbols",
    "spectrum": "bopp-spectrum",
    "dynamics": "bopp-dynamics",
    "symmetry": "symmetries",
}


def resolve_suite(token: str) -> tuple[str, ...]:
    """Map a suite token ('all', an alias, or a full name) to criteria."""
    if token == "all":
        return CRITERIA
    if token in SUITE_ALIASES:
        return (SUITE_ALIASES[token],)
    if token in _REGISTRY:
        return (token,)
    known = ", ".join(dict.fromkeys(["all", *SUITE_ALIASES, *CRITERIA]))
    raise KeyError(f"unknown suite {token!r}; known: {known}")


def run_criterion(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one criterion with a per-criterion deterministic stream."""
    if seed < 0:
        raise ConfigurationError(f"verify seed must be >= 0, got {seed}")
    index = CRITERIA.index(name)
    rng = np.random.default_rng([seed, index])
    return _REGISTRY[name](rng)


def run_all(seed: int = 0,
            names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the listed criteria (all by default), in registry order."""
    selected = tuple(names) if names is not None else CRITERIA
    results: list[CheckResult] = []
    for name in selected:
        if name not in _REGISTRY:
            raise KeyError(f"unknown criterion {name!r}")
        results.extend(run_criterion(name, seed))
    return results
