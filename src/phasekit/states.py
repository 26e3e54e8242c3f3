"""Analytic reference states and seeded random test data."""

from __future__ import annotations

import numpy as np

from .grid import ConfigurationError, Grid1D, SampledFunction1D


def gaussian(grid: Grid1D) -> SampledFunction1D:
    """Unit-norm ground Gaussian pi**-0.25 * exp(-x^2/2)."""
    x = grid.nodes()
    return SampledFunction1D(grid, np.pi ** -0.25 * np.exp(-0.5 * x * x))


def hermite(grid: Grid1D, m: int) -> SampledFunction1D:
    """m-th Hermite function (oscillator eigenstate), by stable recurrence."""
    if m < 0:
        raise ConfigurationError(f"hermite order must be >= 0, got {m}")
    x = grid.nodes()
    h_prev = np.zeros_like(x)
    h = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for k in range(m):
        h_next = np.sqrt(2.0 / (k + 1)) * x * h - np.sqrt(k / (k + 1.0)) * h_prev
        h_prev, h = h, h_next
    return SampledFunction1D(grid, h)


def coherent(grid: Grid1D, alpha: complex) -> SampledFunction1D:
    """Coherent state centered at x0 = sqrt(2) Re a, p0 = sqrt(2) Im a."""
    x = grid.nodes()
    x0 = np.sqrt(2.0) * np.real(alpha)
    p0 = np.sqrt(2.0) * np.imag(alpha)
    values = np.pi ** -0.25 * np.exp(
        -0.5 * (x - x0) ** 2 + 1j * p0 * x - 0.5j * x0 * p0
    )
    return SampledFunction1D(grid, values)


def chirp(grid: Grid1D, rate: float = 0.5) -> SampledFunction1D:
    """Gaussian with a quadratic phase, exp(i*rate*x^2); unit norm."""
    g = gaussian(grid)
    return SampledFunction1D(grid, g.values * np.exp(1j * rate * grid.nodes() ** 2))


def random_wave(grid: Grid1D, rng: np.random.Generator) -> SampledFunction1D:
    """Unit-norm random combination of the first six Hermite functions:
    smooth, fast-decaying."""
    modes = 6
    coeff = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    values = np.zeros(grid.n, dtype=np.complex128)
    for m, c in enumerate(coeff):
        values += c * hermite(grid, m).values
    f = SampledFunction1D(grid, values)
    n = f.norm()
    if n == 0.0:
        raise ConfigurationError("degenerate random draw")
    f.values /= n
    return f

