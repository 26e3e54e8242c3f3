"""Centered 1D grids, sampled functions, and the unitary Fourier pipeline.

Every grid is symmetric about the origin (x_min = -N*dx/2, N even); Grid1D
refuses any other, so no transform checks it again.  The Fourier convention
is the symmetric one: a factor (2*pi)**-0.5 on both directions, e^{-i xi x}
forward.  Dual grids come out in natural ascending order with spacing
2*pi/(N*dx), so the dual of the dual is the original grid again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.fft as _sfft

TWO_PI = 2.0 * np.pi
SQRT_TWO_PI = float(np.sqrt(2.0 * np.pi))

#: Relative tolerance of grid comparisons: spacings computed two ways agree
#: to floating-point noise, far inside it.
GRID_TOL = 1e-9


class ConfigurationError(ValueError):
    """A grid or parameter violates a structural precondition."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_j = x_min + j*dx, j = 0..n-1, n even, x_min = -n*dx/2."""

    n: int
    x_min: float
    dx: float

    def __post_init__(self) -> None:
        # bool is an Integral; a header's 8.9, "8" or true is no grid size
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral)
                or self.n <= 0 or self.n % 2 != 0):
            raise ConfigurationError(
                f"grid size n must be a positive even integer, got {self.n!r}"
            )
        for key in ("x_min", "dx"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigurationError(f"grid {key} must be a finite number, got {value!r}")
        if not self.dx > 0:
            raise ConfigurationError(f"grid spacing dx must be positive, got {self.dx}")
        length = self.length if self.n < 2**1023 else math.inf  # past float range
        # an infinite length is no box: the bound must be finite too
        if not abs(self.x_min + 0.5 * length) <= GRID_TOL * max(1.0, length) < math.inf:
            raise ConfigurationError(
                f"grid must be symmetric about 0 (x_min = -n*dx/2), got "
                f"x_min={self.x_min}, n*dx/2={0.5 * length}"
            )

    @classmethod
    def centered(cls, n: int, half_width: float) -> "Grid1D":
        """Grid of n points covering [-half_width, half_width)."""
        if not half_width > 0:
            raise ConfigurationError("half_width must be positive")
        # max: n = 0 reaches the size check instead of dividing by zero
        return cls(n, -float(half_width), 2.0 * float(half_width) / max(n, 1))

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def dual_spacing(self) -> float:
        return TWO_PI / self.length

    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def dual(self) -> "Grid1D":
        """Frequency grid of the centered unitary transform, ascending order."""
        d = self.dual_spacing
        return Grid1D(self.n, -0.5 * self.n * d, d)

    def matches(self, other: "Grid1D") -> bool:
        """Equality up to noise in dx; both grids are centred, so x_min follows."""
        return self.n == other.n and abs(self.dx - other.dx) <= GRID_TOL * max(1.0, self.dx)


def _require_matching(g1: Grid1D, g2: Grid1D, what: str) -> None:
    if not g1.matches(g2):
        raise ConfigurationError(f"{what}: grids do not match ({g1} vs {g2})")


@dataclass
class SampledFunction1D:
    """Complex samples of a function on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n,):
            raise ConfigurationError(
                f"values shape {v.shape} does not match grid size {self.grid.n}"
            )
        self.values = v

    def norm(self) -> float:
        """L2 norm with the grid measure, sqrt(dx * sum |f|^2)."""
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "SampledFunction1D") -> complex:
        """<f, g> = dx * sum f * conj(g); linear in the first slot."""
        _require_matching(self.grid, other.grid, "inner product")
        return complex(self.grid.dx * np.sum(self.values * np.conj(other.values)))


@dataclass
class PhaseFunction2D:
    """Complex samples on a tensor grid; axis 0 is x, axis 1 is p."""

    grid_x: Grid1D
    grid_p: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid_x.n, self.grid_p.n):
            raise ConfigurationError(
                f"values shape {v.shape} does not match grids "
                f"({self.grid_x.n}, {self.grid_p.n})"
            )
        self.values = v

    @property
    def weight(self) -> float:
        return self.grid_x.dx * self.grid_p.dx

    def copy(self) -> "PhaseFunction2D":
        return PhaseFunction2D(self.grid_x, self.grid_p, self.values.copy())

    def norm(self) -> float:
        return float(np.sqrt(self.weight * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "PhaseFunction2D") -> complex:
        _require_matching(self.grid_x, other.grid_x, "inner product (x axis)")
        _require_matching(self.grid_p, other.grid_p, "inner product (p axis)")
        return complex(self.weight * np.sum(self.values * np.conj(other.values)))


# --- bare centered DFT helpers -------------------------------------------
#
# _fft_pass is the one scipy.fft call site: a plain DFT, or its inverse with
# the 1/N, along one axis; it overwrites a C-ordered argument unless told to
# keep it.  _centered_fft (sum_j e^{-i xi_m x_j} v_j on centred orderings, no
# measure factor) is that pass between shifts, _centered_ifft its exact
# inverse, a unitary pair; ifftshift returns a fresh copy in the caller's
# memory order, which the pass overwrites when C-ordered.  For even N the
# centred DFT is also (-1)^(N/2) D F D, F plain and D = diag((-1)^j): the
# frame every transform of the package runs in but those whose passes and
# shifts the benchmark counts, fourier_1d and the propagator's substitute.


def _fft_pass(values: np.ndarray, axis: int, inverse: bool, keep: bool = False) -> np.ndarray:
    transform = _sfft.ifft if inverse else _sfft.fft
    return transform(values, axis=axis, overwrite_x=not keep and values.flags.c_contiguous)


def _centered_fft(values: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.fftshift(_fft_pass(np.fft.ifftshift(values, axes=axis), axis, False), axes=axis)


def _centered_ifft(values: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.fftshift(_fft_pass(np.fft.ifftshift(values, axes=axis), axis, True), axes=axis)


def fourier_1d(f: SampledFunction1D) -> SampledFunction1D:
    """Unitary Fourier transform onto the dual grid:
    (2*pi)**-0.5 * integral e^{-i xi x} f(x) dx, sampled on f.grid.dual()."""
    return SampledFunction1D(f.grid.dual(), (f.grid.dx / SQRT_TWO_PI) * _centered_fft(f.values))


def conjugate(f: SampledFunction1D) -> SampledFunction1D:
    return SampledFunction1D(f.grid, np.conj(f.values))
