"""Fractional Wigner distributions and windowed phase-space transforms.

The central object is the map (psi, phi) -> U(theta)(psi (x) conj(FT phi)),
built from the shear-factorized propagator in `metaplectic`.  At the special
angle THETA_WIGNER the result is, up to the (2*pi)^(-1/2) prefactor, the
cross Wigner distribution; at theta = 0 it is the Kirkwood distribution; the
angle enters only through the propagator, so every theta shares one code
path.  Angles are plain floats: U(theta) is periodic in theta and the
propagator takes any finite angle, so no reduction is made here; a
non-finite angle is refused with a message naming theta.  Windowed variants
treat the second argument as an analysis window (normalized, Fourier
transform cached) and omit the prefactor, giving an isometry from states to
phase-space functions.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SampledFunction1D,
    SQRT_TWO_PI,
    _centered_fft,
    _centered_ifft,
    conjugate,
    fourier_1d,
    tensor_outer,
)
from .metaplectic import propagate
from .symplectic import PERIOD, THETA_WIGNER

__all__ = [
    "Window",
    "wigner_fractional",
    "wigner_metaplectic",
    "wigner_direct",
    "windowed_transform",
    "windowed_adjoint",
    "windowed_projection",
    "position_marginal",
]

_WINDOW_NORM_WARN = 1.0e-6
_WINDOW_NORM_MIN = 1.0e-12
_WIGNER_TOL = 1.0e-12  # THETA_WIGNER + k*PERIOD lands a few ulps off


def _finite_angle(value: float) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"angle theta={value} is not finite")
    return value


def _is_wigner_angle(theta: float) -> bool:
    """Whether theta is the distinguished angle modulo PERIOD, to rounding."""
    return abs(math.remainder(_finite_angle(theta) - THETA_WIGNER, PERIOD)) <= _WIGNER_TOL


class Window:
    """Analysis window: a unit-norm state with its Fourier transform cached.

    A window whose norm strays from 1 by more than 1e-6 is renormalized with
    a warning; a numerically zero window or one with a non-finite norm is rejected.
    """

    def __init__(self, state: SampledFunction1D):
        norm = state.norm()
        if not _WINDOW_NORM_MIN <= norm < math.inf:
            raise ConfigurationError(f"window norm must be finite and not numerically zero, "
                                     f"got {norm}")
        if abs(norm - 1.0) > _WINDOW_NORM_WARN:
            warnings.warn(
                f"window norm {norm:.3e} deviates from 1; renormalizing",
                stacklevel=2,
            )
        values = state.values / norm
        self.state = SampledFunction1D(state.grid, values)
        self.transform = fourier_1d(self.state)

    @property
    def grid(self) -> Grid1D:
        return self.state.grid


def windowed_transform(psi: SampledFunction1D, window: Window, theta: float) -> PhaseFunction2D:
    """U(theta)(psi (x) conj(FT window)): isometric analysis transform."""
    if not psi.grid.matches(window.grid):
        raise ConfigurationError("state and window live on different grids")
    seed = tensor_outer(psi, conjugate(window.transform))
    return propagate(seed, theta)


def windowed_adjoint(phase: PhaseFunction2D, window: Window, theta: float) -> SampledFunction1D:
    """Adjoint of windowed_transform: integrate U(-theta)Phi against FT window.

    The window transform enters unconjugated; the conjugation that pairs with
    the forward map sits on the phase-space side of the inner product.
    """
    if not (phase.grid_x.matches(window.grid) and phase.grid_p.matches(window.grid.dual())):
        raise ConfigurationError(f"phase function grids {phase.grid_x}, {phase.grid_p} are not "
                                 f"window grid {window.grid} and its dual {window.grid.dual()}")
    back = propagate(phase, -theta)
    weights = window.transform.values
    values = back.values @ weights * phase.grid_p.dx
    return SampledFunction1D(phase.grid_x, values)


def windowed_projection(phase: PhaseFunction2D, window: Window, theta: float) -> PhaseFunction2D:
    """Projection onto the range of the windowed transform: W o W*."""
    return windowed_transform(windowed_adjoint(phase, window, theta), window, theta)


def wigner_fractional(psi: SampledFunction1D, phi: SampledFunction1D,
                      theta: float) -> PhaseFunction2D:
    """Fractional cross distribution (2*pi)^(-1/2) U(theta)(psi (x) conj(FT phi)).

    The second slot is a state, not a window: no normalization is applied,
    and the map is antilinear in phi as required by sesquilinearity.
    """
    if not psi.grid.matches(phi.grid):
        raise ConfigurationError("states live on different grids")
    seed = tensor_outer(psi, conjugate(fourier_1d(phi)))
    out = propagate(seed, theta)
    return PhaseFunction2D(out.grid_x, out.grid_p, out.values / SQRT_TWO_PI)


def wigner_metaplectic(psi: SampledFunction1D, phi: SampledFunction1D) -> PhaseFunction2D:
    """Cross Wigner distribution through the propagator at THETA_WIGNER."""
    return wigner_fractional(psi, phi, THETA_WIGNER)


def _half_shifted(values: np.ndarray, grid: Grid1D, sign: float) -> np.ndarray:
    """Matrix S[k, j] = f(x_j + sign * xi_k / 2) with xi_k = (k - N/2) dx.

    Built from the trigonometric interpolant: one phase ramp per shift k
    applied to the centered spectrum, then a batched inverse transform.
    """
    n = grid.n
    spectrum = _centered_fft(values)
    freqs = grid.dual().nodes()
    shifts = (np.arange(n) - n // 2) * (grid.dx / 2.0)
    ramps = np.exp(1j * sign * np.outer(shifts, freqs))
    return _centered_ifft(ramps * spectrum[None, :], axis=1)


def _half_shifted_upsample(values: np.ndarray, grid: Grid1D, sign: float) -> np.ndarray:
    """Same matrix as _half_shifted via a doubled grid and index gymnastics."""
    n = grid.n
    spectrum = _centered_fft(values)
    pad = np.zeros(2 * n, dtype=complex)
    pad[n // 2 : n // 2 + n] = spectrum
    fine = 2.0 * _centered_ifft(pad)
    j = np.arange(n)[None, :]
    k = np.arange(n)[:, None]
    offset = np.rint(sign).astype(int) * (k - n // 2)
    return fine[(2 * j + offset + 0) % (2 * n)]


def wigner_direct(
    psi: SampledFunction1D,
    phi: SampledFunction1D,
    method: str = "trig",
) -> PhaseFunction2D:
    """Cross Wigner distribution by direct quadrature of the defining integral.

    W(x, p) = (2*pi)^(-1) * integral exp(i p xi) psi(x - xi/2) conj(phi(x + xi/2)) dxi,
    with the half-shifted samples built from the trigonometric interpolant.
    `method="upsample"` replaces the per-shift phase ramps with lookups into a
    doubled grid; both are exact on band-limited data and serve as mutual
    cross-checks.
    """
    if not psi.grid.matches(phi.grid):
        raise ConfigurationError("states live on different grids")
    grid = psi.grid
    n = grid.n
    if method == "trig":
        psi_half = _half_shifted(psi.values, grid, -1.0)
        phi_half = _half_shifted(phi.values, grid, +1.0)
    elif method == "upsample":
        psi_half = _half_shifted_upsample(psi.values, grid, -1.0)
        phi_half = _half_shifted_upsample(phi.values, grid, +1.0)
    else:
        raise ConfigurationError(f"unknown wigner_direct method: {method!r}")
    cross = psi_half * np.conj(phi_half)
    grid_p = grid.dual()
    shifts = (np.arange(n) - n // 2) * grid.dx
    phases = np.exp(1j * np.outer(shifts, grid_p.nodes()))
    values = (grid.dx / (2.0 * np.pi)) * (cross.T @ phases)
    return PhaseFunction2D(grid, grid_p, values)


def position_marginal(phase: PhaseFunction2D) -> SampledFunction1D:
    """Integrate a phase-space function over its momentum axis."""
    values = phase.values.sum(axis=1) * phase.grid_p.dx
    return SampledFunction1D(phase.grid_x, values)
