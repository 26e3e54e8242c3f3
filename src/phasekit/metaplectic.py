"""Unitary propagator family built from shear-factorized coordinate maps.

The propagator U(theta) acts on phase-plane functions Psi(x, p) as a
partial Fourier transform to the mixed plane (x, xi_p), a measure-
preserving coordinate substitution along the closed-form flow, and the
inverse partial transform.  The substitution is realized as up to three
quarter turns followed by at most one three-shear; every factor is exactly
unitary on the grid (index permutations, FFTs, unit-modulus cross-chirps),
so U preserves discrete norms to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    _centered_fft,
    _centered_ifft,
    _spectral_step,
)
from .symplectic import flow_matrix, plane_block

#: Substitution matrix of the quarter turn (x, eta) -> (eta, -x).
QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])
_QUARTER_TURN_INV = np.array([[0.0, -1.0], [1.0, 0.0]])

_PIVOT_TOL = 1e-12
_IDENTITY_TOL = 1e-12


def substitution_matrix(theta: float) -> np.ndarray:
    """Coordinate map used at parameter theta: the (x, xi_p) block of the
    flow at -theta (substitution acts by composition with the inverse flow)."""
    return plane_block(flow_matrix(-theta))


def _is_identity(A: np.ndarray) -> bool:
    return bool(np.abs(A - np.eye(2)).max() <= _IDENTITY_TOL)


@dataclass(frozen=True)
class ShearFactorization:
    """A unimodular 2x2 map as `quarters` quarter turns (x, eta) -> (eta, -x),
    then shears = (b, c, d) for shear_x(b) shear_xi(c) shear_x(d), or None.

    shear_x(b) is (x, eta) -> (x + b*eta, eta) and shear_xi(c) is
    (x, eta) -> (x, eta + c*x); factors compose left to right, as applied.
    """

    quarters: int
    shears: tuple[float, float, float] | None

    def matrix(self) -> np.ndarray:
        M = np.linalg.matrix_power(QUARTER_TURN, self.quarters)
        if self.shears is not None:
            b, c, d = self.shears
            M = M @ [[1.0, b], [0.0, 1.0]] @ [[1.0, 0.0], [c, 1.0]] @ [[1.0, d], [0.0, 1.0]]
        return M

    @classmethod
    def factor(cls, A: np.ndarray, allow_quarter: bool = True) -> "ShearFactorization":
        """Factor a unimodular 2x2 matrix into quarter turns and shears.

        The three-shear form shear_x(b) shear_xi(c) shear_x(d) pivots on
        c = A[1,0] and is well conditioned only while the map stays close
        to the identity; large shear coefficients translate real mass
        across the periodic box and ruin accuracy even though every factor
        is unitary.  The rotation-like content is therefore range-reduced
        first: A = Q^m A' with exact quarter turns Q, choosing the m in
        0..3 whose residual A' has the smallest worst shear coefficient
        (at most about 1.51 for the flow family, reached on the xi-shear
        near theta = 0.609; unbounded without the reduction).  Quarter
        turns cost nothing and are exact index permutations.
        """
        A = np.asarray(A, dtype=float)
        if abs(float(np.linalg.det(A)) - 1.0) > 1e-9:
            raise ConfigurationError("substitution matrix must be unimodular")
        best: tuple[float, ShearFactorization] | None = None
        residual = A
        for m in range(4 if allow_quarter else 1):
            if _is_identity(residual):
                return cls(m, None)
            c = residual[1, 0]
            if abs(c) >= _PIVOT_TOL:
                b = (residual[0, 0] - 1.0) / c
                d = (residual[1, 1] - 1.0) / c
                worst = max(abs(b), abs(c), abs(d))
                if best is None or worst < best[0]:
                    best = (worst, cls(m, (float(b), float(c), float(d))))
            residual = _QUARTER_TURN_INV @ residual
        if best is None:
            raise ConfigurationError(
                "shear factorization failed: no usable pivot; quarter-turn "
                "range reduction needs the mixed plane's axes to carry "
                "identical grids (use grid_p = grid_x.dual())"
            )
        return best[1]


def shear_factorization(theta: float) -> ShearFactorization:
    return ShearFactorization.factor(substitution_matrix(theta))


def _substitute(
    values: np.ndarray, grid_x: Grid1D, grid_e: Grid1D, theta: float
) -> np.ndarray:
    """Substitute the flow at -theta into mixed-plane values (batched).

    Quarter turns are exact index permutations and need the two axes to
    carry identical grids; otherwise the three-shear carries the whole map.
    Each shear translates along one axis by a multiple of the other
    coordinate: a centred FFT, a unit-modulus cross-chirp built after it,
    and the inverse FFT.  The identity returns `values` itself.
    """
    A = substitution_matrix(theta)
    fact = ShearFactorization.factor(A, allow_quarter=grid_x.matches(grid_e))
    neg = (-np.arange(grid_x.n)) % grid_x.n
    out = values
    for _ in range(fact.quarters):
        out = np.swapaxes(out, -1, -2)[..., neg, :]
    if fact.shears is None:
        return out
    x, eta = grid_x.nodes(), grid_e.nodes()
    u, v = grid_x.dual().nodes(), grid_e.dual().nodes()
    b, c, d = fact.shears
    for axis, coeff, rows, cols in ((-2, b, u, eta), (-1, c, x, v), (-2, d, u, eta)):
        spec = _centered_fft(out, axis=axis)
        spec *= np.exp(1j * coeff * np.outer(rows, cols))
        out = _centered_ifft(spec, axis=axis)
    return out


# --- public operations -----------------------------------------------------


def _propagate_values(
    values: np.ndarray, grid_x: Grid1D, grid_p: Grid1D, theta: float
) -> np.ndarray:
    """Bare-FFT realization of U(theta) on raw value arrays (batchable)."""
    if _is_identity(substitution_matrix(theta)):
        # Identity flow: skip the transform pair so the zero angle is an
        # exact no-op rather than an fft/ifft round trip.
        return np.array(values, dtype=np.complex128)
    mixed = _substitute(_centered_fft(values, axis=-1), grid_x, grid_p.dual(), theta)
    return _centered_ifft(mixed, axis=-1)


def propagate(F: PhaseFunction2D, theta: float) -> PhaseFunction2D:
    """Apply the unitary propagator U(theta) to a phase-plane function."""
    F.grid_x.require_centered()
    F.grid_p.require_centered()
    return PhaseFunction2D(
        F.grid_x, F.grid_p, _propagate_values(F.values, F.grid_x, F.grid_p, theta)
    )


def generator_apply(F: PhaseFunction2D) -> PhaseFunction2D:
    """Apply the propagator's generator H, so that i dU/dtheta = H U.

    In the mixed (x, xi_p) representation the generator reads
    -2i*xi*d/dx + i*x*d/dx - i*xi*d/dxi + 4i*x*d/dxi; derivatives are
    spectral, and the partial transforms wrapping it are the bare pair.
    """
    F.grid_x.require_centered()
    F.grid_p.require_centered()
    grid_e = F.grid_p.dual()
    x = F.grid_x.nodes()[:, None]
    xi = grid_e.nodes()[None, :]
    mixed = _centered_fft(F.values, axis=-1)
    dx = _spectral_step(mixed, 1j * F.grid_x.dual().nodes()[:, None], axis=-2)
    dxi = _spectral_step(mixed, 1j * grid_e.dual().nodes()[None, :], axis=-1)
    h = (-2j * xi + 1j * x) * dx + (-1j * xi + 4j * x) * dxi
    return PhaseFunction2D(F.grid_x, F.grid_p, _centered_ifft(h, axis=-1))
