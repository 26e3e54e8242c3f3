"""Unitary propagator family built from shear-factorized coordinate maps.

The propagator U(theta) acts on phase-plane functions Psi(x, p) as a
partial Fourier transform to the mixed plane (x, xi_p), a measure-
preserving coordinate substitution along the closed-form flow, and the
inverse partial transform.  The substitution is realized spectrally as at
most three axis shears plus an optional quarter turn; every factor is
exactly unitary on the grid (FFTs, unit-modulus cross-chirps, index
permutations), so U preserves discrete norms to rounding.

A direct trigonometric-interpolation resample of the same substitution is
provided as an independent oracle; it never sits on the fast path.
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


@dataclass(frozen=True)
class ShearFactorization:
    """Ordered factors composing (left to right) to a unimodular 2x2 map.

    Factors are ("shear_x", b) for (x, eta) -> (x + b*eta, eta),
    ("shear_xi", c) for (x, eta) -> (x, eta + c*x), and ("quarter", 0.0)
    for (x, eta) -> (eta, -x).  An empty tuple is the identity.
    """

    factors: tuple[tuple[str, float], ...]

    def matrix(self) -> np.ndarray:
        M = np.eye(2)
        for kind, coeff in self.factors:
            if kind == "shear_x":
                F = np.array([[1.0, coeff], [0.0, 1.0]])
            elif kind == "shear_xi":
                F = np.array([[1.0, 0.0], [coeff, 1.0]])
            elif kind == "quarter":
                F = QUARTER_TURN
            else:
                raise ConfigurationError(f"unknown factor kind {kind!r}")
            M = M @ F
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
        (<= about 1.07 for the flow family, versus unbounded without the
        reduction).  Quarter turns cost nothing and are exact index
        permutations.
        """
        A = np.asarray(A, dtype=float)
        if abs(float(np.linalg.det(A)) - 1.0) > 1e-9:
            raise ConfigurationError("substitution matrix must be unimodular")
        if np.array_equal(A, np.eye(2)):
            return cls(())

        best: tuple[float, int, tuple[tuple[str, float], ...]] | None = None
        residual = A
        for m in range(4 if allow_quarter else 1):
            quarters = (("quarter", 0.0),) * m
            if np.abs(residual - np.eye(2)).max() <= _IDENTITY_TOL:
                return cls(quarters)
            c = residual[1, 0]
            if abs(c) >= _PIVOT_TOL:
                b = (residual[0, 0] - 1.0) / c
                d = (residual[1, 1] - 1.0) / c
                worst = max(abs(b), abs(c), abs(d))
                if best is None or worst < best[0]:
                    shears = (
                        ("shear_x", float(b)),
                        ("shear_xi", float(c)),
                        ("shear_x", float(d)),
                    )
                    best = (worst, m, quarters + shears)
            residual = _QUARTER_TURN_INV @ residual
        if best is None:
            raise ConfigurationError(
                "shear factorization failed: no usable pivot; quarter-turn "
                "range reduction needs the mixed plane's axes to carry "
                "identical grids (use grid_p = grid_x.dual())"
            )
        return cls(best[2])


def shear_factorization(theta: float) -> ShearFactorization:
    return ShearFactorization.factor(substitution_matrix(theta))


def _factor_for_grids(A: np.ndarray, grid_x: Grid1D, grid_e: Grid1D) -> ShearFactorization:
    return ShearFactorization.factor(A, allow_quarter=grid_x.matches(grid_e))


# --- factor application (batched over leading axes) -----------------------


def _apply_shear_x(values: np.ndarray, b: float, grid_x: Grid1D, grid_e: Grid1D) -> np.ndarray:
    """(x, eta) -> (x + b*eta, eta): translate along x by b*eta per column."""
    u = grid_x.dual().nodes()
    eta = grid_e.nodes()
    spec = _centered_fft(values, axis=-2)
    spec *= np.exp(1j * b * np.outer(u, eta))
    return _centered_ifft(spec, axis=-2)


def _apply_shear_xi(values: np.ndarray, c: float, grid_x: Grid1D, grid_e: Grid1D) -> np.ndarray:
    """(x, eta) -> (x, eta + c*x): translate along eta by c*x per row."""
    v = grid_e.dual().nodes()
    x = grid_x.nodes()
    spec = _centered_fft(values, axis=-1)
    spec *= np.exp(1j * c * np.outer(x, v))
    return _centered_ifft(spec, axis=-1)


def _apply_quarter(values: np.ndarray, grid_x: Grid1D, grid_e: Grid1D) -> np.ndarray:
    """(x, eta) -> (eta, -x), exact index permutation on matched axes."""
    if not grid_x.matches(grid_e):
        raise ConfigurationError(
            "quarter-turn factor requires the mixed plane's axes to carry "
            "identical grids; build phase grids with grid_p = grid_x.dual()"
        )
    n = grid_x.n
    neg = (-np.arange(n)) % n
    return np.swapaxes(values, -1, -2)[..., neg, :]


def _apply_substitution(
    values: np.ndarray, grid_x: Grid1D, grid_e: Grid1D, fact: ShearFactorization
) -> np.ndarray:
    if not fact.factors:
        return values.copy()
    out = values
    for kind, coeff in fact.factors:
        if kind == "shear_x":
            out = _apply_shear_x(out, coeff, grid_x, grid_e)
        elif kind == "shear_xi":
            out = _apply_shear_xi(out, coeff, grid_x, grid_e)
        else:
            out = _apply_quarter(out, grid_x, grid_e)
    return out


# --- resample oracle -------------------------------------------------------


def _resample_trig(
    values: np.ndarray, grid_x: Grid1D, grid_e: Grid1D, A: np.ndarray
) -> np.ndarray:
    """Evaluate the 2D trigonometric interpolant at the mapped nodes.

    Single pass: no intermediate re-truncation, so this differs from the
    shear pipeline by genuine aliasing amounts and serves as its oracle.
    """
    nx, ne = grid_x.n, grid_e.n
    a, b = float(A[0, 0]), float(A[0, 1])
    c, d = float(A[1, 0]), float(A[1, 1])
    x = grid_x.nodes()
    eta = grid_e.nodes()
    u = grid_x.dual().nodes()
    v = grid_e.dual().nodes()

    C = _centered_fft(_centered_fft(values, axis=-2), axis=-1)
    P1 = np.exp(1j * a * np.outer(x, u))          # (i, m)
    P2 = np.exp(1j * b * np.outer(u, eta))        # (m, j)
    E2 = np.exp(1j * d * np.outer(v, eta))        # (n, j)
    row = np.exp(1j * c * np.outer(x, v))         # (i, n)

    out = np.empty((nx, ne), dtype=np.complex128)
    for i in range(nx):
        G = (C * row[i][None, :]) @ E2            # (m, j)
        out[i] = P1[i] @ (P2 * G)
    out /= nx * ne
    return out


# --- public operations -----------------------------------------------------


def coordinate_transform(
    F: PhaseFunction2D, theta: float, method: str = "spectral"
) -> PhaseFunction2D:
    """Substitute the flow at -theta into a mixed-plane function.

    method="spectral" is the exactly-unitary shear pipeline;
    method="resample" evaluates the trigonometric interpolant directly at
    the mapped nodes and is test-only.
    """
    F.grid_x.require_centered()
    F.grid_p.require_centered()
    A = substitution_matrix(theta)
    if method == "spectral":
        fact = _factor_for_grids(A, F.grid_x, F.grid_p)
        out = _apply_substitution(F.values, F.grid_x, F.grid_p, fact)
    elif method == "resample":
        out = _resample_trig(F.values, F.grid_x, F.grid_p, A)
    else:
        raise ConfigurationError(f"method must be spectral or resample, got {method!r}")
    return PhaseFunction2D(F.grid_x, F.grid_p, out)


def _propagate_values(
    values: np.ndarray, grid_x: Grid1D, grid_p: Grid1D, theta: float
) -> np.ndarray:
    """Bare-FFT realization of U(theta) on raw value arrays (batchable)."""
    A = substitution_matrix(theta)
    grid_e = grid_p.dual()
    fact = _factor_for_grids(A, grid_x, grid_e)
    if not fact.factors:
        # Identity flow: skip the transform pair so the zero angle is an
        # exact no-op rather than an fft/ifft round trip.
        return np.array(values, dtype=np.complex128)
    mixed = _centered_fft(values, axis=-1)
    mixed = _apply_substitution(mixed, grid_x, grid_e, fact)
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
    u = F.grid_x.dual().nodes()[:, None]
    w = grid_e.dual().nodes()[None, :]

    mixed = _centered_fft(F.values, axis=-1)
    dx = _centered_ifft(1j * u * _centered_fft(mixed, axis=-2), axis=-2)
    dxi = _centered_ifft(1j * w * _centered_fft(mixed, axis=-1), axis=-1)
    h = (-2j * xi + 1j * x) * dx + (-1j * xi + 4j * x) * dxi
    return PhaseFunction2D(F.grid_x, F.grid_p, _centered_ifft(h, axis=-1))
