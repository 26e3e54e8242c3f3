"""Unitary propagator family built from shear-factorized coordinate maps.

The propagator U(theta) acts on phase-plane functions Psi(x, p) as a partial Fourier
transform to the mixed plane (x, xi_p), a measure-preserving coordinate substitution along
the closed-form flow, and the inverse partial transform.  The substitution is realized as
up to three quarter turns followed by at most one three-shear, with coefficients in closed
form in theta; every factor is exactly unitary on the grid (index permutations, FFTs,
unit-modulus cross-chirps), so U preserves discrete norms to rounding.  A shear whose
coefficient is exactly 0 is skipped: at +-THETA_WIGNER, the midpoint map
[[1, -1/2], [1, 1/2]], the closed form gives one, so U costs 6 FFT passes there and 8 at a
generic angle.  A plan holds one angle's factorization and chirp tables, and its inverse
(at -theta) alone decides when mirrored factorizations share those tables.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    _centered_fft,
    _centered_ifft,
    _fft_pass,
    _spectral_step,
)
from .symplectic import FREQUENCY, flow_matrix, plane_block

#: Substitution matrix of the quarter turn (x, eta) -> (eta, -x).
QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Smallest usable pivot of an odd quarter-turn count.
_TOL = 1e-12


def substitution_matrix(theta: float) -> np.ndarray:
    """Coordinate map used at parameter theta: the (x, xi_p) block of the
    flow at -theta (substitution acts by composition with the inverse flow)."""
    return plane_block(flow_matrix(-theta))


@dataclass(frozen=True)
class ShearFactorization:
    """A unimodular 2x2 map as `quarters` quarter turns (x, eta) -> (eta, -x),
    then shears = (b, c, d) for shear_x(b) shear_xi(c) shear_x(d), or None.

    shear_x(b) is (x, eta) -> (x + b*eta, eta) and shear_xi(c) is
    (x, eta) -> (x, eta + c*x); factors compose left to right, as applied.
    """

    quarters: int
    shears: tuple[float, float, float] | None


def shear_factorization(theta: float, allow_quarter: bool = True) -> ShearFactorization:
    """Factor `substitution_matrix(theta)` into quarter turns and shears.

    Large shears translate real mass across the periodic box, so A = Q^m A'
    with exact quarter turns Q first, taking the m in 0..3 (0 only without
    allow_quarter) whose three-shear A', pivoting on c = A'[1,0], has the
    smallest worst shear (at most about 1.51, the xi-shear near theta =
    0.609).  With phi = sqrt(7)*theta, C = cos(phi), S = sin(phi)/sqrt(7),
    A = [[C + S, -2S], [4S, C - S]] is I or -I (m = 0, 2; no shear) only where
    phi is a multiple of pi to its rounding.  Odd m pivot on +-(C + S), which
    that choice keeps off 0; even m on +-4S, with outer shears (+-1 - r)/4,
    r = sqrt(7)*tan(phi/2) (m = 0) or -sqrt(7)*cot(phi/2) (m = 2), free of 1/c.
    """
    phi = FREQUENCY * theta
    if not math.isfinite(phi):
        raise ConfigurationError(f"flow phase sqrt(7)*theta is not finite at theta={theta}")
    half_turns = round(phi / math.pi)
    if abs(phi - half_turns * math.pi) <= 2.0 * np.finfo(float).eps * abs(phi):
        if half_turns % 2 and not allow_quarter:
            raise ConfigurationError("shear factorization failed: no usable pivot; quarter "
                                     "turns need identical grids (grid_p = grid_x.dual())")
        return ShearFactorization(2 * (half_turns % 2), None)
    residual = substitution_matrix(theta)
    tan_half = float(np.tan(0.5 * FREQUENCY * theta))
    candidates = []
    for m in range(4 if allow_quarter else 1):
        c = float(residual[1, 0])
        if m % 2 == 0 or abs(c) >= _TOL:
            if m % 2:
                b, d = (residual[0, 0] - 1.0) / c, (residual[1, 1] - 1.0) / c
            else:
                r = FREQUENCY * (tan_half if m == 0 else -1.0 / tan_half)
                b, d = (1.0 - r) / 4.0, (-1.0 - r) / 4.0
            candidates.append((max(abs(b), abs(c), abs(d)), m, (float(b), c, float(d))))
        residual = QUARTER_TURN.T @ residual
    return ShearFactorization(*min(candidates)[1:])


def _chirp_tables(coeff: float, rows: Grid1D, cols: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """exp(i*coeff*outer(rows.nodes(), cols.nodes())) on centred grids as two
    tables over integer centred indices: row B*q + r is hi[q] * lo[r], with B
    the largest divisor of n = rows.n up to sqrt(n), so (n/B + B) exp per column."""
    n = rows.n
    block = max(q for q in range(1, math.isqrt(n) + 1) if n % q == 0)
    j = np.arange(cols.n) - cols.n // 2
    phase = 1j * coeff * rows.dx * cols.dx
    return (np.exp(phase * np.outer(np.arange(0, n, block) - n // 2, j)),
            np.exp(phase * np.outer(np.arange(block), j)))


def _chirp(spec: np.ndarray, tables: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A shear's cross-chirp, multiplied in place through an (..., n/B, B, n) view."""
    hi, lo = tables
    view = spec.reshape(spec.shape[:-2] + hi.shape[:1] + lo.shape)
    view *= hi[:, None, :]
    view *= lo
    return view.reshape(spec.shape)


def _shear(values: np.ndarray, axis: int, tables: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One shear: a centred FFT along `axis`, the chirp, the inverse FFT."""
    return _centered_ifft(_chirp(_centered_fft(values, axis=axis), tables), axis=axis)


def _checkerboard(rows: int, cols: int) -> np.ndarray:
    """The frame M = D (x) D of the mixed plane as a table of (-1)^(i+j): by grid's
    D F D identity, in M quarter turns stay and a shear is _plain_shear."""
    return np.outer(1.0 - 2.0 * (np.arange(rows) % 2), 1.0 - 2.0 * (np.arange(cols) % 2))


def _into_frame(values: np.ndarray) -> np.ndarray:
    """(x, p) values -> M C_eta values, up to the sign (-1)^(n/2)."""
    return _fft_pass(values * _checkerboard(*values.shape[-2:]), -1, False)


def _out_of_frame(values: np.ndarray) -> np.ndarray:
    """The inverse of _into_frame; consumes `values`."""
    return _fft_pass(values, -1, True) * _checkerboard(*values.shape[-2:])


def _plain_shear(values: np.ndarray, axis: int, tables, enter=False, leave=False) -> np.ndarray:
    """_shear in the frame: the same chirp between plain passes; `enter` takes `values`
    transformed along `axis` and `leave` returns them so, without that pass."""
    spec = _chirp(values if enter else _fft_pass(values, axis, False), tables)
    return spec if leave else _fft_pass(spec, axis, True)


class _Plan:
    """U(theta) on one pair of centred grids: the factorization and each
    nonzero shear's (axis, chirp tables) in `shears`, built once; a caller
    that repeats an angle holds its plan, and asks it for U(-theta)."""

    def __init__(self, grid_x: Grid1D, grid_p: Grid1D, theta: float):
        self.grids, self.theta = (grid_x, grid_p), theta
        grid_e = grid_p.dual()
        self.factorization = shear_factorization(theta, grid_x.matches(grid_e))
        along = {-2: (grid_x.dual(), grid_e), -1: (grid_x, grid_e.dual())}
        # exp(0) = 1: an exactly zero shear is a transform round trip and no more
        self.shears = [(axis, _chirp_tables(coeff, *along[axis]))
                       for axis, coeff in zip((-2, -1, -2), self.factorization.shears or ())
                       if coeff != 0.0]

    def substitute(self, values: np.ndarray, shear=_shear, spectral=(False, False)) -> np.ndarray:
        """Substitute the flow at -theta into mixed (x, eta) values (batched).

        Quarter turns are index permutations.  Each shear translates along
        one axis by a multiple of the other coordinate (`shear`, centred
        unless the caller works in another frame).  The identity returns
        `values`.  In the frame, spectral = (enter, leave) takes `values` and
        returns the result transformed along x, leaving out the pass an x-shear
        first (after no quarter turn) or last meets there; else it is made.
        """
        (enter, leave), axes, out = spectral, [axis for axis, _ in self.shears], values
        if enter and (self.factorization.quarters or axes[:1] != [-2]):
            out, enter = _fft_pass(out, -2, True), False
        neg = (-np.arange(values.shape[-1])) % values.shape[-1]
        for _ in range(self.factorization.quarters):
            out = np.swapaxes(out, -1, -2)[..., neg, :]
        for i, (axis, tables) in enumerate(self.shears):
            ends = (enter and i == 0, leave and i == len(axes) - 1 and axis == -2)
            out = shear(out, axis, tables, *ends) if any(ends) else shear(out, axis, tables)
        return _fft_pass(out, -2, False) if leave and axes[-1:] != [-2] else out

    def inverse(self) -> "_Plan":
        """The plan at -theta on the same grids.  On dual grids, where the factorization at -theta
        mirrors this one (the same even quarter count, shears (-d, -c, -b)), it takes these tables
        conjugated in reverse order, a fresh build's values (cos is even, sin odd); else fresh."""
        (grid_x, grid_p), (turns, shears) = self.grids, astuple(self.factorization)
        mirror = ShearFactorization(turns, shears and (-shears[2], -shears[1], -shears[0]))
        if turns % 2 or grid_p != grid_x.dual() or shear_factorization(-self.theta) != mirror:
            return _Plan(grid_x, grid_p, -self.theta)
        inverse = object.__new__(type(self))
        vars(inverse).update(grids=self.grids, theta=-self.theta, factorization=mirror, shears=[
            (axis, (hi.conj(), lo.conj())) for axis, (hi, lo) in self.shears[::-1]])
        return inverse


def _propagate_values(
    values: np.ndarray, grid_x: Grid1D, grid_p: Grid1D, theta: float
) -> np.ndarray:
    """Bare-FFT realization of U(theta) on raw value arrays (batchable)."""
    plan = _Plan(grid_x, grid_p, theta)
    if plan.factorization == ShearFactorization(0, None):
        # Identity flow: skip the transform pair so the zero angle is an
        # exact no-op rather than an fft/ifft round trip.
        return np.array(values, dtype=np.complex128)
    return _centered_ifft(plan.substitute(_centered_fft(values, axis=-1)), axis=-1)


def propagate(F: PhaseFunction2D, theta: float) -> PhaseFunction2D:
    """Apply the unitary propagator U(theta) to a phase-plane function."""
    return PhaseFunction2D(
        F.grid_x, F.grid_p, _propagate_values(F.values, F.grid_x, F.grid_p, theta)
    )


def generator_apply(F: PhaseFunction2D) -> PhaseFunction2D:
    """Apply the propagator's generator H, so that i dU/dtheta = H U.

    In the mixed (x, xi_p) representation the generator reads
    -2i*xi*d/dx + i*x*d/dx - i*xi*d/dxi + 4i*x*d/dxi; derivatives are
    spectral, and the partial transforms wrapping it are the bare pair.
    """
    grid_e = F.grid_p.dual()
    x = F.grid_x.nodes()[:, None]
    xi = grid_e.nodes()[None, :]
    mixed = _centered_fft(F.values, axis=-1)
    dx = _spectral_step(mixed, 1j * F.grid_x.dual().nodes()[:, None], axis=-2)
    dxi = _spectral_step(mixed, 1j * grid_e.dual().nodes()[None, :], axis=-1)
    h = (-2j * xi + 1j * x) * dx + (-1j * xi + 4j * x) * dxi
    return PhaseFunction2D(F.grid_x, F.grid_p, _centered_ifft(h, axis=-1))
