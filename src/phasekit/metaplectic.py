"""Unitary propagator family built from shear-factorized coordinate maps.

The propagator U(theta) acts on phase-plane functions Psi(x, p) as a partial Fourier
transform to the mixed plane (x, xi_p), a measure-preserving coordinate substitution along
the closed-form flow, and the inverse partial transform.  The substitution is realized as
up to three quarter turns followed by at most one three-shear, with coefficients in closed
form in theta; every factor is exactly unitary on the grid (index permutations, FFTs,
unit-modulus cross-chirps), so U preserves discrete norms to rounding.  A shear whose
coefficient is exactly 0 is skipped: at +-THETA_WIGNER, the midpoint map
[[1, -1/2], [1, 1/2]], the closed form gives one, so U costs 6 FFT passes there and 8 at a
generic angle.  A plan holds one angle's factorization and read-only chirp tables (one
whole table per chirp if held) and applies them by one frame flow, in the checkerboard frame
where plain passes stand for centred ones, on values transformed along either axis or
neither.  Callers that repeat an angle (theta_product, expectation, bopp's harnesses) take
plans from _plan, built once per process; callers that bring arbitrary angles build their
own.  Of these weyl's symbol transports flow in the frame, as generator_apply's derivatives
and wigner_direct's half shifts run there; _propagate_values alone keeps the centred
substitute, the one centred route besides fourier_1d, because the benchmark's
phase-transforms workload counts propagate's passes and shifts.  A plan's lift
psi -> U(psi (x) conj FT w) and sandwich U (K (x) I) U* take values at its entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SQRT_TWO_PI,
    _centered_fft,
    _centered_ifft,
    _fft_pass,
)
from .symplectic import FREQUENCY, _flow_phase, flow_matrix, plane_block

#: Substitution matrix of the quarter turn (x, eta) -> (eta, -x).
QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Smallest usable pivot of an odd quarter-turn count.
_TOL = 1e-12

#: Tables or plans kept per process for each shape, grid or (grids, angle) they depend on.
_GRID_TABLES = 8


def _frozen(array: np.ndarray) -> np.ndarray:
    """A cached table, read-only so that no caller can alter a later call's."""
    array.flags.writeable = False
    return array


def substitution_matrix(theta: float) -> np.ndarray:
    """Coordinate map used at parameter theta: the (x, xi_p) block of the
    flow at -theta (substitution acts by composition with the inverse flow)."""
    _flow_phase(theta)  # an overflowing phase is refused at the caller's theta
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
    phi = _flow_phase(theta)
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


@functools.lru_cache(maxsize=_GRID_TABLES)
def _chirp_layout(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct |q| over hi's rows q then lo's, and hi's and lo's flat indices into their
    exponentials at k = sign(q) j = -m/2..m/2, so each entry reads the one of its product q j."""
    block = max(q for q in range(1, math.isqrt(n) + 1) if n % q == 0)
    q = np.concatenate((np.arange(0, n, block) - n // 2, np.arange(block)))
    levels = np.array(sorted(set(np.abs(q).tolist())))
    where = np.searchsorted(levels, np.abs(q))
    index = where[:, None] * (m + 1) + m // 2 + np.sign(q)[:, None] * (np.arange(m) - m // 2)
    return levels, _frozen(index[:n // block]), _frozen(index[n // block:])


def _chirp_tables(coeff: float, rows: Grid1D, cols: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """exp(i*coeff*outer(rows.nodes(), cols.nodes())) on centred grids as two
    tables over integer centred indices: row B*q + r is hi[q] * lo[r], with B
    the largest divisor of n = rows.n up to sqrt(n), from exponentials at |q|, j >= 0 alone:
    exp(-iy) = conj exp(iy) bit for bit, so about (n/(2B) + B) n/2 of them."""
    levels, hi, lo = _chirp_layout(rows.n, cols.n)
    half = np.exp(1j * coeff * rows.dx * cols.dx * np.outer(levels, np.arange(cols.n // 2 + 1)))
    signed = np.concatenate((half[:, :0:-1].conj(), half), axis=1)
    return signed.take(hi), signed.take(lo)


def _chirp(spec: np.ndarray, tables: tuple, keep: bool = False) -> np.ndarray:
    """A shear's cross-chirp as one multiply: by a held whole table, else in place through an
    (..., n/B, B, n) view by hi then lo; `keep` leaves `spec` as it was."""
    if len(tables) == 1:
        return np.multiply(spec, tables[0], out=None if keep else spec)
    (hi, lo), spec = tables, spec.copy() if keep else spec
    view = spec.reshape(spec.shape[:-2] + hi.shape[:1] + lo.shape)
    view *= hi[:, None, :]
    view *= lo
    return view.reshape(spec.shape)


def _quarter_turns(values: np.ndarray, turns: int) -> np.ndarray:
    """Quarter turns (x, eta) -> (eta, -x) as one index map (batched) into a C-contiguous copy:
    an odd count transposes, rows (1, 2 turns) and columns (2, 3) go to index 0, n-1, ..., 1."""
    whole, neg = [(slice(None),) * 2], [(slice(0, 1),) * 2, (slice(1, None), slice(None, 0, -1))]
    if not (turns := turns % 4):
        return values
    src, out = values.swapaxes(-1, -2) if turns % 2 else values, np.empty_like(values, order="C")
    for (row, row_from), (col, col_from) in itertools.product(neg if turns < 3 else whole,
                                                              neg if turns > 1 else whole):
        out[..., row, col] = src[..., row_from, col_from]
    return out


@functools.lru_cache(maxsize=_GRID_TABLES)
def _checkerboard(rows: int, cols: int) -> np.ndarray:
    """The frame M = D (x) D of the mixed plane as a read-only table of (-1)^(i+j): by grid's
    D F D identity, in M quarter turns stay and a shear is the chirp between plain passes."""
    return _frozen(np.outer(1.0 - 2.0 * (np.arange(rows) % 2), 1.0 - 2.0 * (np.arange(cols) % 2)))


def _into_frame(values: np.ndarray) -> np.ndarray:
    """(x, p) values -> M C_eta values, up to the sign (-1)^(n/2)."""
    return _fft_pass(values * _checkerboard(*values.shape[-2:]), -1, False)


def _out_of_frame(values: np.ndarray) -> np.ndarray:
    """The inverse of _into_frame; consumes `values`."""
    return _fft_pass(values, -1, True) * _checkerboard(*values.shape[-2:])


def _move(values: np.ndarray, at: int | None, to: int | None, keep: bool) -> np.ndarray:
    """Values transformed along axis `at` (or None) -> along another axis `to` (or None)."""
    if at is not None:
        values, keep = _fft_pass(values, at, True, keep), False
    return values if to is None else _fft_pass(values, to, False, keep)


class _Plan:
    """U(theta) on one pair of centred grids: the factorization and each nonzero shear's
    (axis, read-only chirp tables) in `shears`, built once; if `held`, each chirp is expanded
    into one whole table.  `entry` is where values meet the plan with no pass: untransformed
    (None) after quarter turns, else along the first shear's axis, and along x for the identity.
    A caller that repeats an angle takes its plan from _plan."""

    def __init__(self, grid_x: Grid1D, grid_p: Grid1D, theta: float, held: bool = False):
        self.grids, self.theta, self.held = (grid_x, grid_p), theta, held
        grid_e = grid_p.dual()
        self.factorization = shear_factorization(theta, grid_x.matches(grid_e))
        along = {-2: (grid_x.dual(), grid_e), -1: (grid_x, grid_e.dual())}
        self.shears = []
        for axis, coeff in zip((-2, -1, -2), self.factorization.shears or ()):
            if coeff != 0.0:  # exp(0) = 1: a zero shear is a transform round trip and no more
                tables = _chirp_tables(coeff, *along[axis])
                if held:
                    tables = (_chirp(np.ones((grid_x.n, grid_p.n), complex), tables),)
                self.shears.append((axis, tuple(map(_frozen, tables))))
        self.entry = None if self.factorization.quarters else next((a for a, _ in self.shears), -2)

    def flow(self, values: np.ndarray, enter: int | None, leave: int | None,
             keep: bool = False) -> np.ndarray:
        """Substitute the flow at -theta into mixed values (batched) in the frame, given along axis
        `enter` (-2, -1 or None) and returned along `leave`: each shear chirps along its axis, so
        passes are made only where neighbouring shears' axes, or an end and `enter` or `leave`,
        differ; turns take untransformed values.  `keep` leaves `values` as they were."""
        out, at, turns = values, enter, self.factorization.quarters
        if turns:
            out, at = _quarter_turns(_move(out, at, None, keep), turns), None
        for axis, tables in self.shears:
            if at != axis:
                out, at = _move(out, at, axis, keep and out is values), axis
            out = _chirp(out, tables, keep and out is values)
        return out if at == leave else _move(out, at, leave, keep and out is values)

    def substitute(self, values: np.ndarray) -> np.ndarray:
        """flow's substitution on untransformed values with centred shears (_propagate_values),
        each a centred FFT along its axis, the chirp, the inverse FFT."""
        out = _quarter_turns(values, self.factorization.quarters)
        for axis, tables in self.shears:
            out = _centered_ifft(_chirp(_centered_fft(out, axis=axis), tables), axis=axis)
        return out

    def inverse(self) -> "_Plan":
        """The plan at -theta, held if this one is, from _plan."""
        return _plan(*self.grids, -self.theta, self.held)

    def lift(self, window_ft: np.ndarray,
             windows: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
        """psi (last axis) -> U(theta)(psi (x) conj(FT w)) in the spectral frame along x, for FT w =
        window_ft and, first in one batch, each state w in `windows`.  The seed (D psi) (x) row,
        row = F(D conj(FT w)), meets `entry`: at x D psi takes the pass, at eta F F = n R folds the
        row's two; a state's row is (dx/sqrt(2 pi)) (-1)^(n/2) n conj(D w), as F conj F = n conj."""
        n, dx, sign = self.grids[0].n, self.grids[0].dx, _checkerboard(1, self.grids[0].n)[0]
        row, eta = window_ft.conj() * sign, self.entry == -1
        rows = n * row[-np.arange(n)] if eta else _fft_pass(row, -1, False)
        if windows is not None:
            states = (dx / SQRT_TWO_PI) * (-1) ** (n // 2) * n * (windows * sign).conj()
            rows = np.concatenate((_fft_pass(states, -1, False) if eta else states, rows[None]))
        return lambda psi: self.flow(
            (_fft_pass(psi * sign, -1, False) if self.entry == -2 else psi * sign)[..., :, None]
            * rows[..., None, :], self.entry, -2)

    def sandwich(self, kernel_values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """v -> U (K (x) I) U* v on spectral-frame values (batched), keeping v: the inverse's flow
        leaves at `entry`, where D K D acts (as F D K D F^-1, built once, if that is x)."""
        kernel_values = kernel_values * _checkerboard(*kernel_values.shape)
        if self.entry == -2:
            kernel_values = _fft_pass(_fft_pass(kernel_values, -2, False), -1, True)
        inverse = self.inverse()
        return lambda values: self.flow(np.matmul(
            kernel_values, inverse.flow(values, -2, self.entry, keep=True)), self.entry, -2)


@functools.lru_cache(maxsize=_GRID_TABLES)
def _plan(grid_x: Grid1D, grid_p: Grid1D, theta: float, held: bool) -> _Plan:
    """_Plan(grid_x, grid_p, theta, held), built once per process for callers repeating an angle."""
    return _Plan(grid_x, grid_p, theta, held)


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
    spectral.  All of it runs in the checkerboard frame, where D commutes with
    the multipliers and each derivative is F^-1 (i k) F by plain passes.
    """
    grid_e = F.grid_p.dual()
    x, xi = F.grid_x.nodes()[:, None], grid_e.nodes()[None, :]
    mixed = _into_frame(F.values)
    dx, dxi = (_fft_pass(_fft_pass(mixed, axis, False, keep=True) * (1j * k), axis, True)
               for axis, k in ((-2, F.grid_x.dual().nodes()[:, None]),
                               (-1, grid_e.dual().nodes()[None, :])))
    h = (-2j * xi + 1j * x) * dx + (-1j * xi + 4j * x) * dxi
    return PhaseFunction2D(F.grid_x, F.grid_p, _out_of_frame(h))
