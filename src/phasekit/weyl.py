"""Operator kernels, phase-space symbols, and star products.

An operator on a periodic position grid is stored as its integral kernel:
(A psi)(x_j) = dx * sum_k K[j, k] psi(x_k), so a discrete delta spike of
height 1/dx plays the role the identity's kernel plays off the grid.  The
symbol of a kernel lives on the grid crossed with its Fourier dual and is
computed separation by separation: even diagonals are read by index at their
midpoints, which are grid points, odd ones moved back from half a sample off
by one spectral pass, and all transformed in the separation variable.  Every
step is a permutation, an FFT, or a unit-modulus multiply, so kernel_to_symbol
and symbol_to_kernel invert each other to machine precision on arbitrary data.

The star product composes kernels: a * b = kernel_to_symbol of the composed
operator.  At another angle theta the angle-theta symbol of a kernel is its
values, read as the mixed plane (x, eta), after one metaplectic substitution
(fractional_symbol, with no transform pair before it), so theta_product runs
substitution, dictionary and composition as one pipeline.  All of these, and
theta_symbol's transport, run on plain passes in the checkerboard frame.  A
brute-force phase-space quadrature (symplectic Fourier transform, twisted
convolution) certifies the kernel route on small grids with no wrapping.

Symbols of unbounded operators (position, momentum, oscillator energy) wrap
around the box edge when rendered on the grid, so they carry their
polynomial coefficients alongside the rendered values.  Products of two
tagged symbols are computed on the coefficients by the finite derivative
series, which keeps identities like the canonical commutator exact instead
of polluted by the edge wrap.  Tagged symbols quantize by McCoy's
symmetric-ordering expansion of x^i xi^j into operator words, matching the
kernel route wherever both are valid; the position operator is diagonal, so
the expansion runs on vectors and on the cached derivative powers alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .grid import (
    ConfigurationError,
    Grid1D,
    SampledFunction1D,
    SQRT_TWO_PI,
    TWO_PI,
    _fft_pass,
    fourier_1d,
)
from .metaplectic import (_GRID_TABLES, _Plan, _checkerboard, _frozen, _into_frame,
                          _out_of_frame, _plan)
from .symplectic import THETA_WIGNER
from .wigner import _is_wigner_angle

__all__ = [
    "OperatorKernel",
    "Symbol2D",
    "ExpectationResult",
    "kernel_to_symbol",
    "symbol_to_kernel",
    "fractional_symbol",
    "theta_symbol",
    "moyal_product",
    "theta_product",
    "expectation",
    "polynomial_symbol",
    "symbol_x",
    "symbol_xi",
    "symbol_oscillator",
    "mccoy_kernel",
]

QUADRATURE_MAX_N = 32
POLY_MAX_DEGREE = 4
SELF_ADJOINT_TOL = 1.0e-8


# --------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class OperatorKernel:
    """Integral kernel K of an operator acting as (A psi)(x) = dx * K @ psi."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ConfigurationError(
                f"kernel shape {vals.shape} does not match grid size {self.grid.n}"
            )
        object.__setattr__(self, "values", vals)

    def apply(self, state: SampledFunction1D) -> SampledFunction1D:
        if not state.grid.matches(self.grid):
            raise ConfigurationError("state grid does not match kernel grid")
        return SampledFunction1D(self.grid, self.grid.dx * (self.values @ state.values))

    def adjoint(self) -> "OperatorKernel":
        return OperatorKernel(self.grid, np.conj(self.values.T))

    def transpose(self) -> "OperatorKernel":
        return OperatorKernel(self.grid, self.values.T.copy())

    def compose(self, other: "OperatorKernel") -> "OperatorKernel":
        if not other.grid.matches(self.grid):
            raise ConfigurationError("cannot compose kernels on different grids")
        return OperatorKernel(self.grid, self.grid.dx * (self.values @ other.values))

    def self_adjoint_defect(self) -> float:
        return float(np.abs(self.values - np.conj(self.values.T)).max())


@dataclass(frozen=True)
class Symbol2D:
    """Phase-space symbol sampled on grid_x x grid_xi, grid_xi the dual of grid_x.

    poly, when present, holds the coefficient matrix c[i, j] of
    sum c[i, j] x**i xi**j that the values render; it marks symbols of
    polynomial growth whose grid rendering wraps at the box edge.
    """

    grid_x: Grid1D
    grid_xi: Grid1D
    values: np.ndarray
    poly: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.grid_xi.matches(self.grid_x.dual()):
            raise ConfigurationError(
                "symbol frequency grid is not the Fourier dual of its position grid"
            )
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid_x.n, self.grid_xi.n):
            raise ConfigurationError(
                f"symbol shape {vals.shape} does not match grids "
                f"({self.grid_x.n}, {self.grid_xi.n})"
            )
        object.__setattr__(self, "values", vals)
        if self.poly is not None:
            coeffs = np.ascontiguousarray(self.poly, dtype=np.complex128)
            if coeffs.ndim != 2 or not np.isfinite(coeffs).all():
                raise ConfigurationError("polynomial coefficients must be a finite 2D matrix")
            object.__setattr__(self, "poly", coeffs)

    @property
    def weight(self) -> float:
        return self.grid_x.dx * self.grid_xi.dx


@dataclass(frozen=True)
class ExpectationResult:
    """Expectation of an operator in a state, computed along two routes."""

    value: complex
    phase_value: complex
    residual: float
    self_adjoint: bool
    adjoint_value: complex | None = None


# --------------------------------------------------------------------------
# kernel <-> symbol, exact on the discrete torus


@functools.lru_cache(maxsize=_GRID_TABLES)
def _midpoint_layout(n: int) -> tuple[np.ndarray, np.ndarray, slice, np.ndarray]:
    """Flat index of an n x n kernel's midpoint samples, the half-sample vector,
    the rows of odd separation and the index transposed, the frame dictionary's
    order.  Row r reads K[(v + ceil(s/2)) % n, (v - floor(s/2)) % n] along v at
    separation s = (-r) % n - n/2, the centred order reversed (a pass over it is
    an inverse DFT): midpoint x_v + s/2 for even s, exactly, and x_v + 1/2 for
    odd s; exp(i pi k / n), k from fftfreq, on a spectrum reads it half a sample
    on, and its conjugate half back."""
    s, v = (-np.arange(n)[:, None]) % n - n // 2, np.arange(n)
    flat = _frozen((v - (-s) // 2) % n * n + (v - s // 2) % n)
    return (flat, _frozen(np.exp(1j * np.pi * np.fft.fftfreq(n))), slice(1 - n // 2 % 2, None, 2),
            _frozen(flat.T.ravel()))


def kernel_to_symbol(kernel: OperatorKernel) -> Symbol2D:
    """Symbol a(x, xi) of a kernel; exact inverse of symbol_to_kernel.

    Reads the midpoint layout: even separations sit on x_v, odd ones half a
    sample off, recentred by one pass pair along positions.  One plain pass
    over separations lands on the dual grid between the centred transform's
    signs (-1)^s (in the odd rows' multiplier) and (-1)^m n dx.
    """
    grid, (flat, half, odd, _) = kernel.grid, _midpoint_layout(kernel.grid.n)
    rows = np.take(kernel.values, flat)
    rows[odd] = _fft_pass(_fft_pass(rows[odd], -1, False) * -half.conj(), -1, True)
    spec = _fft_pass(rows, -2, True)
    spec *= grid.n * grid.dx * _checkerboard(grid.n, 1)
    return Symbol2D(grid, grid.dual(), spec.T)


def symbol_to_kernel(symbol: Symbol2D) -> OperatorKernel:
    """Kernel of a symbol; runs kernel_to_symbol backwards step by step and
    places the midpoint samples by assignment through the same index."""
    grid, (flat, half, odd, _) = symbol.grid_x, _midpoint_layout(symbol.grid_x.n)
    rows = _fft_pass(symbol.values.T * (_checkerboard(grid.n, 1) / (grid.n * grid.dx)), -2, False)
    rows[odd] = _fft_pass(_fft_pass(rows[odd], -1, False) * -half, -1, True)
    values = np.empty(flat.size, dtype=np.complex128)
    values[flat] = rows
    return OperatorKernel(grid, values.reshape(grid.n, grid.n))


def _frame_kernels(spec: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Kernels (..., n, n) of symbols on grid and its dual held in the spectral frame (xi, eta),
    up to its sign (-1)^(n/2); consumes `spec`.  eta is the layout's separation (F_c F_c = n R),
    F_x D F_x^-1 rolls by n/2: odd rows take the rolled half shift, one inverse x pass, scatter."""
    n, (_, half, odd, order) = grid.n, _midpoint_layout(grid.n)
    spec[..., odd] *= np.roll(half, n // 2)[:, None]
    values = _fft_pass(spec, -2, True)
    values *= _checkerboard(n, n) / (n * grid.dx)
    kernels = np.empty_like(values)
    for kernel, samples in zip(kernels.reshape(-1, n * n), values.reshape(-1, n * n)):
        kernel[order] = samples
    return kernels


def _frame_symbols(kernels: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The exact inverse of _frame_kernels: a gather, one forward x pass, the conjugate shift."""
    n, (_, half, odd, order) = grid.n, _midpoint_layout(grid.n)
    values = np.take(kernels.reshape(-1, n * n), order, axis=-1).reshape(kernels.shape)
    values *= _checkerboard(n, n) * (n * grid.dx)
    spec = _fft_pass(values, -2, False)
    spec[..., odd] *= np.roll(half, n // 2)[:, None].conj()
    return spec


def fractional_symbol(kernel: OperatorKernel, theta: float) -> Symbol2D:
    """Angle-theta symbol straight from the kernel.

    The kernel K(x, y) is the mixed plane (x, eta) of the propagator on grid and
    its dual, so the symbol is length * C^-1 S K: the flow's substitution S at
    theta by a plan built for it, then one inverse pass along eta, in the frame
    from M K (-1)^(n/2), with no pass pair before it.  At the special angle this
    reproduces kernel_to_symbol up to resampling error; at other angles it
    provides an independent route to theta_symbol.
    """
    grid, n = kernel.grid, kernel.grid.n
    frame = kernel.values * ((-1) ** (n // 2) * _checkerboard(n, n))
    out = _out_of_frame(_Plan(grid, grid.dual(), theta).flow(frame, None, None))
    return Symbol2D(grid, grid.dual(), grid.length * out)


def theta_symbol(symbol: Symbol2D, theta: float) -> Symbol2D:
    """Map a symbol from the standard angle to angle theta.

    At theta equal to the standard angle the input values are returned
    bit for bit.  Polynomial tags do not survive the flow (the propagator
    does not map polynomials to polynomials), so the output carries the
    tag only in the identity case.
    """
    if _is_wigner_angle(theta):
        poly = None if symbol.poly is None else symbol.poly.copy()
        return Symbol2D(symbol.grid_x, symbol.grid_xi, symbol.values.copy(), poly)
    return _transport(symbol, theta - THETA_WIGNER)


def _refuse_polynomial(symbol: Symbol2D) -> None:
    """Polynomial symbols reach the box edge, where the shears wrap them into noise."""
    if symbol.poly is not None:
        raise ConfigurationError(
            "polynomial symbols cannot be transported to another angle "
            "numerically (no decay at the box edge); work at the standard "
            "angle, where the algebraic product is exact"
        )


def _transport(symbol: Symbol2D, angle: float) -> Symbol2D:
    """Carry a decaying symbol through the propagator by `angle`, in the frame, by a fresh plan."""
    _refuse_polynomial(symbol)
    plan = _Plan(symbol.grid_x, symbol.grid_xi, angle)
    return Symbol2D(symbol.grid_x, symbol.grid_xi,
                    _out_of_frame(plan.flow(_into_frame(symbol.values), None, None)))


# --------------------------------------------------------------------------
# polynomial symbols


def _poly_trim(coeffs: np.ndarray) -> np.ndarray:
    rows = np.nonzero(np.abs(coeffs).sum(axis=1))[0]
    cols = np.nonzero(np.abs(coeffs).sum(axis=0))[0]
    if rows.size == 0 or cols.size == 0:
        return np.zeros((1, 1), dtype=np.complex128)
    return coeffs[: rows[-1] + 1, : cols[-1] + 1]


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=np.complex128)
    rows = np.add.outer(np.arange(a.shape[0]), np.arange(b.shape[0]))[:, None, :, None]
    cols = np.add.outer(np.arange(a.shape[1]), np.arange(b.shape[1]))[None, :, None, :]
    np.add.at(out, (rows, cols), np.multiply.outer(a, b))
    return out


def _moyal_poly(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Finite derivative series for the star product of two polynomials,
    sum_k (i/2)^k/k! sum_r (-1)^r C(k, r) dx^(k-r) dxi^r a * dx^r dxi^(k-r) b."""
    out = np.zeros((ca.shape[0] + cb.shape[0] - 1, ca.shape[1] + cb.shape[1] - 1),
                   dtype=np.complex128)
    # order of the last term whose derivatives can both be nonzero
    order = min(ca.shape[0], cb.shape[1]) + min(ca.shape[1], cb.shape[0]) - 2
    for k in range(order + 1):
        term = np.zeros_like(out)
        for r in range(k + 1):
            da = npoly.polyder(npoly.polyder(ca, k - r, axis=0), r, axis=1)
            db = npoly.polyder(npoly.polyder(cb, r, axis=0), k - r, axis=1)
            piece = _poly_mul(da, db) * ((-1.0) ** r * math.comb(k, r))
            term[: piece.shape[0], : piece.shape[1]] += piece
        out += term * ((0.5j) ** k / math.factorial(k))
    return _poly_trim(out)


def polynomial_symbol(coeffs: np.ndarray, grid_x: Grid1D) -> Symbol2D:
    """Symbol with declared polynomial growth, rendered on grid_x and its dual."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    if coeffs.shape[0] - 1 > POLY_MAX_DEGREE or coeffs.shape[1] - 1 > POLY_MAX_DEGREE:
        raise ConfigurationError(
            f"polynomial symbol degree exceeds {POLY_MAX_DEGREE} per variable"
        )
    grid_xi = grid_x.dual()
    # a non-finite coefficient renders to inf or nan; Symbol2D's one check refuses it
    with np.errstate(invalid="ignore", over="ignore"):
        values = npoly.polygrid2d(grid_x.nodes(), grid_xi.nodes(), coeffs)
    return Symbol2D(grid_x, grid_xi, values.astype(np.complex128), coeffs)


def symbol_x(grid: Grid1D) -> Symbol2D:
    return polynomial_symbol(np.array([[0.0], [1.0]]), grid)


def symbol_xi(grid: Grid1D) -> Symbol2D:
    return polynomial_symbol(np.array([[0.0, 1.0]]), grid)


def symbol_oscillator(grid: Grid1D) -> Symbol2D:
    coeffs = np.zeros((3, 3))
    coeffs[2, 0] = 0.5
    coeffs[0, 2] = 0.5
    return polynomial_symbol(coeffs, grid)


@functools.lru_cache(maxsize=_GRID_TABLES)
def _derivative_matrix(grid: Grid1D) -> np.ndarray:
    """P = D F^-1 (xi F D) by plain passes, D = diag((-1)^j): the centred pair's
    signs (-1)^(n/2) D meet and cancel around the diagonal xi."""
    sign = 1.0 - 2.0 * (np.arange(grid.n) % 2)
    spec = _fft_pass(np.diag(sign).astype(np.complex128), 0, False)
    spec *= grid.dual().nodes()[:, None]
    return _frozen(sign[:, None] * _fft_pass(spec, 0, True))


@functools.lru_cache(maxsize=_GRID_TABLES)
def _derivative_power(grid: Grid1D, j: int) -> np.ndarray:
    """P^j I = P (P ... (P I)) for j >= 1, where P I = P exactly."""
    dmat = _derivative_matrix(grid)
    return dmat if j == 1 else _frozen(dmat @ _derivative_power(grid, j - 1))


def mccoy_kernel(symbol: Symbol2D) -> OperatorKernel:
    """Quantize a polynomial-tagged symbol: x^i xi^j is 2^-i sum_r C(i, r)
    X^r P^j X^(i-r) on the identity, X the position multiplier, P the spectral
    derivative.  X is diagonal, so X^(i-r) I is the vector x (x ... (x 1)),
    summed on the diagonal for j = 0 and else scaling the columns of the cached
    P^j, whose rows X then scales r times: the expansion's products and sums on
    every entry they can change, in its order, so the same bits."""
    if symbol.poly is None:
        raise ConfigurationError("mccoy_kernel requires a polynomial-tagged symbol")
    grid = symbol.grid_x
    x = grid.nodes()
    powers = [np.ones(grid.n, dtype=np.complex128)]
    for _ in range(symbol.poly.shape[0] - 1):
        powers.append(x * powers[-1])
    total = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for (i, j), c in np.ndenumerate(symbol.poly):
        if c == 0:
            continue
        if j == 0:
            word = np.zeros(grid.n, dtype=np.complex128)
            for r in range(i + 1):
                word += math.comb(i, r) * powers[i]
            total.reshape(-1)[:: grid.n + 1] += c * 0.5**i * word
        elif i == 0:
            total += c * _derivative_power(grid, j)
        else:
            word = np.zeros_like(total)
            for r in range(i + 1):
                term = _derivative_power(grid, j) * powers[i - r]
                for _ in range(r):
                    term = x[:, None] * term
                word += math.comb(i, r) * term
            total += c * 0.5**i * word
    return OperatorKernel(grid, total / grid.dx)


# --------------------------------------------------------------------------
# star products


def _require_common_grids(a: Symbol2D, b: Symbol2D) -> None:
    if not (a.grid_x.matches(b.grid_x) and a.grid_xi.matches(b.grid_xi)):
        raise ConfigurationError("star product requires symbols on common grids")


def _symplectic_fourier(values: np.ndarray, grid_x: Grid1D, grid_xi: Grid1D) -> np.ndarray:
    """Self-inverse phase-space transform pairing x with the second frequency axis:
    n C_0 C_1^-1 with centred transforms, n M F_0 F_1^-1 M by plain passes, M = _checkerboard."""
    sign = _checkerboard(grid_x.n, grid_xi.n)
    step = _fft_pass(_fft_pass(values * sign, 0, False), 1, True)
    return (grid_x.n * grid_x.dx * grid_xi.dx / TWO_PI * sign * step).T


def _twisted_convolution(
    A: np.ndarray, B: np.ndarray, grid_x: Grid1D, grid_xi: Grid1D
) -> np.ndarray:
    """Half-phase-weighted convolution; no wrapping, zero outside the box."""
    n = grid_x.n
    xn = grid_x.nodes()
    xin = grid_xi.nodes()
    pad = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    half = n // 2
    pad[half : half + n, half : half + n] = B
    left = np.exp(+0.5j * np.outer(xn, xin))
    right = np.exp(-0.5j * np.outer(xn, xin))
    out = np.empty((n, n), dtype=np.complex128)
    for jp in range(n):
        rows = pad[jp + 1 : jp + 1 + n][::-1]
        for mp in range(n):
            window = rows[:, mp + 1 : mp + 1 + n][:, ::-1]
            out[jp, mp] = np.sum(A * np.outer(right[:, mp], left[jp, :]) * window)
    return (grid_x.dx * grid_xi.dx / TWO_PI) * out


def _moyal_quadrature(a: Symbol2D, b: Symbol2D) -> np.ndarray:
    if a.grid_x.n > QUADRATURE_MAX_N or a.grid_xi.n > QUADRATURE_MAX_N:
        raise ConfigurationError(
            f"quadrature star product is limited to grids of at most "
            f"{QUADRATURE_MAX_N} points per axis"
        )
    Fa = _symplectic_fourier(a.values, a.grid_x, a.grid_xi)
    Fb = _symplectic_fourier(b.values, b.grid_x, b.grid_xi)
    C = _twisted_convolution(Fa, Fb, a.grid_x, a.grid_xi)
    return _symplectic_fourier(C, a.grid_x, a.grid_xi)


def moyal_product(a: Symbol2D, b: Symbol2D, method: str | None = None) -> Symbol2D:
    """Star product of two symbols at the standard angle.

    method None picks the coefficient series when both symbols carry
    polynomial tags and the kernel route otherwise.  "kernel" composes the
    operators behind the symbols (exact on the grid).  "quadrature" runs the
    brute-force phase-space integral on small grids to certify the kernel
    route; it ignores polynomial tags.
    """
    _require_common_grids(a, b)
    if method is None:
        method = "algebraic" if (a.poly is not None and b.poly is not None) else "kernel"
    if method == "algebraic":
        if a.poly is None or b.poly is None:
            raise ConfigurationError(
                "algebraic star product requires polynomial tags on both symbols"
            )
        coeffs = _moyal_poly(a.poly, b.poly)
        values = npoly.polygrid2d(a.grid_x.nodes(), a.grid_xi.nodes(), coeffs)
        return Symbol2D(a.grid_x, a.grid_xi, values.astype(np.complex128), coeffs)
    if method == "kernel":
        ka = symbol_to_kernel(a)
        kb = symbol_to_kernel(b)
        return kernel_to_symbol(ka.compose(kb))
    if method == "quadrature":
        return Symbol2D(a.grid_x, a.grid_xi, _moyal_quadrature(a, b))
    raise ConfigurationError(f"unknown star product method {method!r}")


def theta_product(
    a: Symbol2D, b: Symbol2D, theta: float, method: str | None = None
) -> Symbol2D:
    """Star product of two angle-theta symbols, returned at the same angle.

    Pulls both factors back to the standard angle, multiplies there, and
    pushes the result forward; the kernel route is one pipeline in the
    checkerboard frame, one plan on grid_x and its dual pulls both factors
    and its inverse pushes the product; both come from the plan cache, so a
    repeated angle builds neither again.  Where propagator and dictionary
    meet, F_c F_c = n R is the layout's order R and each x pass pair folds.
    At the standard angle itself it is moyal_product, bit for bit.
    """
    _require_common_grids(a, b)
    if _is_wigner_angle(theta):
        return moyal_product(a, b, method=method)
    back = THETA_WIGNER - theta
    _refuse_polynomial(a)
    _refuse_polynomial(b)
    if method == "quadrature":
        return _transport(moyal_product(_transport(a, back), _transport(b, back),
                                        method=method), -back)
    if method == "algebraic":
        moyal_product(a, b, method=method)  # both factors are untagged here: it refuses
    if method not in (None, "kernel"):
        raise ConfigurationError(f"unknown star product method {method!r}")
    grid = a.grid_x
    pull = _plan(grid, grid.dual(), back, False)
    spec = pull.flow(_into_frame(np.stack((a.values, b.values))), None, -2)
    # each factor's sign (-1)^(n/2) cancels in the product, composed as OperatorKernel.compose
    kernels = _frame_kernels(spec, grid)
    spec = _frame_symbols((-1) ** (grid.n // 2) * grid.dx * np.matmul(*kernels), grid)
    return Symbol2D(grid, grid.dual(), _out_of_frame(pull.inverse().flow(spec, -2, None)))


# --------------------------------------------------------------------------
# expectation values


def _self_adjoint(kernel: OperatorKernel) -> tuple[bool, float]:
    """Whether the kernel is conj-symmetric within SELF_ADJOINT_TOL * max(1, max|K|),
    and its defect."""
    defect = kernel.self_adjoint_defect()
    return defect <= SELF_ADJOINT_TOL * max(1.0, float(np.abs(kernel.values).max())), defect


def _operator_kernel(op: OperatorKernel | Symbol2D) -> OperatorKernel:
    if isinstance(op, OperatorKernel):
        return op
    if isinstance(op, Symbol2D):
        if op.poly is not None:
            return mccoy_kernel(op)
        return symbol_to_kernel(op)
    raise ConfigurationError(f"expected OperatorKernel or Symbol2D, got {type(op)!r}")


def expectation(
    op: OperatorKernel | Symbol2D,
    state: SampledFunction1D,
    theta: float = THETA_WIGNER,
) -> ExpectationResult:
    """Expectation of an operator in a state, with a phase-space cross-check.

    The reference value is the kernel action (A psi, psi).  The cross-check pairs the
    angle-theta symbol of the adjoint operator, conjugated, against the angle-theta
    phase-space distribution of the state; by unitarity of the angle flow the pairing is
    independent of theta.  Both sides stay in the spectral frame under cached plans: the
    adjoint's frame dictionary symbol flowed by theta - THETA_WIGNER, and the plan's rank-one
    lift of psi against itself as window (_Plan.lift) at theta; Parseval pairs them, with the
    dictionary's sign (-1)^(n/2).  The angle is refused before any other work.  A kernel that
    is not conj-symmetric within SELF_ADJOINT_TOL triggers a warning and the result also
    reports (psi, A psi).
    """
    lift, push = (_plan(state.grid, state.grid.dual(), angle, False)  # at 0 the identity
                  for angle in (theta, 0.0 if _is_wigner_angle(theta) else theta - THETA_WIGNER))
    kernel = _operator_kernel(op)
    if not state.grid.matches(kernel.grid):
        raise ConfigurationError("state grid does not match operator grid")
    value = kernel.apply(state).inner(state)
    self_adjoint, defect = _self_adjoint(kernel)
    if not self_adjoint:
        warnings.warn(f"kernel deviates from self-adjointness by {defect:.3e}; "
                      "reporting both pairings", stacklevel=2)
    adjoint_value = None if self_adjoint else state.inner(kernel.adjoint().apply(state))
    n = kernel.grid.n
    adj = push.flow(_frame_symbols(kernel.adjoint().values, kernel.grid), -2, -2)
    dist = lift.lift(fourier_1d(state).values)(state.values)
    # dx dxi / (sqrt(2 pi) n^2) = sqrt(2 pi) / n^3: Parseval's n^2 and the distribution's prefactor
    phase_value = complex(np.vdot(adj, dist) * ((-1) ** (n // 2) * SQRT_TWO_PI / n**3))
    residual = abs(value - phase_value) / max(1.0, abs(value))
    return ExpectationResult(complex(value), phase_value, float(residual), bool(self_adjoint),
                             None if adjoint_value is None else complex(adjoint_value))
