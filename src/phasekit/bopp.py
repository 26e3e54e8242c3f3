"""Phase-space operator representations and the two-picture test harness.

An operator on states extends to phase-space functions by letting its kernel
act along the position axis only, with the momentum coordinate riding along
as a spectator.  Conjugating that extension by the angle-THETA_WIGNER
propagator produces the Bopp operators, generated by x + (i/2) d/dp and
p - (i/2) d/dx; the left star product Phi -> a * Phi of deformation
quantization is the same operator by a second route, for every symbol.

The zero-angle analysis transform psi -> psi (x) conj(FT window) carries the
state picture into the extended picture, so the angle-THETA_WIGNER windowed
transform carries it into the conjugated one.  For an orthonormal window
family these lifts are unitary, so the phase-plane spectrum is the 1D
spectrum with each level repeated once per window.  The spectral report
takes the 1D eigensolve and certifies every level by the residuals of its
lifts; the paired evolution runs the same initial data in both pictures,
the phase side by a Lanczos exponential.  One batched map per realization
(_action) serves apply, the residuals, the evolution and dense_matrix in the
x-transform of metaplectic's checkerboard frame, where both harnesses lift,
measure and evolve.  The extension is the conjugation with the identity for
U(THETA_WIGNER), so its map and the Bopp ones are one held plan's sandwich
U (K (x) I) U* and all lifts its lift (_held_plan; metaplectic's plan cache
builds it once per process).  The harnesses' one preamble (_harness) refuses
grids above DENSE_MAX_N points per axis, takes that plan and runs the eigensolve.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SampledFunction1D,
    _fft_pass,
)
# _propagate_values is unused here: perfbench's tracer test asserts the span wrapped at this binding
from .metaplectic import _Plan, _into_frame, _out_of_frame, _plan, _propagate_values  # noqa: F401
from .symplectic import THETA_WIGNER
from .weyl import (
    OperatorKernel,
    Symbol2D,
    _frame_kernels,
    _frame_symbols,
    _operator_kernel,
    _self_adjoint,
)
from .wigner import Window, windowed_transform

__all__ = ["PhaseOperator", "SpectralReport", "EvolutionResult", "bopp_intertwining_residual",
           "dense_matrix", "bopp_spectrum", "evolve_pair"]

REPRESENTATIONS = ("extended", "bopp_conjugated", "bopp_direct")
DENSE_MAX_N = 64
_DENSE_CHUNK = 512
PAIRING_GAP = 1.0e-4
_RESIDUAL_FLOOR = 1.0e-12
_KRYLOV_TOL = 1.0e-14
_KRYLOV_MAX_DIM = 128
_KRYLOV_CHECK = 4  # eigh(T_39) > 2 actions at n=32 (120-165 vs 50-65 us); <= 3 actions wasted


# --------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class PhaseOperator:
    """A 1D symbol together with the phase-plane realization to use for it.

    extended         kernel along x, momentum as spectator
    bopp_conjugated  extended action conjugated by the angle-THETA_WIGNER flow
    bopp_direct      left star product by the symbol, through the kernel dictionary
    """

    symbol: Symbol2D
    representation: str = "bopp_conjugated"

    def __post_init__(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(f"representation must be one of {REPRESENTATIONS}, "
                                     f"got {self.representation!r}")

    def kernel(self) -> OperatorKernel:
        return _operator_kernel(self.symbol)

    def apply(self, phase: PhaseFunction2D) -> PhaseFunction2D:
        if not phase.grid_x.matches(self.symbol.grid_x):
            raise ConfigurationError(
                "phase function's position grid does not match the operator grid")
        if self.representation == "bopp_direct" and not phase.grid_p.matches(self.symbol.grid_xi):
            raise ConfigurationError("bopp_direct acts on functions over the symbol's own grids")
        values = _in_plane(_action(self, phase.grid_x, phase.grid_p), phase.values)
        return PhaseFunction2D(phase.grid_x, phase.grid_p, values)


@dataclass(frozen=True)
class SpectralReport:
    """Clustered low spectrum of a phase-plane operator, lifted from 1D.

    Clusters are gap-separated runs of the 1D spectrum (reference_eigenvalues,
    ascending).  eigenvalues hold each cluster's mean, multiplicities n times
    its member count.  residuals are the worst ||A Phi - lambda_m Phi|| / ||Phi||
    over the lifts Phi of each member m against all n 1D eigenstates as
    windows.  pairing maps cluster index -> the member nearest its mean, and
    pushforward_residuals give that member's residual lifted against the
    caller's window.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray
    pairing: dict[int, int]
    reference_eigenvalues: np.ndarray
    pushforward_residuals: np.ndarray
    gap: float


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of evolving the same data in the state and phase pictures.

    divergence is the largest checkpoint value of ||Phi - W psi|| / ||Phi||;
    norm drifts are per unit time, measured against the initial norms.
    krylov_dims holds the Lanczos basis dimension of each phase segment.
    """

    state: SampledFunction1D
    phase: PhaseFunction2D
    divergence: float
    state_norm_drift: float
    phase_norm_drift: float
    times: np.ndarray
    divergences: np.ndarray
    krylov_dims: tuple[int, ...]


# --------------------------------------------------------------------------
# applying the three realizations


def _held_plan(op: PhaseOperator, grid_x: Grid1D, grid_p: Grid1D) -> _Plan:
    """The held plan at op's lift angle: THETA_WIGNER, or for extended the identity at 0."""
    return _plan(grid_x, grid_p, 0.0 if op.representation == "extended" else THETA_WIGNER, True)


def _in_plane(action: Callable[[np.ndarray], np.ndarray], values: np.ndarray) -> np.ndarray:
    """A spectral-frame map on (x, p) values, between the crossings in and out (2 passes each)."""
    return _out_of_frame(_fft_pass(action(_fft_pass(_into_frame(values), -2, False)), -2, True))


def _action(op: PhaseOperator, grid_x: Grid1D, grid_p: Grid1D,
            kernel_values: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """The operator's map on raw (..., n, n) values in the spectral frame (xi, eta), F_x of the
    mixed plane (x, eta), eta p's dual, in the checkerboard frame M; it keeps its argument.  With
    K = kernel_values (default dx times the kernel), bopp_direct composes K with the values'
    kernel (weyl's frame dictionary, 2 passes); the others are the held plan's sandwich of K."""
    if kernel_values is None:
        kernel_values = grid_x.dx * op.kernel().values
    if op.representation == "bopp_direct":
        return lambda v: _frame_symbols(kernel_values @ _frame_kernels(v.copy(), grid_x), grid_x)
    return _held_plan(op, grid_x, grid_p).sandwich(kernel_values)


def bopp_intertwining_residual(
    symbol: Symbol2D,
    psi: SampledFunction1D,
    window: Window,
    representation: str = "bopp_conjugated",
) -> float:
    """Relative defect of carrying the 1D action through the windowed lift.

    Compares the phase-plane action on the lift of psi with the lift of the
    1D kernel action on psi, using the lift that matches the representation
    (zero angle for extended, THETA_WIGNER for the Bopp realizations).  When
    the lifted reference is numerically zero the absolute defect is returned
    instead, with a warning.
    """
    op = PhaseOperator(symbol, representation)
    kernel = op.kernel()
    if not psi.grid.matches(kernel.grid):
        raise ConfigurationError("state grid does not match the operator grid")
    if not psi.grid.matches(window.grid):
        raise ConfigurationError("state and window live on different grids")
    # the windowed lifts of psi and K psi, checked against the action in the frame
    plane, angle = (psi.grid, psi.grid.dual()), _held_plan(op, psi.grid, psi.grid.dual()).theta
    lift, lifted = (windowed_transform(state, window, angle).values
                    for state in (psi, kernel.apply(psi)))
    pushed = _in_plane(_action(op, *plane, psi.grid.dx * kernel.values), lift)
    defect, scale = (PhaseFunction2D(*plane, v).norm() for v in (pushed - lifted, lifted))
    if scale <= _RESIDUAL_FLOOR * max(1.0, psi.norm()):
        warnings.warn("lifted reference is numerically zero; returning the absolute "
                      "intertwining defect", stacklevel=2)
        return float(defect)
    return float(defect / scale)


# --------------------------------------------------------------------------
# dense assembly and spectra


def _plane_grid(op: PhaseOperator) -> Grid1D:
    """The operator's position grid, refused above DENSE_MAX_N points."""
    grid = op.symbol.grid_x
    if grid.n > DENSE_MAX_N:
        raise ConfigurationError(f"dense assembly is capped at {DENSE_MAX_N} points per axis, "
                                 f"got {grid.n}")
    return grid


def dense_matrix(op: PhaseOperator) -> np.ndarray:
    """Assemble the phase-plane operator as a dense matrix.

    The phase plane is the symbol's position grid crossed with its dual;
    functions are vectorized row-major (position index major).  Columns are
    images of the standard basis, computed in batches, so the matrix is
    exactly the operator that apply() implements.  Capped at DENSE_MAX_N
    points per axis to keep the n^2 x n^2 result at desk scale.
    """
    grid = _plane_grid(op)
    action, n = _action(op, grid, grid.dual()), grid.n
    matrix = np.empty((n * n, n * n), dtype=np.complex128)
    for start in range(0, n * n, _DENSE_CHUNK):
        stop = min(start + _DENSE_CHUNK, n * n)
        basis = np.eye(stop - start, n * n, start, dtype=np.complex128).reshape(-1, n, n)
        matrix[:, start:stop] = _in_plane(action, basis).reshape(stop - start, n * n).T
    return matrix


def _require_count(name: str, value: int) -> None:
    # bool is an Integral; 2.5 or True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be an integer of at least 1, got {value!r}")


def _harness(symbol: Symbol2D, representation: str, window: Window, given: Grid1D, what: str,
             mismatch: str):
    """Both harnesses' preamble: the operator and kernel, refused unless self-adjoint, on the
    caller's `given` grid (else `mismatch`) and within DENSE_MAX_N points; the held plan, whose
    lift carries states into the frame; the symmetrized 1D operator h = dx (K + K^H)/2, eigh."""
    op = PhaseOperator(symbol, representation)
    kernel = op.kernel()
    self_adjoint, defect = _self_adjoint(kernel)
    if not self_adjoint:
        raise ConfigurationError(f"{what} requires a self-adjoint operator; kernel deviates "
                                 f"from conj-symmetry by {defect:.3e}")
    if not given.matches(kernel.grid):
        raise ConfigurationError(mismatch)
    grid = _plane_grid(op)  # refused above the cap
    if not grid.matches(window.grid):
        raise ConfigurationError("state and window live on different grids")
    h = grid.dx * kernel.values
    h = (h + h.conj().T) / 2.0
    return op, kernel, _held_plan(op, grid, grid.dual()), h, *np.linalg.eigh(h)


def _cluster(values: np.ndarray, gap: float) -> list[slice]:
    """Split an ascending eigenvalue list into gap-separated clusters."""
    edges = [0, *(np.nonzero(np.diff(values) > gap)[0] + 1), values.size]
    return [slice(int(a), int(b)) for a, b in zip(edges, edges[1:])] if values.size else []


def bopp_spectrum(
    symbol: Symbol2D,
    count: int,
    window: Window,
    representation: str = "bopp_conjugated",
    gap: float = PAIRING_GAP,
) -> SpectralReport:
    """Low spectrum of the phase-plane operator, lifted from the 1D one.

    Clusters the 1D spectrum and lifts each member eigenstate psi_m against
    every 1D eigenstate psi_j as window, Phi_mj = U(angle)(psi_m (x)
    conj(FT psi_j)) at the angle matching the representation.  Those
    windows are orthonormal, so the lifts span n copies of each level; a
    cluster's residual is the worst ||A Phi_mj - lambda_m Phi_mj|| / ||Phi_mj||
    under the unsymmetrized realization, which witnesses both the
    intertwining and how far the realization is from self-adjoint.  The
    pushforward residual is the same measure for the paired member lifted
    against the caller's window, which rides in each member's batch.
    """
    _require_count("count", count)
    if not (math.isfinite(gap) and gap >= 0):
        raise ConfigurationError(f"gap must be finite and nonnegative, got {gap}")
    op, kernel, plan, _, ref_vals, ref_vecs = _harness(
        symbol, representation, window, window.grid, "the spectral harness",
        "window grid does not match the operator grid")
    grid, ref_vecs = kernel.grid, ref_vecs / math.sqrt(kernel.grid.dx)
    clusters = _cluster(ref_vals, gap)
    if len(clusters) < count:
        raise ConfigurationError(f"requested {count} eigenvalue clusters but the spectrum has "
                                 f"only {len(clusters)} at gap {gap:.1e}")
    clusters = clusters[:count]

    action = _action(op, grid, grid.dual(), grid.dx * kernel.values)
    lift = plan.lift(window.transform.values, ref_vecs.T)  # the n eigenstates, then the caller's

    def lift_residuals(m: int) -> np.ndarray:
        lifts = lift(ref_vecs[:, m])
        defect = action(lifts) - ref_vals[m] * lifts
        return np.linalg.norm(defect, axis=(-2, -1)) / np.linalg.norm(lifts, axis=(-2, -1))

    eigenvalues = np.array([float(ref_vals[c].mean()) for c in clusters])
    multiplicities = np.array([grid.n * (c.stop - c.start) for c in clusters])
    pairing = {k: c.start + int(np.argmin(np.abs(ref_vals[c] - eigenvalues[k])))
               for k, c in enumerate(clusters)}
    member_residuals = {m: lift_residuals(m) for c in clusters for m in range(c.start, c.stop)}
    residuals = np.array([max(float(member_residuals[m][:-1].max())
                              for m in range(c.start, c.stop)) for c in clusters])
    pushforward = np.array([float(member_residuals[pairing[k]][-1]) for k in range(count)])
    return SpectralReport(eigenvalues, multiplicities, residuals, pairing, ref_vals, pushforward,
                          gap)


# --------------------------------------------------------------------------
# paired evolution


def _krylov_evolve(
    action: Callable[[np.ndarray], np.ndarray], start: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """exp(-i t A) start at each ascending time (rows), A Hermitian.

    A fully reorthogonalized Lanczos basis grows until Saad's estimate is below _KRYLOV_TOL
    at every remaining time, checked at every _KRYLOV_CHECK-th vector, _KRYLOV_MAX_DIM and
    beta = 0; the first skipped dimension to certify then wins, as growth keeps T_j, beta_j
    and basis[:j].  At _KRYLOV_MAX_DIM it restarts from the furthest certified time, or a
    halved sub-step if none is.  Also returns the basis dimension of each segment.
    """

    def fit(j: int) -> tuple:
        """j, T_j's eigenvalues lam and weights, exp(-i tau T_j) e_1 = weights @ exp(-i tau lam),
        beta_j, and tol: below about eps beta sum|weights[-1]| the estimate is rounding."""
        lam, q = np.linalg.eigh(tri[:j, :j])
        weights = q * q[0]
        return j, lam, weights, tri[j, j - 1], max(
            _KRYLOV_TOL, np.finfo(float).eps * tri[j, j - 1] * np.abs(weights[-1]).sum())

    def estimate(tau: np.ndarray, fitted: tuple) -> np.ndarray:
        """beta_m |e_m^T exp(-i tau T_m) e_1| of a fit, adding e_m^T e_1 = [m == 1] exactly."""
        m, lam, weights, beta, _ = fitted
        return beta * np.abs(weights[-1] @ np.expm1(-1j * np.outer(lam, tau)) + (m == 1))

    out = np.empty((times.size, start.size), dtype=np.complex128)
    basis = np.empty((_KRYLOV_MAX_DIM, start.size), dtype=np.complex128)
    tri = np.zeros((_KRYLOV_MAX_DIM + 1, _KRYLOV_MAX_DIM + 1))
    dims, origin, vector, k = [], 0.0, start, 0
    while k < times.size:
        norm = float(np.linalg.norm(vector))
        basis[0] = vector / (norm or 1.0)
        taus = times[k:] - origin
        for size in range(1, _KRYLOV_MAX_DIM + 1):
            w = action(basis[size - 1])
            tri[size - 1, size - 1] = np.vdot(basis[size - 1], w).real
            for _ in range(2):
                w = w - basis[:size].T @ (basis[:size] @ w.conj()).conj()
            tri[size, size - 1] = tri[size - 1, size] = np.linalg.norm(w)
            if size % _KRYLOV_CHECK == 0 or size == _KRYLOV_MAX_DIM or not tri[size, size - 1]:
                found = fit(size)
                certified = estimate(taus, found) < found[-1]
                if certified.all():
                    skipped = map(fit, range(size - (size - 1) % _KRYLOV_CHECK, size))
                    found = next((f for f in skipped if (estimate(taus, f) < f[-1]).all()), found)
                if certified.all() or size == _KRYLOV_MAX_DIM:
                    break
            basis[size] = w / tri[size, size - 1]
        m, lam, weights, _, tol = found
        dims.append(m)
        reach = taus.size if certified.all() else int(np.argmin(certified))
        step = taus[:max(reach, 1)]
        while not reach and estimate(step, found)[0] >= tol:
            step = step / 2.0
        ends = norm * ((weights @ np.exp(-1j * np.outer(lam, step))).T @ basis[:m])
        out[k:k + reach], vector, k = ends[:reach], ends[-1], k + reach
        origin = times[k - 1] if reach else origin + step[0]
    return out, dims


def evolve_pair(
    symbol: Symbol2D,
    psi0: SampledFunction1D,
    window: Window,
    t_final: float,
    steps: int,
    representation: str = "bopp_conjugated",
) -> EvolutionResult:
    """Evolve i d/dt = (operator) in both pictures and compare along the way.

    The state picture evolves under the symmetrized 1D kernel by its n x n
    eigendecomposition.  The phase picture starts from the windowed lift
    and evolves under the realization built from that same kernel by a
    restarted Lanczos exponential over the matrix-free action, which draws
    no random numbers; it starts from the first of one batch of lifts, of psi0
    and the state checkpoints, all in the frame, where the checkpoints are
    compared; only the returned phase leaves it.  Grids above DENSE_MAX_N
    points per axis are refused, as in bopp_spectrum.  The divergence is the
    worst checkpoint value of ||Phi - W psi|| / ||Phi||.
    """
    _require_count("steps", steps)
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ConfigurationError(f"t_final must be finite and nonnegative, got {t_final}")
    op, kernel, plan, h, vals, vecs = _harness(
        symbol, representation, window, psi0.grid, "paired evolution",
        "initial state grid does not match the operator")
    grid, n = kernel.grid, kernel.grid.n
    times = np.linspace(0.0, t_final, steps + 1)
    coeffs = vecs.conj().T @ psi0.values
    states = (vecs @ (np.exp(-1j * np.outer(vals, times)) * coeffs[:, None])).T

    lifts = plan.lift(window.transform.values)(np.concatenate((psi0.values[None], states)))
    action = _action(op, grid, grid.dual(), h)
    # a unitary change of basis leaves Lanczos unchanged: run it in the frame
    mixed, dims = _krylov_evolve(lambda v: action(v.reshape(n, n)).reshape(-1),
                                 lifts[0].reshape(-1), times)
    # in the frame a norm is n times the plane's
    weight = math.sqrt(grid.dx * grid.dual().dx) / n
    phase_norms = np.linalg.norm(mixed, axis=1) * weight
    divergences = (np.linalg.norm(mixed - lifts[1:].reshape(times.size, -1), axis=1) * weight
                   / np.maximum(phase_norms, _RESIDUAL_FLOOR))
    later = times > 0
    drifts = [float(np.max(np.abs(v[later] - v[0]) / times[later], initial=0.0))
              for v in (np.linalg.norm(states, axis=1) * math.sqrt(grid.dx), phase_norms)]
    phase = _out_of_frame(_fft_pass(mixed[-1].reshape(n, n), -2, True))  # consumes mixed[-1]
    state, phase = SampledFunction1D(grid, states[-1]), PhaseFunction2D(grid, grid.dual(), phase)
    return EvolutionResult(state, phase, float(divergences.max()), *drifts, times, divergences,
                           tuple(dims))
