"""Reference implementations that tests compare the package against, and
the small constructions only tests use."""

from __future__ import annotations

import math
from array import array
from typing import Callable

import numpy as np

from phasekit import states
from phasekit.bopp import _KRYLOV_MAX_DIM, _KRYLOV_TOL, PhaseOperator
from phasekit.grid import (Grid1D, PhaseFunction2D, SampledFunction1D, _centered_fft, _centered_ifft,
                           _spectral_step)
from phasekit.gridfile import FileFormatError
from phasekit.metaplectic import QUARTER_TURN, ShearFactorization, _propagate_values
from phasekit.symplectic import SYMPLECTIC_J, THETA_WIGNER, flow_matrix
from phasekit.weyl import (
    OperatorKernel,
    Symbol2D,
    _transport,
    kernel_to_symbol,
    moyal_product,
    symbol_to_kernel,
    theta_symbol,
)
from phasekit.wigner import wigner_fractional

#: Generator matrix G = dM/dtheta at theta = 0 (Hamilton equations).
GENERATOR = np.array(
    [
        [-1.0, 0.0, 0.0, 2.0],
        [0.0, -1.0, 2.0, 0.0],
        [0.0, -4.0, 1.0, 0.0],
        [-4.0, 0.0, 0.0, 1.0],
    ]
)


def hamiltonian_value(z) -> float:
    """H(z) = 2*xi_x*xi_p - x*xi_x - p*xi_p + 4*x*p."""
    x, p, xi_x, xi_p = np.asarray(z, dtype=float)
    return float(2.0 * xi_x * xi_p - x * xi_x - p * xi_p + 4.0 * x * p)


def symplectic_form(z, w) -> float:
    """sigma(z, w) = xi_x*x' + xi_p*p' - xi_x'*x - xi_p'*p."""
    return float(np.asarray(z, dtype=float) @ SYMPLECTIC_J @ np.asarray(w, dtype=float))


def level_invariants(z) -> tuple[float, float]:
    """The two quadratics conserved by the flow, one per mixed plane."""
    x, p, xi_x, xi_p = np.asarray(z, dtype=float)
    return (
        float(2.0 * x * x + xi_p * xi_p - x * xi_p),
        float(2.0 * p * p + xi_x * xi_x - p * xi_x),
    )


def apply_flow(theta: float, z) -> np.ndarray:
    return flow_matrix(theta) @ np.asarray(z, dtype=float)


def random_phase_wave(grid_x: Grid1D, grid_p: Grid1D,
                      rng: np.random.Generator) -> PhaseFunction2D:
    """Unit-norm random combination of the first 4 x 4 Hermite tensor
    products on the phase grid."""
    modes = 4
    hx = [states.hermite(grid_x, m).values for m in range(modes)]
    hp = [states.hermite(grid_p, m).values for m in range(modes)]
    coeff = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    values = np.zeros((grid_x.n, grid_p.n), dtype=np.complex128)
    for a in range(modes):
        for b in range(modes):
            values += coeff[a, b] * np.outer(hx[a], hp[b])
    F = PhaseFunction2D(grid_x, grid_p, values)
    F.values /= F.norm()
    return F


def identity_kernel(grid: Grid1D) -> OperatorKernel:
    """The identity's kernel: a discrete delta of height 1/dx."""
    return OperatorKernel(grid, np.eye(grid.n, dtype=np.complex128) / grid.dx)


def factorization_matrix(fac: ShearFactorization) -> np.ndarray:
    """The 2x2 map a factorization stands for: its quarter turns, then its
    three shears, composed left to right."""
    M = np.linalg.matrix_power(QUARTER_TURN, fac.quarters)
    if fac.shears is not None:
        b, c, d = fac.shears
        M = M @ [[1.0, b], [0.0, 1.0]] @ [[1.0, 0.0], [c, 1.0]] @ [[1.0, d], [0.0, 1.0]]
    return M


def parse_csv_per_line(lines: list[str], shape: tuple[int, ...]) -> np.ndarray:
    """The CSV payload reader that the C-parser read replaced: each line is
    split and converted by Python's int and float, into flat buffers, then the
    whole-column checks run; errors name the first faulty physical line."""
    ndim = len(shape)
    want = ndim + 2
    # one parse per line into flat buffers: row-major indices, interleaved
    # (re, im) doubles, and the line number of each row
    indices, pairs, linenos = array("q"), array("d"), array("q")
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != want:
            raise FileFormatError(f"line {lineno}: expected {want} comma-separated "
                                  f"fields, got {len(parts)}")
        try:
            idx = [int(p) for p in parts[:ndim]]
            pairs.append(float(parts[-2]))
            pairs.append(float(parts[-1]))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
        try:
            indices.extend(idx)
        except OverflowError:
            # past int64, so past every shape whose rows a file can hold
            raise FileFormatError(f"line {lineno}: index {tuple(idx)} outside "
                                  f"shape {shape}") from None
        linenos.append(lineno)

    rows = len(linenos)
    index = np.frombuffer(indices, dtype=np.int64).reshape(rows, ndim)
    values = np.frombuffer(pairs, dtype=np.complex128)
    outside = np.zeros(rows, dtype=bool)
    for axis, n in enumerate(shape):
        outside |= (index[:, axis] < 0) | (index[:, axis] >= n)
    # a stable sort puts each repeat after its first occurrence
    order = np.lexsort(index.T[::-1])
    ordered = index[order]
    repeat = np.zeros(rows, dtype=bool)
    repeat[order[1:]] = (ordered[1:] == ordered[:-1]).all(axis=1)
    bad = outside | repeat | ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad))
        lineno, idx = linenos[row], tuple(int(i) for i in index[row])
        if outside[row]:
            raise FileFormatError(f"line {lineno}: index {idx} outside shape {shape}")
        if repeat[row]:
            raise FileFormatError(f"line {lineno}: index {idx} appears twice")
        raise FileFormatError(f"line {lineno}: value is not finite")
    size = math.prod(shape)
    if rows != size:
        raise FileFormatError(f"payload incomplete: {size - rows} of {size} "
                              "entries missing")
    out = np.empty(size, dtype=np.complex128)
    out[np.ravel_multi_index(tuple(index.T), shape)] = values
    return out.reshape(shape)


def count_calls(monkeypatch, module, names: tuple[str, ...]) -> list[str]:
    """Record the name of every call of module.<name>, for each name, made
    from now on."""
    calls: list[str] = []
    for name in names:
        inner = getattr(module, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_fft_passes(monkeypatch) -> list[str]:
    """Record the name of every scipy.fft.fft/ifft call made from now on,
    which is every FFT pass the package makes."""
    import scipy.fft

    return count_calls(monkeypatch, scipy.fft, ("fft", "ifft"))


def _symmetric_expand(coeffs: np.ndarray, start: np.ndarray, x_act, p_act) -> np.ndarray:
    """Symmetric-ordered polynomial in two operators, applied to `start`.

    Each monomial x^i xi^j becomes 2^{-i} sum_r C(i, r) X^r P^j X^{i-r},
    applied right to left by the callables x_act(term) and p_act(term, j) for
    P^j, j >= 1: the dense expansion mccoy_kernel ran on the identity before
    it skipped the entries a diagonal X leaves zero.
    """
    total = np.zeros_like(start, dtype=np.complex128)
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            c = coeffs[i, j]
            if c == 0:
                continue
            word = np.zeros_like(total)
            for r in range(i + 1):
                term = np.asarray(start, dtype=np.complex128)
                for _ in range(i - r):
                    term = x_act(term)
                if j:
                    term = p_act(term, j)
                for _ in range(r):
                    term = x_act(term)
                word += math.comb(i, r) * term
            total += c * 0.5**i * word
    return total


def _momentum_action(values: np.ndarray, grid_x: Grid1D, grid_p: Grid1D) -> np.ndarray:
    """p - (i/2) d/dx on raw (x, p) value arrays (batchable over leading axes)."""
    out = grid_p.nodes() * values
    return out + _spectral_step(values, 0.5 * grid_x.dual().nodes()[:, None], axis=-2)


def generator_word_oracle(symbol: Symbol2D, grid_x: Grid1D, grid_p: Grid1D):
    """The map on (x, p) values of the symmetric-ordered word in x + (i/2) d/dp,
    the spectral step along p, and p - (i/2) d/dx, for a polynomial-tagged
    symbol: the second route to the Bopp operator that the left star product
    replaced, wrapping at the box edge where the generators do."""
    eta = grid_p.dual().nodes()

    def position(v):
        return grid_x.nodes()[:, None] * v + _spectral_step(v, -0.5 * eta, axis=-1)

    def momentum(v, power):
        for _ in range(power):
            v = _momentum_action(v, grid_x, grid_p)
        return v

    return lambda values: _symmetric_expand(symbol.poly, values, position, momentum)


def plane_action_oracle(op: PhaseOperator, grid_x: Grid1D, grid_p: Grid1D,
                        kernel_values: np.ndarray | None = None):
    """The operator's map on (x, p) values as each realization reads in
    the plane itself: K @ v for extended, the propagator sandwich
    U(THETA_WIGNER) (K @ U(-THETA_WIGNER) v) for bopp_conjugated, and for
    bopp_direct the dictionary sandwich kernel_to_symbol(K o symbol_to_kernel(v)),
    one batch member at a time, v read as a symbol on grid_x and its dual."""
    if kernel_values is None:
        kernel_values = grid_x.dx * op.kernel().values
    if op.representation == "bopp_direct":
        def left_product(v):
            kernel = symbol_to_kernel(Symbol2D(grid_x, grid_p, v))
            return kernel_to_symbol(OperatorKernel(grid_x, kernel_values @ kernel.values)).values

        def sandwich(values):
            members = values.reshape(-1, *values.shape[-2:])
            return np.stack([left_product(v) for v in members]).reshape(values.shape)

        return sandwich
    if op.representation == "extended":
        return lambda values: kernel_values @ values
    return sandwich_oracle(kernel_values, grid_x, grid_p, THETA_WIGNER)


def sandwich_oracle(kernel_values: np.ndarray, grid_x: Grid1D, grid_p: Grid1D, theta: float):
    """The propagator sandwich U(theta) (K (x) I) U(-theta) on (x, p) values, K acting along
    x, by the centred propagator on both sides."""
    return lambda values: _propagate_values(
        kernel_values @ _propagate_values(values, grid_x, grid_p, -theta), grid_x, grid_p, theta)


def evolve_dense(hermitian: np.ndarray, start: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact evolution exp(-i t H) start at each requested time (columns), by
    the eigendecomposition of H: the dense route the Lanczos evolution replaced."""
    vals, vecs = np.linalg.eigh(hermitian)
    coeffs = vecs.conj().T @ start
    phases = np.exp(-1j * np.outer(vals, times))
    return vecs @ (phases * coeffs[:, None])


def theta_product_oracle(a: Symbol2D, b: Symbol2D, theta: float) -> Symbol2D:
    """The angle star product by the composed route: each factor carried to
    the standard angle by the propagator, symbol_to_kernel, composition,
    kernel_to_symbol, and the result carried back."""
    back = THETA_WIGNER - theta
    base = moyal_product(_transport(a, back), _transport(b, back), method="kernel")
    return _transport(base, -back)


def expectation_oracle(kernel: OperatorKernel, state: SampledFunction1D,
                       theta: float) -> tuple[complex, complex]:
    """expectation's value and phase-space pairing by the centred route: the
    kernel action (A psi, psi), and the adjoint's symbol by kernel_to_symbol,
    carried to theta by theta_symbol, conjugated and summed in (x, p) against
    wigner_fractional(psi, psi, theta)."""
    value = kernel.apply(state).inner(state)
    b_theta = theta_symbol(kernel_to_symbol(kernel.adjoint()), theta)
    dist = wigner_fractional(state, state, theta)
    return complex(value), complex(np.sum(np.conj(b_theta.values) * dist.values) * b_theta.weight)


def diagonal_dictionary(values: np.ndarray, dx: float, inverse: bool = False) -> np.ndarray:
    """The kernel<->symbol rule that the midpoint layout replaced, one diagonal
    at a time: the separation-s diagonal K[(v + s) % n, v], s = -n/2 .. n/2 - 1,
    moved s/2 samples back by a spectral shift, then a centred transform over
    s; with inverse, a symbol's values back to a kernel by the same steps."""
    n = values.shape[0]
    v = np.arange(n)
    modes = np.fft.fftfreq(n) * n
    if inverse:
        values = _centered_ifft(values, axis=1) / dx
    out = np.empty((n, n), dtype=np.complex128)
    for col, s in enumerate(v - n // 2):
        shift = np.exp((1 if inverse else -1) * 2j * np.pi * modes * (s / 2.0) / n)
        if inverse:
            out[(v + s) % n, v] = np.fft.ifft(np.fft.fft(values[:, col]) * shift)
        else:
            out[:, col] = np.fft.ifft(np.fft.fft(values[(v + s) % n, v]) * shift)
    return out if inverse else dx * _centered_fft(out, axis=1)


def midpoint_dictionary(values: np.ndarray, dx: float, inverse: bool = False) -> np.ndarray:
    """The midpoint rule one separation at a time.  Row r holds separation
    s = (-r) % n - n/2 and reads the pair K[(v + ceil(s/2)) % n, (v - floor(s/2)) % n]:
    even s sit on x_v, odd s at x_v + 1/2, moved half a sample back; the sign
    (-1)^s of the centred transform rides in that multiplier, (-1)^m and n dx
    on the plain inverse pass over separations.  With inverse, a symbol's
    values back to a kernel."""
    n = values.shape[0]
    v = np.arange(n)
    half = np.exp(1j * np.pi * np.fft.fftfreq(n))
    sign = 1.0 - 2.0 * (v % 2)
    if inverse:
        rows = np.fft.fft(values.T * (sign[:, None] / (n * dx)), axis=0)
        out = np.empty((n, n), dtype=np.complex128)
    else:
        rows = np.empty((n, n), dtype=np.complex128)
    for row, s in enumerate((-v) % n - n // 2):
        pair = ((v - (-s) // 2) % n, (v - s // 2) % n)
        if inverse:
            out[pair] = np.fft.ifft(np.fft.fft(rows[row]) * -half) if s % 2 else rows[row]
        elif s % 2:
            rows[row] = np.fft.ifft(np.fft.fft(values[pair]) * -half.conj())
        else:
            rows[row] = values[pair]
    return out if inverse else (np.fft.ifft(rows, axis=0) * (n * dx * sign[:, None])).T


def krylov_evolve_per_step(
    action: Callable[[np.ndarray], np.ndarray], start: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """exp(-i t A) start at each ascending time (rows), A Hermitian, by the
    per-vector rule the strided check of bopp._krylov_evolve replaced.

    A fully reorthogonalized Lanczos basis grows until Saad's estimate, run
    after every new vector, is below _KRYLOV_TOL at every remaining time; at
    _KRYLOV_MAX_DIM vectors it restarts from the furthest certified time, or a
    halved sub-step if none is.  Also returns the basis dimension of each segment.
    """

    def estimate(tau: np.ndarray) -> np.ndarray:
        """beta_m |e_m^T exp(-i tau T_m) e_1|, adding e_m^T e_1 = [m == 1] exactly."""
        return beta * np.abs(weights[-1] @ np.expm1(-1j * np.outer(lam, tau)) + (m == 1))

    out = np.empty((times.size, start.size), dtype=np.complex128)
    basis = np.empty((_KRYLOV_MAX_DIM, start.size), dtype=np.complex128)
    tri = np.zeros((_KRYLOV_MAX_DIM + 1, _KRYLOV_MAX_DIM + 1))
    dims, origin, vector, k = [], 0.0, start, 0
    while k < times.size:
        norm = float(np.linalg.norm(vector))
        basis[0] = vector / (norm or 1.0)
        taus = times[k:] - origin
        for m in range(1, _KRYLOV_MAX_DIM + 1):
            w = action(basis[m - 1])
            tri[m - 1, m - 1] = np.vdot(basis[m - 1], w).real
            for _ in range(2):
                w = w - basis[:m].T @ (basis[:m] @ w.conj()).conj()
            beta = tri[m, m - 1] = tri[m - 1, m] = np.linalg.norm(w)
            lam, q = np.linalg.eigh(tri[:m, :m])
            weights = q * q[0]  # exp(-i tau T_m) e_1 = weights @ exp(-i tau lam)
            # below about eps beta sum|weights[-1]| the estimate is rounding
            tol = max(_KRYLOV_TOL, np.finfo(float).eps * beta * np.abs(weights[-1]).sum())
            certified = estimate(taus) < tol
            if certified.all() or m == _KRYLOV_MAX_DIM:
                break
            basis[m] = w / beta
        dims.append(m)
        reach = taus.size if certified.all() else int(np.argmin(certified))
        step = taus[:max(reach, 1)]
        while not reach and estimate(step)[0] >= tol:
            step = step / 2.0
        ends = norm * ((weights @ np.exp(-1j * np.outer(lam, step))).T @ basis[:m])
        out[k:k + reach], vector, k = ends[:reach], ends[-1], k + reach
        origin = times[k - 1] if reach else origin + step[0]
    return out, dims
