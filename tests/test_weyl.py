"""Operator kernels, angle symbols, and star products."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (_symmetric_expand, count_calls, count_fft_passes, diagonal_dictionary,
                     expectation_oracle, fractional_symbol_oracle, identity_kernel,
                     midpoint_dictionary, theta_product_oracle, transport_oracle)
from phasekit import metaplectic, states, weyl, wigner
from phasekit.grid import (
    ConfigurationError,
    Grid1D,
    SampledFunction1D,
)
from phasekit.metaplectic import _Plan, _checkerboard, shear_factorization
from phasekit.symplectic import PERIOD, THETA_WIGNER
from phasekit.weyl import (
    OperatorKernel,
    Symbol2D,
    _derivative_matrix,
    _derivative_power,
    _midpoint_layout,
    _moyal_poly,
    _poly_trim,
    expectation,
    fractional_symbol,
    kernel_to_symbol,
    mccoy_kernel,
    moyal_product,
    polynomial_symbol,
    symbol_oscillator,
    symbol_to_kernel,
    symbol_x,
    symbol_xi,
    theta_product,
    theta_symbol,
)
from phasekit.wigner import wigner_metaplectic

GRID = Grid1D.centered(256, 10.0)


def _pflip(values, axis):
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


def _decaying_kernel(grid, seed):
    rng = np.random.default_rng(seed)
    a = states.random_wave(grid, rng)
    b = states.random_wave(grid, rng)
    c = states.random_wave(grid, rng)
    d = states.random_wave(grid, rng)
    vals = np.outer(a.values, np.conj(b.values)) + 0.4 * np.outer(
        c.values, np.conj(d.values)
    )
    return OperatorKernel(grid, vals)


def test_round_trip_kernel_symbol():
    K = _decaying_kernel(GRID, 61)
    back = symbol_to_kernel(kernel_to_symbol(K))
    assert np.max(np.abs(back.values - K.values)) < 1e-8 * np.max(np.abs(K.values))


def _random_kernel(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [2, 6, 16, 18, 32, 128, 130])
def test_dictionary_matches_the_per_diagonal_loop(n):
    # reference: the midpoint rule one separation at a time, which the
    # batched layout must reproduce bit for bit, n = 2 (mod 4) included
    grid = Grid1D.centered(n, 6.0)
    K = _random_kernel(n, n)
    symbol = kernel_to_symbol(OperatorKernel(grid, K))
    assert np.array_equal(symbol.values, midpoint_dictionary(K, grid.dx))
    assert np.array_equal(symbol_to_kernel(symbol).values,
                          midpoint_dictionary(symbol.values, grid.dx, inverse=True))


@settings(max_examples=30, deadline=None)
@given(half_n=st.integers(1, 65), seed=st.integers(0, 2**32 - 1))
@example(half_n=1, seed=0)
@example(half_n=3, seed=1)
@example(half_n=64, seed=2)
@example(half_n=65, seed=3)
def test_midpoint_rule_matches_the_diagonal_rule(half_n, seed):
    # the same map as the per-diagonal spectral shift by s/2 up to rounding:
    # an even s is a whole-sample shift, an odd one a whole-sample shift and
    # the same half-sample multiplier (worst seen 9e-15 relative at n <= 256)
    n = 2 * half_n
    grid = Grid1D.centered(n, 6.0)
    K = _random_kernel(n, seed)
    got = kernel_to_symbol(OperatorKernel(grid, K)).values
    want = diagonal_dictionary(K, grid.dx)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    got = symbol_to_kernel(Symbol2D(grid, grid.dual(), want)).values
    assert np.abs(got - K).max() <= 1e-13 * np.abs(K).max()
    want = diagonal_dictionary(want, grid.dx, inverse=True)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 6, 16, 130])
def test_even_separations_read_the_kernel_exactly(n):
    # the layout's row at even separation s is K[(v + s/2) % n, (v - s/2) % n],
    # no interpolation; at odd s the pair whose midpoint is x_v + 1/2.  Row r
    # holds s = (-r) % n - n/2, every s from -n/2 to n/2 - 1 once
    K = _random_kernel(n, n + 2)
    flat, _, odd, _ = _midpoint_layout(n)
    rows = np.take(K, flat)
    v = np.arange(n)
    separations = (-v) % n - n // 2
    assert sorted(separations) == list(v - n // 2)
    for row, s in enumerate(separations):
        if s % 2 == 0:
            assert np.array_equal(rows[row], K[(v + s // 2) % n, (v - s // 2) % n])
        else:
            assert np.array_equal(rows[row], K[(v + (s + 1) // 2) % n, (v - (s - 1) // 2) % n])
    assert [s % 2 for s in separations[odd]] == [1] * (n // 2)


def test_grid_tables_are_built_once_and_read_only():
    # the layout with its transposed order (the frame dictionary's), the
    # derivative matrix and the checkerboard of each shape
    grid = Grid1D.centered(16, 6.0)
    flat, half, _, order = _midpoint_layout(16)
    assert np.array_equal(order, flat.T.ravel())
    tables = (flat, half, order, _derivative_matrix(grid), _checkerboard(16, 16),
              _checkerboard(1, 16))
    again = (*_midpoint_layout(16)[:2], _midpoint_layout(16)[3],
             _derivative_matrix(Grid1D.centered(16, 6.0)), _checkerboard(16, 16),
             _checkerboard(1, 16))
    assert _midpoint_layout(16) is _midpoint_layout(16)
    for table, repeat in zip(tables, again):
        assert table is repeat
        with pytest.raises(ValueError):
            table[0] = 0
        with pytest.raises(ValueError):
            table += 0


@pytest.mark.parametrize("n", [2, 4, 6, 16, 18, 128])
def test_dictionary_matches_uncached_pair_index_gather(n):
    # reference: a fresh layout, unpacked into the (row, column) pair index
    # the flat take and assignment must reproduce bit for bit
    grid = Grid1D.centered(n, 6.0)
    K = _random_kernel(n, n + 1)
    flat, half, odd, _ = _midpoint_layout.__wrapped__(n)
    pairs = np.divmod(flat, n)
    rows = K[pairs]
    rows[odd] = np.fft.ifft(np.fft.fft(rows[odd], axis=1) * -half.conj(), axis=1)
    sign = (1.0 - 2.0 * (np.arange(n) % 2))[:, None]
    symbol = kernel_to_symbol(OperatorKernel(grid, K))
    assert np.array_equal(symbol.values, (np.fft.ifft(rows, axis=0) * (n * grid.dx * sign)).T)
    rows = np.fft.fft(symbol.values.T * (sign / (n * grid.dx)), axis=0)
    rows[odd] = np.fft.ifft(np.fft.fft(rows[odd], axis=1) * -half, axis=1)
    want = np.empty((n, n), dtype=np.complex128)
    want[pairs] = rows
    assert np.array_equal(symbol_to_kernel(symbol).values, want)


def test_dictionary_makes_three_passes_and_no_shift_call(monkeypatch):
    # one pass pair over the odd separations, one plain pass over separations
    K = OperatorKernel(GRID, _random_kernel(GRID.n, 7))
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    symbol = kernel_to_symbol(K)
    assert len(passes) == 3
    symbol_to_kernel(symbol)
    assert len(passes) == 6
    assert shifts == []


def test_mccoy_kernel_same_with_uncached_derivative_matrix(monkeypatch):
    grid = Grid1D.centered(32, 5.0)
    coeffs = np.array([[0.3, 1.0, 0.5], [0.2j, 0.0, 0.0], [0.5, 0.1, 0.0]])
    symbols = (symbol_oscillator(grid), polynomial_symbol(coeffs, grid))
    cached = [mccoy_kernel(sym).values for sym in symbols]
    monkeypatch.setattr(weyl, "_derivative_matrix", _derivative_matrix.__wrapped__)
    for sym, values in zip(symbols, cached):
        assert np.array_equal(mccoy_kernel(sym).values, values)


def test_scatter_order_and_derivative_powers_are_cached_and_read_only():
    # the layout's flat index is also the order symbol_to_kernel places by
    grid = Grid1D.centered(16, 6.0)
    flat, _, _, _ = _midpoint_layout(16)
    assert np.array_equal(np.sort(flat, axis=None), np.arange(16 * 16))
    assert _derivative_power(grid, 1) is _derivative_matrix(grid)
    for table, repeat in ((flat, _midpoint_layout(16)[0]),
                          (_derivative_power(grid, 2), _derivative_power(grid, 2))):
        assert table is repeat
        with pytest.raises(ValueError):
            table[0] = 0


def _mccoy_product_chain(symbol):
    # reference: the expansion applied to the identity with one dense
    # product P @ term per power of P, as mccoy_kernel ran it before
    grid = symbol.grid_x
    nodes, dmat = grid.nodes()[:, None], _derivative_matrix(grid)
    total = _symmetric_expand(
        symbol.poly, np.eye(grid.n, dtype=np.complex128), lambda m: nodes * m,
        lambda m, j: functools.reduce(lambda t, _: dmat @ t, range(j), m))
    return total / grid.dx


@pytest.mark.parametrize("n", [16, 128])
def test_mccoy_kernel_matches_the_product_chain(n):
    grid = Grid1D.centered(n, 8.0)
    x2, xi2 = np.zeros((3, 1)), np.zeros((1, 3))
    x2[2, 0] = xi2[0, 2] = 1.0
    shifted = np.zeros((3, 3))
    shifted[2, 0] = shifted[0, 2] = 0.5
    shifted[1, 0], shifted[0, 1] = 0.2, -0.1
    words = [symbol_x(grid), symbol_xi(grid), symbol_oscillator(grid),
             polynomial_symbol(x2, grid), polynomial_symbol(xi2, grid),
             polynomial_symbol(shifted, grid)]
    for symbol in words:
        assert np.array_equal(mccoy_kernel(symbol).values, _mccoy_product_chain(symbol))
    # P^2 meets the diagonal x^2 here: the cached power rounds differently
    x2xi2 = np.zeros((3, 3))
    x2xi2[2, 2] = 1.0
    symbol = polynomial_symbol(x2xi2, grid)
    got, want = mccoy_kernel(symbol).values, _mccoy_product_chain(symbol)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_mccoy_kernel_makes_no_shift_call(monkeypatch):
    # cold, P costs two plain passes (its centred pair's signs cancel) and
    # P^2 one product; warm, the kernel makes no pass at all
    grid = Grid1D.centered(32, 5.0)
    symbol = symbol_oscillator(grid)
    _derivative_matrix.cache_clear()
    _derivative_power.cache_clear()
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    cold = mccoy_kernel(symbol).values
    assert len(passes) == 2
    passes.clear()
    assert np.array_equal(mccoy_kernel(symbol).values, cold)
    assert passes == [] and shifts == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.floats(0.5, 20.0), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_mccoy_kernel_is_the_dense_expansion_bit_for_bit(quarter_n, half_width, rows, cols,
                                                          seed):
    # the expansion on the identity with the cached powers scaling its
    # diagonal, every entry computed: skipping the entries X leaves zero
    # changes no bit, for complex coefficients up to degree 4 per variable
    grid = Grid1D.centered(4 * quarter_n, half_width)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    coeffs[rng.random((rows, cols)) < 0.4] = 0.0
    nodes = grid.nodes()[:, None]
    want = _symmetric_expand(coeffs, np.eye(grid.n, dtype=np.complex128), lambda m: nodes * m,
                             lambda m, j: _derivative_power(grid, j) * m.diagonal())
    got = mccoy_kernel(polynomial_symbol(coeffs, grid)).values
    assert np.array_equal(got, want / grid.dx)


def _loop_moyal_poly(ca, cb):
    # reference: the derivative series with hand-made derivatives, a loop
    # over the first factor's coefficients and growing sums, stopped at the
    # first order whose terms all vanish
    def deriv(c, axis):
        if c.shape[axis] == 1:
            return np.zeros((1, 1), dtype=np.complex128)
        factors = np.arange(1, c.shape[axis], dtype=np.complex128)
        return c[1:] * factors[:, None] if axis == 0 else c[:, 1:] * factors[None, :]

    def add(a, b):
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])),
                       dtype=np.complex128)
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return out

    def mul(a, b):
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                       dtype=np.complex128)
        for i, j in zip(*np.nonzero(a)):
            out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return out

    out, k = np.zeros((1, 1), dtype=np.complex128), 0
    while True:
        term, nonzero = np.zeros((1, 1), dtype=np.complex128), False
        for r in range(k + 1):
            da, db = ca, cb
            for _ in range(k - r):
                da = deriv(da, 0)
            for _ in range(r):
                da = deriv(da, 1)
            for _ in range(r):
                db = deriv(db, 0)
            for _ in range(k - r):
                db = deriv(db, 1)
            if np.any(da) and np.any(db):
                nonzero = True
                term = add(term, mul(da, db) * ((-1.0) ** r * math.comb(k, r)))
        if k > 0 and not nonzero:
            return out
        out = add(out, term * ((0.5j) ** k / math.factorial(k)))
        k += 1


def test_polynomial_series_matches_the_loop_reference():
    builtins = [s.poly for s in (symbol_x(GRID), symbol_xi(GRID), symbol_oscillator(GRID))]
    rng = np.random.default_rng(80)
    pairs = [(a, b) for a in builtins for b in builtins]
    for _ in range(60):
        a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in rng.integers(1, 6, (2, 2)))
        a[rng.random(a.shape) < 0.3] = 0
        pairs.append((a, b))
    for a, b in pairs:
        assert np.array_equal(_moyal_poly(a, b), _poly_trim(_loop_moyal_poly(a, b)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32), st.floats(0.5, 20.0), st.integers(0, 2**32 - 1))
def test_round_trip_kernel_symbol_on_arbitrary_kernels(half_n, half_width, seed):
    # every step is a permutation, an FFT or a unit-modulus multiply, so
    # the dictionary inverts itself on any data, decaying or not
    grid = Grid1D.centered(2 * half_n, half_width)
    rng = np.random.default_rng(seed)
    K = OperatorKernel(grid, rng.standard_normal((grid.n, grid.n))
                       + 1j * rng.standard_normal((grid.n, grid.n)))
    back = symbol_to_kernel(kernel_to_symbol(K))
    assert np.max(np.abs(back.values - K.values)) <= 1e-12 * np.max(np.abs(K.values))


def test_symbol_of_identity_kernel():
    K = identity_kernel(GRID)
    a = kernel_to_symbol(K)
    assert np.max(np.abs(a.values - 1.0)) < 1e-8


def test_midpoint_kernel_formula():
    # multiplication-in-the-middle symbols f(x) e^{-xi^2} quantize to
    # K(x, y) = f((x+y)/2) exp(-(x-y)^2/4) / (2 sqrt(pi)); run on the
    # wide box so the dual-lattice alias of the Gaussian stays below
    # the tolerance
    x = GRID.nodes()
    for f in (lambda m: np.exp(-(m**2)), lambda m: np.exp(-(m**2)) * np.cos(2 * m)):
        xi = GRID.dual().nodes()
        vals = np.outer(f(x), np.exp(-(xi**2)))
        sym = Symbol2D(GRID, GRID.dual(), vals.astype(complex))
        K = symbol_to_kernel(sym)
        mid = 0.5 * (x[:, None] + x[None, :])
        diff = x[:, None] - x[None, :]
        ref = f(mid) * np.exp(-(diff**2) / 4.0) / (2.0 * np.sqrt(np.pi))
        assert np.max(np.abs(K.values - ref)) < 1e-7


def test_fractional_symbol_routes_agree():
    # random low-mode kernels are rougher than the built-in states, so the
    # route agreement sits an order above the smooth-kernel tolerance
    K = _decaying_kernel(GRID, 62)
    for theta in (0.0, 0.3, 2.0 * THETA_WIGNER):
        direct = fractional_symbol(K, theta)
        transported = theta_symbol(kernel_to_symbol(K), theta)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(direct.values - transported.values)) < 1e-5 * scale


def test_fractional_symbol_at_distinguished_angle():
    K = _decaying_kernel(GRID, 63)
    a = fractional_symbol(K, THETA_WIGNER)
    b = kernel_to_symbol(K)
    scale = np.max(np.abs(b.values))
    assert np.max(np.abs(a.values - b.values)) < 1e-6 * scale


_FRAME_SIZES = [16, 30, 32, 64, 126, 128, 256]
_FRAME_ANGLES = [0.0, 0.3, -0.45, 0.9, 1.3, 2.0 * THETA_WIGNER, THETA_WIGNER + 0.7, 2.9]


@pytest.mark.parametrize("n", _FRAME_SIZES)
def test_fractional_symbol_in_the_frame_is_the_centred_route(n):
    # the kernel is the mixed plane: the frame flow then one inverse pass
    # along eta, against length * C^-1 of the centred substitute, at every
    # angle class (identity, quarter turns, three shears)
    grid = Grid1D.centered(n, 8.0)
    K = _decaying_kernel(grid, 90 + n)
    for theta in _FRAME_ANGLES:
        got, want = fractional_symbol(K, theta), fractional_symbol_oracle(K, theta)
        assert got.grid_x == want.grid_x and got.grid_xi == want.grid_xi
        assert np.abs(got.values - want.values).max() <= 2e-15 * np.abs(want.values).max()


@pytest.mark.parametrize("n", _FRAME_SIZES)
def test_theta_symbol_in_the_frame_is_the_centred_transport(n):
    # plain passes between checkerboard signs give the centred pair's bits
    # where n % 4 == 0, and its values to rounding at n = 2 (mod 4)
    grid = Grid1D.centered(n, 8.0)
    symbol = _random_decaying_symbol(grid, np.random.default_rng(n))
    for theta in _FRAME_ANGLES:
        got = theta_symbol(symbol, theta).values
        want = transport_oracle(symbol, theta - THETA_WIGNER).values
        if n % 4 == 0:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


def test_angle_symbol_routes_make_no_shift_call(monkeypatch):
    grid = Grid1D.centered(16, 5.0)
    rng = np.random.default_rng(8)
    a, b = (_random_decaying_symbol(grid, rng) for _ in range(2))
    K = _decaying_kernel(grid, 9)
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    for theta in (0.3, 1.3):
        fractional_symbol(K, theta)
        theta_symbol(a, theta)
        theta_product(a, b, theta, method="quadrature")
    assert shifts == []


def test_rank_one_symbol_is_scaled_distribution():
    g = states.gaussian(GRID)
    h = states.hermite(GRID, 1)
    K = OperatorKernel(GRID, np.outer(h.values, np.conj(g.values)))
    sym = kernel_to_symbol(K)
    W = wigner_metaplectic(h, g)
    assert np.max(np.abs(sym.values - 2.0 * np.pi * W.values)) < 1e-6


def test_coordinate_commutator():
    sx, sxi = symbol_x(GRID), symbol_xi(GRID)
    comm = moyal_product(sx, sxi).values - moyal_product(sxi, sx).values
    assert np.max(np.abs(comm - 1j)) < 1e-6


def test_polynomial_symbol_matches_mccoy_action():
    # quantized x acts by multiplication, quantized xi by -i d/dx
    g = states.gaussian(GRID)
    Kx = mccoy_kernel(symbol_x(GRID))
    out = Kx.apply(g)
    assert np.max(np.abs(out.values - GRID.nodes() * g.values)) < 1e-8

    Kxi = mccoy_kernel(symbol_xi(GRID))
    out = Kxi.apply(g)
    ref = 1j * GRID.nodes() * g.values  # -i d/dx e^{-x^2/2} = i x e^{-x^2/2}
    assert np.max(np.abs(out.values - ref)) < 1e-8


def test_oscillator_symbol_eigenstructure():
    # the oscillator word acts on the m-th mode with eigenvalue m + 1/2
    K = mccoy_kernel(symbol_oscillator(GRID))
    for m in range(4):
        h = states.hermite(GRID, m)
        out = K.apply(h)
        assert np.max(np.abs(out.values - (m + 0.5) * h.values)) < 1e-8


def test_mccoy_matches_integral_quantization():
    # a decaying polynomial-free symbol has to agree between routes; for
    # polynomials the mccoy route is the only accurate one, but degree-1
    # words still match the integral route on the grid interior
    sym = polynomial_symbol(np.array([[0.0, 1.0]]), GRID)  # xi
    km = mccoy_kernel(sym)
    g = states.gaussian(GRID)
    ki_out = symbol_to_kernel(sym).apply(g)
    km_out = km.apply(g)
    assert np.max(np.abs(ki_out.values - km_out.values)) < 1e-6


def test_moyal_identity_element():
    a = kernel_to_symbol(_decaying_kernel(GRID, 64))
    one = Symbol2D(GRID, GRID.dual(), np.ones((GRID.n, GRID.n), dtype=complex))
    prod = moyal_product(one, a)
    assert np.max(np.abs(prod.values - a.values)) < 1e-8
    prod = moyal_product(a, one)
    assert np.max(np.abs(prod.values - a.values)) < 1e-8


def test_moyal_kernel_vs_quadrature():
    # the brute-force integral certifies the kernel route on a small grid
    grid = Grid1D.centered(32, 6.0)
    x = grid.nodes()[:, None]
    xi = grid.dual().nodes()[None, :]
    a = Symbol2D(grid, grid.dual(), np.exp(-0.6 * x**2 - 0.6 * xi**2).astype(complex))
    b = Symbol2D(grid, grid.dual(), np.exp(-0.4 * x**2 - 0.5 * xi**2).astype(complex))
    k = moyal_product(a, b, method="kernel")
    q = moyal_product(a, b, method="quadrature")
    assert np.max(np.abs(k.values - q.values)) < 1e-4


def test_associativity_kernel_route():
    grid = Grid1D.centered(128, 8.0)
    syms = [kernel_to_symbol(_decaying_kernel(grid, 65 + i)) for i in range(3)]
    a, b, c = syms
    left = moyal_product(moyal_product(a, b), c)
    right = moyal_product(a, moyal_product(b, c))
    scale = np.max(np.abs(left.values))
    assert np.max(np.abs(left.values - right.values)) < 1e-8 * scale


def test_theta_product_associativity():
    grid = Grid1D.centered(128, 8.0)
    theta = 0.4
    syms = [
        fractional_symbol(_decaying_kernel(grid, 68 + i), theta) for i in range(3)
    ]
    a, b, c = syms
    left = theta_product(theta_product(a, b, theta), c, theta)
    right = theta_product(a, theta_product(b, c, theta), theta)
    scale = np.max(np.abs(left.values))
    assert np.max(np.abs(left.values - right.values)) < 1e-5 * scale


def test_theta_product_transports_composition():
    # the angle product of two transported symbols is the transported
    # symbol of the composed operator; smooth kernels hold the tight
    # tolerance (random low-mode ones land near 2e-5)
    theta = 0.4
    g = states.gaussian(GRID)
    h1 = states.hermite(GRID, 1)
    h2 = states.hermite(GRID, 2)
    k1 = OperatorKernel(GRID, np.outer(g.values, np.conj(h1.values))
                        + 0.4 * np.outer(h2.values, np.conj(g.values)))
    k2 = OperatorKernel(GRID, np.outer(h1.values, np.conj(h2.values))
                        - 0.3 * np.outer(g.values, np.conj(g.values)))
    lhs = theta_product(
        fractional_symbol(k1, theta), fractional_symbol(k2, theta), theta
    )
    rhs = fractional_symbol(k1.compose(k2), theta)
    scale = np.max(np.abs(rhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-5 * scale


def _random_decaying_symbol(grid, rng):
    x, xi = grid.nodes()[:, None], grid.dual().nodes()[None, :]
    cx, cxi, chirp = rng.uniform(-1.0, 1.0, 3)
    wx, wxi = rng.uniform(0.5, 1.5, 2)
    values = np.exp(-wx * (x - cx) ** 2 - wxi * (xi - cxi) ** 2 + 1j * chirp * x * xi)
    return Symbol2D(grid, grid.dual(), values)


def test_pull_plans_of_the_examples_take_odd_quarter_turns():
    # the fused route's examples below reach both odd quarter-turn counts
    assert shear_factorization(THETA_WIGNER - 1.0).quarters == 1
    assert shear_factorization(THETA_WIGNER - 2.2).quarters == 3


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([10, 12, 16, 18, 30, 48, 64, 96]), stretch=st.floats(0.8, 1.25),
       theta=st.floats(-PERIOD, PERIOD), seed=st.integers(0, 2**32 - 1))
@example(n=12, stretch=1.0, theta=0.0, seed=0)
@example(n=48, stretch=1.0, theta=1.0, seed=1)
@example(n=96, stretch=0.9, theta=2.2, seed=2)
@example(n=64, stretch=1.1, theta=0.4, seed=3)
@example(n=18, stretch=1.0, theta=0.4, seed=4)
def test_fused_angle_product_matches_the_composed_route(n, stretch, theta, seed):
    # the same discrete map up to rounding: each centred transform pair the
    # fused route leaves out is n times the index reversal exactly; n/2 odd
    # (10, 18, 30) flips the one frame sign left
    grid = Grid1D.centered(n, stretch * math.sqrt(math.pi * n / 2))
    rng = np.random.default_rng(seed)
    a, b = (_random_decaying_symbol(grid, rng) for _ in range(2))
    got = theta_product(a, b, theta)
    want = theta_product_oracle(a, b, theta)
    assert got.grid_x == want.grid_x and got.grid_xi == want.grid_xi
    assert np.abs(got.values - want.values).max() <= 1e-13 * np.abs(want.values).max()


def test_fused_angle_product_makes_no_shift_call(monkeypatch):
    # one crossing into the frame, six passes per three-shear plan less the
    # x pass that meets the dictionary's half-sample step (F_x D F_x^-1 is a
    # roll), one x pass each way for those steps and one crossing back
    grid = Grid1D.centered(32, 6.0)
    rng = np.random.default_rng(5)
    a, b = (_random_decaying_symbol(grid, rng) for _ in range(2))
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    theta_product(a, b, 0.4)
    assert shifts == []
    assert len(passes) == 1 + 5 + 1 + 1 + 5 + 1


@pytest.mark.parametrize("theta", [-2.4, -1.7, -0.7, 0.4, 1.0, 2.2])
@pytest.mark.parametrize("nudge", [0.0, 1e-12])
def test_angle_product_is_unchanged_by_the_reused_push(monkeypatch, theta, nudge):
    # the push is the pull plan's inverse: the same bits as a freshly built
    # push, also for a frequency grid that only matches the dual (both plans
    # are built on grid_x and its dual, the grids of the product)
    grid = Grid1D.centered(128, 8.0)
    dxi = grid.dual().dx * (1.0 + nudge)
    rng = np.random.default_rng(11)
    a, b = (Symbol2D(grid, Grid1D(128, -64 * dxi, dxi), _random_decaying_symbol(grid, rng).values)
            for _ in range(2))
    got = theta_product(a, b, theta).values
    monkeypatch.setattr(_Plan, "inverse", lambda pull: _Plan(*pull.grids, -pull.theta))
    assert np.array_equal(got, theta_product(a, b, theta).values)


def test_angle_product_at_a_mirrored_angle_builds_six_tables_once(monkeypatch):
    # at 0.4 the pull and the push each make three shears; both plans come
    # from the plan cache, so the first product builds their six tables and
    # a product at the same angle builds none
    metaplectic._plan.cache_clear()
    grid = Grid1D.centered(128, 8.0)
    rng = np.random.default_rng(12)
    a, b = (_random_decaying_symbol(grid, rng) for _ in range(2))
    tables = count_calls(monkeypatch, metaplectic, ("_chirp_tables",))
    theta_product(a, b, 0.4)
    assert len(tables) == 6
    tables.clear()
    theta_product(b, a, 0.4)
    assert tables == []


@pytest.mark.parametrize("theta", [0.4, 1.0, 2.2, -1.7])
def test_angle_product_is_the_same_with_a_warm_or_cleared_plan_cache(theta):
    # a cached plan's read-only tables serve every later product: bit for
    # bit what a product after clearing the cache builds afresh, at angles
    # with and without quarter turns
    grid = Grid1D.centered(128, 8.0)
    rng = np.random.default_rng(13)
    a, b = (_random_decaying_symbol(grid, rng) for _ in range(2))
    theta_product(a, b, theta)
    warm = theta_product(a, b, theta).values
    metaplectic._plan.cache_clear()
    assert np.array_equal(warm, theta_product(a, b, theta).values)


def test_angle_product_refuses_before_any_work(monkeypatch):
    decaying = _random_decaying_symbol(GRID, np.random.default_rng(6))
    passes = count_fft_passes(monkeypatch)
    for a, b in ((symbol_x(GRID), decaying), (decaying, symbol_xi(GRID))):
        with pytest.raises(ConfigurationError, match="polynomial symbols cannot be transported"):
            theta_product(a, b, 0.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="is not finite"):
            theta_product(decaying, decaying, bad)
    assert passes == []
    with pytest.raises(ConfigurationError, match="requires polynomial tags on both"):
        theta_product(decaying, decaying, 0.2, method="algebraic")


def test_off_angle_routes_refuse_before_any_pass(monkeypatch):
    # the algebraic route cannot succeed off the distinguished angle: tagged
    # factors cannot be transported and untagged ones carry no coefficients;
    # so it, an unknown method and a tagged quadrature factor are refused,
    # with the messages of the transport and of moyal_product, before any pass
    grid = Grid1D.centered(32, 6.0)
    decaying = _random_decaying_symbol(grid, np.random.default_rng(8))
    passes = count_fft_passes(monkeypatch)
    for a, b, method, message in (
            (decaying, decaying, "algebraic", "requires polynomial tags on both"),
            (symbol_x(grid), symbol_xi(grid), "algebraic", "polynomial symbols cannot"),
            (decaying, symbol_xi(grid), "algebraic", "polynomial symbols cannot"),
            (decaying, symbol_xi(grid), "quadrature", "polynomial symbols cannot"),
            (decaying, decaying, "sideways", "unknown star product method 'sideways'")):
        with pytest.raises(ConfigurationError, match=message):
            theta_product(a, b, 0.4, method=method)
    assert passes == []


def test_theta_product_at_distinguished_angle_is_moyal():
    a = kernel_to_symbol(_decaying_kernel(GRID, 73))
    b = kernel_to_symbol(_decaying_kernel(GRID, 74))
    tp = theta_product(a, b, THETA_WIGNER)
    mp = moyal_product(a, b)
    assert np.array_equal(tp.values, mp.values)


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_distinguished_angle_plus_periods_takes_the_exact_routes(k):
    # the reduction modulo PERIOD lands a few ulps off THETA_WIGNER
    theta = THETA_WIGNER + k * PERIOD
    sx, sxi = symbol_x(GRID), symbol_xi(GRID)
    assert np.array_equal(theta_product(sx, sxi, theta).values,
                          moyal_product(sx, sxi).values)
    assert np.array_equal(theta_symbol(sx, theta).values, sx.values)


def test_polynomial_transport_refused():
    with pytest.raises(ConfigurationError):
        theta_symbol(symbol_x(GRID), 0.2)
    with pytest.raises(ConfigurationError):
        theta_product(symbol_x(GRID), symbol_xi(GRID), 0.2)


def test_adjoint_symbol_parity():
    # the symbol of the adjoint is the conjugated p-flip of the symbol of
    # the transpose, at every angle
    K = _decaying_kernel(GRID, 75)
    for theta in (0.2, THETA_WIGNER):
        adj = fractional_symbol(K.adjoint(), theta)
        tra = fractional_symbol(K.transpose(), theta)
        expect_vals = np.conj(_pflip(tra.values, 1))
        scale = np.max(np.abs(adj.values))
        assert np.max(np.abs(adj.values - expect_vals)) < 1e-6 * scale


def test_hermitian_kernel_has_real_symbol():
    # at the distinguished angle hermitian kernels have real symbols
    K = _decaying_kernel(GRID, 76)
    H = OperatorKernel(GRID, 0.5 * (K.values + np.conj(K.values.T)))
    a = kernel_to_symbol(H)
    assert np.max(np.abs(a.values.imag)) < 1e-6


def test_expectation_routes_and_flags():
    g = states.gaussian(GRID)
    r = expectation(symbol_oscillator(GRID), g)
    assert r.value == pytest.approx(0.5, abs=1e-8)
    assert r.self_adjoint
    assert r.residual < 1e-8
    assert abs(r.phase_value - r.value) < 1e-8

    # a non-hermitian operator warns and reports its adjoint value separately
    K = _decaying_kernel(GRID, 77)
    rng = np.random.default_rng(78)
    psi = states.random_wave(GRID, rng)
    with pytest.warns(UserWarning, match="self-adjoint"):
        r = expectation(K, psi, 0.3)
    assert not r.self_adjoint
    assert r.adjoint_value is not None
    # reference: plain kernel action
    ref = K.apply(psi).inner(psi)
    assert abs(r.value - ref) < 1e-10
    assert r.residual < 1e-5


def test_expectation_oscillator_modes():
    for m in range(3):
        h = states.hermite(GRID, m)
        r = expectation(symbol_oscillator(GRID), h)
        assert r.value == pytest.approx(m + 0.5, abs=1e-7)


@pytest.mark.parametrize("n", [16, 30, 32, 64, 126, 128])
@pytest.mark.parametrize("which", ["oscillator", "decaying", "not-self-adjoint"])
def test_expectation_pairs_in_the_frame_as_by_the_centred_route(n, which):
    # the frame pairing against expectation_oracle's centred one, at angles with
    # and without quarter turns and at THETA_WIGNER, whose lift starts with an
    # eta shear; value keeps its code, so the same bits.  n = 30 and 126 are
    # 2 (mod 4), where the dictionary's sign (-1)^(n/2) is -1: only they catch
    # a pairing that leaves the sign out
    grid = Grid1D.centered(n, 8.0)
    rng = np.random.default_rng(n)
    psi = states.random_wave(grid, rng)
    op = {"oscillator": symbol_oscillator(grid),
          "decaying": _random_decaying_symbol(grid, rng),
          "not-self-adjoint": _decaying_kernel(grid, n)}[which]
    kernel = weyl._operator_kernel(op)
    for theta in (THETA_WIGNER, 0.0, 0.3, -0.45, 0.9, 1.3, 2.9, -2.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = expectation(op, psi, theta)
        assert len(caught) == (which != "oscillator")  # the decaying symbol's chirp is complex
        value, phase_value = expectation_oracle(kernel, psi, theta)
        assert r.value == value
        assert abs(r.phase_value - phase_value) <= 1e-13 * max(1.0, abs(value))


def test_expectation_stays_in_the_frame(monkeypatch):
    # neither propagate nor wigner_fractional: a cold call builds its two plans
    # (the lift at theta and the symbol's push at theta - THETA_WIGNER, the
    # identity at THETA_WIGNER), a warm call none and gives the same result;
    # the only shift calls are fourier_1d's two, on the 1D state
    grid = Grid1D.centered(64, 8.0)
    psi = states.random_wave(grid, np.random.default_rng(5))
    op = symbol_oscillator(grid)
    shifts = []
    for name in ("fftshift", "ifftshift"):
        def shift(values, *args, _inner=getattr(np.fft, name), **kwargs):
            shifts.append(np.ndim(values))
            return _inner(values, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, shift)
    built = count_calls(monkeypatch, metaplectic, ("_Plan", "_propagate_values"))
    centred = count_calls(monkeypatch, wigner, ("wigner_fractional",))
    for theta in (THETA_WIGNER, 0.4):
        metaplectic._plan.cache_clear()
        cold = expectation(op, psi, theta)
        assert built == ["_Plan", "_Plan"]
        built.clear()
        assert expectation(op, psi, theta) == cold
        assert built == []
    assert shifts == [1] * 8 and centred == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_expectation_refuses_the_angle_before_any_work(monkeypatch, bad):
    # the kernel is not self-adjoint and would warn once built; the angle is
    # refused first, naming theta, with no warning and no pass
    grid = Grid1D.centered(32, 6.0)
    kernel = _decaying_kernel(grid, 79)
    psi = states.random_wave(grid, np.random.default_rng(80))
    passes = count_fft_passes(monkeypatch)
    with (pytest.raises(ConfigurationError, match=re.escape(f"theta={bad}")),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        expectation(kernel, psi, bad)
    assert passes == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_symbol_refuses_a_non_finite_polynomial_tag(bad):
    # refused where it is made: a NaN tag would otherwise render, multiply
    # and quantize to NaN values with no error; rendering an infinite one
    # raises no numpy warning ahead of the refusal
    coeffs = np.array([[0.5, 0.0], [1.0, bad]], dtype=complex)
    for make in (lambda: Symbol2D(GRID, GRID.dual(), np.ones((GRID.n, GRID.n)), coeffs),
                 lambda: polynomial_symbol(coeffs, GRID)):
        with (pytest.raises(ConfigurationError, match="coefficients must be a finite 2D matrix"),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            make()


def test_symbol_requires_dual_pair():
    # refused where it is made, so no symbol function meets another pair
    wider = Grid1D.centered(GRID.n, GRID.length)  # twice the half width
    for grid_xi in (GRID, wider.dual()):
        with pytest.raises(ConfigurationError, match="not the Fourier dual"):
            Symbol2D(GRID, grid_xi, np.ones((GRID.n, GRID.n), dtype=complex))
    # the dual's own rounding is inside the pairing tolerance
    Symbol2D(GRID, GRID.dual().dual().dual(), np.ones((GRID.n, GRID.n)))
