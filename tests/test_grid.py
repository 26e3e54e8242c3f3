"""Grid containers, inner products, and the centered Fourier transform."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from phasekit.grid import (
    GRID_TOL,
    SQRT_TWO_PI,
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SampledFunction1D,
    _centered_fft,
    _centered_ifft,
    _fft_pass,
    conjugate,
    fourier_1d,
)


def _inverse_fourier(f):
    """(2*pi)**-0.5 * integral e^{+i x xi} f(xi) dxi on the dual grid, which
    for a transform's output is (a float-identical copy of) the original."""
    return SampledFunction1D(f.grid.dual(),
                             (f.grid.length / SQRT_TWO_PI) * _centered_ifft(f.values))


def test_centered_constructor():
    g = Grid1D.centered(64, 8.0)
    assert g.n == 64
    assert g.x_min == -8.0
    assert g.dx == pytest.approx(0.25)
    nodes = g.nodes()
    assert nodes[0] == pytest.approx(-8.0)
    assert nodes[-1] == pytest.approx(8.0 - 0.25)


def test_odd_size_rejected():
    with pytest.raises(ConfigurationError):
        Grid1D(63, -8.0, 0.25)


def test_nonpositive_spacing_rejected():
    with pytest.raises(ConfigurationError):
        Grid1D(64, -8.0, 0.0)


@pytest.mark.parametrize("n,x_min,dx,key", [
    (8.9, -2.0, 0.5, "n"), (8.0, -2.0, 0.5, "n"), ("8", -2.0, 0.5, "n"),
    (True, -2.0, 0.5, "n"), (8, float("nan"), 0.5, "x_min"),
    (8, float("inf"), 0.5, "x_min"), (8, "-2", 0.5, "x_min"), (8, False, 0.5, "x_min"),
    (8, -2.0, float("inf"), "dx"), (8, -2.0, float("nan"), "dx"),
])
def test_non_integer_size_and_non_finite_edges_rejected(n, x_min, dx, key):
    # nothing is coerced: 8.9 is not read as 8, nor "8" as 8
    with pytest.raises(ConfigurationError, match=rf"\b{key}\b"):
        Grid1D(n, x_min, dx)


def test_dual_grid_is_self_dual():
    g = Grid1D.centered(128, 6.0)
    d = g.dual()
    assert d.n == g.n
    assert d.dx == pytest.approx(g.dual_spacing)
    # dual of the dual returns the original lattice
    dd = d.dual()
    assert dd.matches(g)


def test_off_centre_grid_rejected():
    with pytest.raises(ConfigurationError, match=r"symmetric about 0 .* x_min=0\.0, n\*dx/2=8\.0"):
        Grid1D(64, 0.0, 0.25)
    # an n past float range has no finite half width
    with pytest.raises(ConfigurationError, match="symmetric about 0"):
        Grid1D(2 * 10**400, -1.0, 0.5)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2**20).map(lambda k: 2 * k),
       dx=st.floats(1e-6, 1e3),
       offset=st.one_of(st.floats(-3.0, 3.0), st.just(1.0)),
       far=st.one_of(st.none(), st.floats(-1e4, 1e4)))
def test_grid_accepted_exactly_when_centred(n, dx, offset, far):
    # offsets in tolerance units straddle the acceptance boundary; far is
    # an arbitrary left edge
    x_min = -n * dx / 2 + offset * GRID_TOL * max(1.0, n * dx) if far is None else far
    centred = abs(x_min + n * dx / 2) <= GRID_TOL * max(1.0, n * dx)
    try:
        g = Grid1D(n, x_min, dx)
    except ConfigurationError as exc:
        assert not centred and "symmetric about 0" in str(exc)
    else:
        assert centred
        assert g.dual().dual().matches(g)  # each dual is accepted too


def test_matches_tolerance():
    g = Grid1D.centered(64, 8.0)
    assert g.matches(Grid1D(64, -8.0 + 1e-12, 0.25))
    assert not g.matches(Grid1D(64, -32 * 0.2505, 0.2505))
    assert not g.matches(Grid1D.centered(128, 8.0))


def test_inner_is_linear_in_first_slot():
    g = Grid1D.centered(32, 4.0)
    rng = np.random.default_rng(11)
    f = SampledFunction1D(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    h = SampledFunction1D(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    scaled = SampledFunction1D(g, (2.0 + 1.0j) * f.values)
    assert scaled.inner(h) == pytest.approx((2.0 + 1.0j) * f.inner(h))
    # conjugate-linear in the second slot
    assert h.inner(scaled) == pytest.approx(np.conj(2.0 + 1.0j) * h.inner(f))


def test_norm_matches_inner():
    g = Grid1D.centered(32, 4.0)
    rng = np.random.default_rng(12)
    f = SampledFunction1D(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert f.norm() ** 2 == pytest.approx(f.inner(f).real)


def test_phase_function_weight_and_norm():
    gx = Grid1D.centered(32, 4.0)
    gp = gx.dual()
    F = PhaseFunction2D(gx, gp, np.ones((32, 32), dtype=np.complex128))
    assert F.weight == pytest.approx(gx.dx * gp.dx)
    assert F.norm() ** 2 == pytest.approx(32 * 32 * gx.dx * gp.dx)


def test_shape_mismatch_rejected():
    gx = Grid1D.centered(32, 4.0)
    with pytest.raises(ConfigurationError):
        SampledFunction1D(gx, np.zeros(16))
    with pytest.raises(ConfigurationError):
        PhaseFunction2D(gx, gx.dual(), np.zeros((32, 16)))


def test_fourier_gaussian_fixed_point():
    # exp(-x^2/2) is its own transform in the unitary convention
    g = Grid1D.centered(256, 10.0)
    f = SampledFunction1D(g, np.exp(-0.5 * g.nodes() ** 2).astype(complex))
    fhat = fourier_1d(f)
    ref = np.exp(-0.5 * g.dual().nodes() ** 2)
    assert np.max(np.abs(fhat.values - ref)) < 1e-13


def test_fourier_round_trip_and_unitarity():
    g = Grid1D.centered(128, 8.0)
    rng = np.random.default_rng(21)
    f = SampledFunction1D(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    fhat = fourier_1d(f)
    back = _inverse_fourier(fhat)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert fhat.norm() == pytest.approx(f.norm(), rel=1e-12)


def test_fourier_shift_modulation():
    # translating by one grid step multiplies the transform by a dual phase
    g = Grid1D.centered(64, 6.0)
    rng = np.random.default_rng(22)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = SampledFunction1D(g, vals)
    shifted = SampledFunction1D(g, np.roll(vals, 1))
    lhs = fourier_1d(shifted).values
    rhs = fourier_1d(f).values * np.exp(-1j * g.dual().nodes() * g.dx)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conjugate():
    g = Grid1D.centered(32, 4.0)
    rng = np.random.default_rng(24)
    f = SampledFunction1D(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert np.array_equal(conjugate(f).values, np.conj(f.values))


@pytest.mark.parametrize("shape", [(32, 32), (3, 8, 16), (6,)])
def test_centered_transforms_leave_their_input_untouched(shape):
    # the transform overwrites its own shifted copy, never the caller's array,
    # and gives the bits and memory order of the out-of-place transform
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    frozen = values.copy()
    frozen.flags.writeable = False
    for centred, plain in ((_centered_fft, scipy.fft.fft), (_centered_ifft, scipy.fft.ifft)):
        for axis in range(-len(shape), 0):
            for given in (values, values.T, frozen):
                before = given.copy()
                want = np.fft.fftshift(plain(np.fft.ifftshift(given, axes=axis), axis=axis),
                                       axes=axis)
                got = centred(given, axis=axis)
                assert np.array_equal(got, want) and got.strides == want.strides
                assert np.array_equal(given, before)


@settings(max_examples=60, deadline=None)
@given(half_n=st.integers(1, 32), other=st.integers(1, 8).map(lambda k: 2 * k),
       batch=st.integers(0, 3), axis=st.sampled_from((-1, -2)),
       seed=st.integers(0, 2**32 - 1))
def test_centred_dft_is_the_plain_dft_between_sign_flips(half_n, other, batch, axis, seed):
    # for even n the centred DFT is (-1)^(n/2) D F D, F the plain DFT and
    # D = diag((-1)^j) along the transformed axis: the identity behind the
    # Bopp harness's checkerboard frame; batched or not, on either axis
    n = 2 * half_n
    shape = (n, other) if axis == -2 else (other, n)
    shape = (batch, *shape) if batch else shape
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = values.copy()
    d = ((-1.0) ** np.arange(n)).reshape((n, 1) if axis == -2 else (n,))
    sign = (-1.0) ** half_n
    for centred, inverse in ((_centered_fft, False), (_centered_ifft, True)):
        got = centred(values, axis=axis)
        want = sign * d * _fft_pass(d * values, axis, inverse, keep=True)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    _fft_pass(values, axis, False, keep=True)
    assert np.array_equal(values, kept)
