"""Phase-space distributions and the windowed transform calculus."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (count_calls, half_shifted_oracle, half_shifted_upsample_oracle,
                     random_phase_wave)
from phasekit import states
from phasekit.grid import (TWO_PI, ConfigurationError, Grid1D, PhaseFunction2D,
                           SampledFunction1D)
from phasekit.symplectic import PERIOD, THETA_WIGNER
from phasekit.weyl import symbol_oscillator, theta_product, theta_symbol
from phasekit.wigner import (
    Window,
    _half_shifted,
    _half_shifted_upsample,
    _is_wigner_angle,
    position_marginal,
    wigner_direct,
    wigner_fractional,
    wigner_metaplectic,
    windowed_adjoint,
    windowed_projection,
    windowed_transform,
)


def _pflip(values, axis):
    # reverses a centered lattice about 0 (index 0 is its own image)
    return np.roll(np.flip(values, axis=axis), 1, axis=axis)


GRID = Grid1D.centered(256, 8.0)
RNG_ANGLES = (0.2, THETA_WIGNER, 0.35, 0.5, 2.0 * THETA_WIGNER)


def test_gaussian_distribution_closed_form():
    g = states.gaussian(GRID)
    W = wigner_metaplectic(g, g)
    x = W.grid_x.nodes()[:, None]
    p = W.grid_p.nodes()[None, :]
    ref = np.exp(-(x**2) - p**2) / np.pi
    assert np.max(np.abs(W.values - ref)) < 1e-8


def test_metaplectic_equals_direct_integral():
    rng = np.random.default_rng(51)
    for _ in range(3):
        psi = states.random_wave(GRID, rng)
        phi = states.random_wave(GRID, rng)
        W = wigner_metaplectic(psi, phi)
        for method in ("trig", "upsample"):
            D = wigner_direct(psi, phi, method=method)
            assert np.max(np.abs(W.values - D.values)) < 1e-6


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 128), st.sampled_from((-1.0, 1.0)), st.integers(0, 2**32 - 1))
def test_half_shift_builders_are_the_centred_ones(half_n, sign, seed):
    # plain passes between the signs D make the centred builders' matrices:
    # bit for bit where n is a power of two, to rounding elsewhere (measured
    # at most 8.8e-16 by norm over 2,540 draws at n = 4..256)
    grid = Grid1D.centered(2 * half_n, 6.0)
    values = states.random_wave(grid, np.random.default_rng(seed)).values
    for built, oracle in ((_half_shifted, half_shifted_oracle),
                          (_half_shifted_upsample, half_shifted_upsample_oracle)):
        got, want = built(values, grid, sign), oracle(values, grid, sign)
        if half_n & (half_n - 1) == 0:
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 2e-15 * np.linalg.norm(want)


def test_direct_integral_makes_no_shift_call(monkeypatch):
    psi, phi = (states.random_wave(GRID, np.random.default_rng(seed)) for seed in (52, 53))
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    for method in ("trig", "upsample"):
        wigner_direct(psi, phi, method=method)
    assert shifts == []


def test_fractional_at_zero_is_tensor_route():
    # at angle zero the distribution is the plain tensor with the
    # conjugated transform, scaled by (2 pi)^(-1/2)
    from phasekit.grid import fourier_1d

    g = states.gaussian(GRID)
    h = states.hermite(GRID, 2)
    W0 = wigner_fractional(g, h, 0.0)
    hhat = fourier_1d(h)
    ref = np.outer(g.values, np.conj(hhat.values)) / np.sqrt(TWO_PI)
    assert np.max(np.abs(W0.values - ref)) < 1e-12


def test_sesquilinearity():
    from phasekit.grid import SampledFunction1D

    rng = np.random.default_rng(52)
    psi = states.random_wave(GRID, rng)
    phi = states.random_wave(GRID, rng)
    z = 1.3 - 0.7j
    W = wigner_fractional(psi, phi, 0.5)
    Wz = wigner_fractional(psi, SampledFunction1D(GRID, z * phi.values), 0.5)
    assert np.max(np.abs(Wz.values - np.conj(z) * W.values)) < 1e-12


def test_overlap_identity():
    # <W(p1,q1), W(p2,q2)> = <p1,p2> conj(<q1,q2>) / (2 pi), any angle
    rng = np.random.default_rng(53)
    for theta in (0.0, 0.1, THETA_WIGNER, 2.0 * THETA_WIGNER):
        p1, q1 = states.random_wave(GRID, rng), states.random_wave(GRID, rng)
        p2, q2 = states.random_wave(GRID, rng), states.random_wave(GRID, rng)
        lhs = wigner_fractional(p1, q1, theta).inner(wigner_fractional(p2, q2, theta))
        rhs = p1.inner(p2) * np.conj(q1.inner(q2)) / TWO_PI
        assert abs(lhs - rhs) / abs(rhs) < 1e-7


def test_distinguished_angle_realness():
    # diagonal distributions are real at the distinguished angle; the wide
    # box keeps edge seam mass out of the imaginary part
    grid = Grid1D.centered(256, 10.0)
    coeffs = np.array([1.0, 0.6j, -0.3, 0.2j])
    vals = sum(
        c * states.hermite(grid, m).values for m, c in enumerate(coeffs)
    )
    from phasekit.grid import SampledFunction1D

    psi = SampledFunction1D(grid, vals / np.linalg.norm(vals) / np.sqrt(grid.dx))
    W = wigner_metaplectic(psi, psi)
    assert np.max(np.abs(W.values.imag)) < 1e-9


def test_zero_angle_not_real_for_chirp():
    grid = Grid1D.centered(256, 10.0)
    c = states.chirp(grid)
    W0 = wigner_fractional(c, c, 0.0)
    assert np.max(np.abs(W0.values.imag)) > 0.01


def test_conjugation_parity():
    # conj W(psi, phi) = p-flip of W(conj psi, conj phi), at every angle
    rng = np.random.default_rng(54)
    psi = states.random_wave(GRID, rng)
    phi = states.random_wave(GRID, rng)
    from phasekit.grid import conjugate

    for theta in (0.2, THETA_WIGNER):
        W = wigner_fractional(psi, phi, theta)
        Wc = wigner_fractional(conjugate(psi), conjugate(phi), theta)
        assert np.max(np.abs(np.conj(W.values) - _pflip(Wc.values, 1))) < 1e-6


def test_position_marginal():
    for state in (states.gaussian(GRID), states.hermite(GRID, 2)):
        W = wigner_metaplectic(state, state)
        marg = position_marginal(W)
        ref = np.abs(state.values) ** 2
        assert np.max(np.abs(marg.values - ref)) < 1e-7


def test_windowed_reconstruction():
    rng = np.random.default_rng(55)
    psi = states.random_wave(GRID, rng)
    window = Window(states.gaussian(GRID))
    for theta in (0.0, THETA_WIGNER):
        F = windowed_transform(psi, window, theta)
        back = windowed_adjoint(F, window, theta)
        assert np.max(np.abs(back.values - psi.values)) < 1e-6


def test_windowed_transform_isometry():
    rng = np.random.default_rng(56)
    psi = states.random_wave(GRID, rng)
    window = Window(states.gaussian(GRID))
    F = windowed_transform(psi, window, THETA_WIGNER)
    assert F.norm() == pytest.approx(psi.norm(), rel=1e-10)


def test_windowed_adjointness():
    rng = np.random.default_rng(57)
    psi = states.random_wave(GRID, rng)
    window = Window(states.gaussian(GRID))
    F = random_phase_wave(GRID, GRID.dual(), rng)
    theta = THETA_WIGNER
    lhs = F.inner(windowed_transform(psi, window, theta))
    rhs = windowed_adjoint(F, window, theta).inner(psi)
    assert abs(lhs - rhs) / (F.norm() * psi.norm()) < 1e-8


def test_windowed_projection_idempotent():
    rng = np.random.default_rng(58)
    F = random_phase_wave(GRID, GRID.dual(), rng)
    window = Window(states.gaussian(GRID))
    P1 = windowed_projection(F, window, THETA_WIGNER)
    P2 = windowed_projection(P1, window, THETA_WIGNER)
    assert np.max(np.abs(P2.values - P1.values)) < 1e-6


def test_window_rejects_zero_and_renormalizes():
    from phasekit.grid import SampledFunction1D

    with pytest.raises(ConfigurationError):
        Window(SampledFunction1D(GRID, np.zeros(GRID.n)))
    with pytest.warns(UserWarning):
        w = Window(SampledFunction1D(GRID, 3.0 * states.gaussian(GRID).values))
    assert w.state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_window_refuses_a_non_finite_norm(bad):
    # one non-finite sample: refused by name before any renormalizing
    # warning, not an all-NaN or broken window
    values = states.gaussian(GRID).values.astype(complex)
    values[GRID.n // 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="window norm must be finite .*, got"):
            Window(SampledFunction1D(GRID, values))


@pytest.mark.parametrize("grid_p", [Grid1D.centered(GRID.n // 2, 8.0),
                                    Grid1D.centered(GRID.n, 8.0)])
def test_windowed_adjoint_refuses_a_momentum_grid_off_the_dual(grid_p):
    # a p grid of another size would fail in the final matmul; one of the
    # same size that is not grid_x.dual() would integrate against window
    # samples from other frequencies: both are refused, naming the grids
    window = Window(states.gaussian(GRID))
    values = windowed_transform(states.hermite(GRID, 1), window, THETA_WIGNER).values
    phase = PhaseFunction2D(GRID, grid_p, values[:, :grid_p.n])
    with pytest.raises(ConfigurationError,
                       match=r"phase function grids Grid1D\(n=256.*, Grid1D\(n=%d.* are not "
                             r"window grid Grid1D\(n=256.* and its dual Grid1D\(n=256" % grid_p.n):
        windowed_adjoint(phase, window, THETA_WIGNER)


def test_grid_mismatch_rejected():
    g = states.gaussian(GRID)
    other = states.gaussian(Grid1D.centered(128, 8.0))
    with pytest.raises(ConfigurationError):
        wigner_metaplectic(g, other)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_rejected(bad):
    # each entry point refuses the angle by name: the Wigner-angle test
    # through _finite_angle, the propagator through shear_factorization
    g = states.gaussian(GRID)
    window = Window(g)
    sym = symbol_oscillator(GRID)
    calls = (
        lambda: _is_wigner_angle(bad),
        lambda: wigner_fractional(g, g, bad),
        lambda: windowed_transform(g, window, bad),
        lambda: theta_symbol(sym, bad),
        lambda: theta_product(sym, sym, bad),
    )
    for call in calls:
        with pytest.raises(ConfigurationError, match=f"theta={bad}"):
            call()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.floats(2.0, 16.0), st.floats(-PERIOD, PERIOD),
       st.integers(0, 2**32 - 1))
def test_fractional_distribution_is_sesquilinear(half_n, half_width, theta, seed):
    # linear in psi and conjugate-linear in phi, at every angle and grid
    grid = Grid1D.centered(2 * half_n, half_width)
    rng = np.random.default_rng(seed)
    psi1, psi2, phi1, phi2 = (
        SampledFunction1D(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        for _ in range(4))
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    def dist(psi, phi):
        return wigner_fractional(psi, phi, theta).values

    def combine(f, g):
        return SampledFunction1D(grid, a * f.values + b * g.values)

    w11, w21, w12 = dist(psi1, phi1), dist(psi2, phi1), dist(psi1, phi2)
    linear = dist(combine(psi1, psi2), phi1) - (a * w11 + b * w21)
    antilinear = dist(psi1, combine(phi1, phi2)) - (np.conj(a) * w11 + np.conj(b) * w12)
    scale = abs(a) * np.linalg.norm(w11) + abs(b) * max(np.linalg.norm(w21),
                                                        np.linalg.norm(w12))
    assert np.linalg.norm(linear) <= 1e-13 * scale
    assert np.linalg.norm(antilinear) <= 1e-13 * scale
