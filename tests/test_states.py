"""Built-in analytic states."""

import numpy as np
import pytest

from helpers import random_phase_wave
from phasekit import states
from phasekit.grid import Grid1D, fourier_1d


def test_gaussian_unit_norm():
    g = states.gaussian(Grid1D.centered(256, 10.0))
    assert g.norm() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_is_fourier_fixed_point():
    # the transform lives on the dual lattice, so compare against the same
    # closed form sampled there
    grid = Grid1D.centered(256, 10.0)
    g = states.gaussian(grid)
    ghat = fourier_1d(g)
    ref = states.gaussian(grid.dual())
    assert np.max(np.abs(ghat.values - ref.values)) < 1e-12


def test_hermite_orthonormal():
    grid = Grid1D.centered(256, 10.0)
    basis = [states.hermite(grid, m) for m in range(6)]
    for i, f in enumerate(basis):
        for j, h in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(f.inner(h) - want) < 1e-10


def test_hermite_fourier_eigenvector():
    # FT has eigenvalue (-i)^m on the m-th mode
    grid = Grid1D.centered(256, 10.0)
    for m in range(4):
        f = states.hermite(grid, m)
        fhat = fourier_1d(f)
        ref = states.hermite(grid.dual(), m)
        assert np.max(np.abs(fhat.values - (-1j) ** m * ref.values)) < 1e-10


def test_coherent_center():
    grid = Grid1D.centered(256, 10.0)
    alpha = 0.6 + 0.4j
    f = states.coherent(grid, alpha)
    assert f.norm() == pytest.approx(1.0, abs=1e-12)
    x = grid.nodes()
    mean_x = grid.dx * np.sum(x * np.abs(f.values) ** 2)
    assert mean_x == pytest.approx(np.sqrt(2.0) * 0.6, abs=1e-10)
    # momentum center via the transform
    fhat = fourier_1d(f)
    p = grid.dual().nodes()
    mean_p = grid.dual().dx * np.sum(p * np.abs(fhat.values) ** 2)
    assert mean_p == pytest.approx(np.sqrt(2.0) * 0.4, abs=1e-10)


def test_coherent_at_origin_is_gaussian():
    grid = Grid1D.centered(256, 10.0)
    f = states.coherent(grid, 0.0)
    g = states.gaussian(grid)
    assert np.max(np.abs(f.values - g.values)) < 1e-14


def test_chirp_envelope():
    grid = Grid1D.centered(256, 10.0)
    c = states.chirp(grid, 0.8)
    g = states.gaussian(grid)
    assert np.max(np.abs(np.abs(c.values) - np.abs(g.values))) < 1e-14
    assert c.norm() == pytest.approx(1.0, abs=1e-12)


def test_random_wave_deterministic_and_normalized():
    grid = Grid1D.centered(128, 8.0)
    f1 = states.random_wave(grid, np.random.default_rng(7))
    f2 = states.random_wave(grid, np.random.default_rng(7))
    f3 = states.random_wave(grid, np.random.default_rng(8))
    assert np.array_equal(f1.values, f2.values)
    assert not np.array_equal(f1.values, f3.values)
    assert f1.norm() == pytest.approx(1.0, abs=1e-12)


def test_random_phase_wave_shapes():
    grid = Grid1D.centered(64, 8.0)
    F = random_phase_wave(grid, grid.dual(), np.random.default_rng(9))
    assert F.values.shape == (64, 64)
    assert F.norm() == pytest.approx(1.0, abs=1e-12)
