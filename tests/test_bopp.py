"""Phase-plane operator realizations: spectra, dynamics, intertwining."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings, strategies as st

from helpers import (count_calls, count_fft_passes, evolve_dense, generator_word_oracle,
                     krylov_evolve_per_step, plane_action_oracle, random_phase_wave)
from phasekit import bopp, metaplectic, states, weyl
from phasekit.bopp import (
    PhaseOperator,
    REPRESENTATIONS,
    _KRYLOV_CHECK,
    _KRYLOV_MAX_DIM,
    _action,
    _cluster,
    _held_plan,
    _in_plane,
    _krylov_evolve,
    bopp_intertwining_residual,
    bopp_spectrum,
    dense_matrix,
    evolve_pair,
)
from phasekit.grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SampledFunction1D,
    _centered_fft,
    _fft_pass,
    fourier_1d,
)
from phasekit.metaplectic import _Plan, _chirp, _into_frame, _propagate_values
from phasekit.symplectic import THETA_WIGNER
from phasekit.weyl import (
    OperatorKernel,
    Symbol2D,
    expectation,
    kernel_to_symbol,
    polynomial_symbol,
    symbol_oscillator,
    symbol_x,
    symbol_xi,
)
from phasekit.wigner import Window, windowed_transform


def _window(grid):
    return Window(states.gaussian(grid))


def _checkerboard(n):
    """The harness frame M = D (x) D, D = diag((-1)^j), as a table."""
    return (-1.0) ** np.add.outer(np.arange(n), np.arange(n))


def test_representation_validation():
    grid = Grid1D.centered(32, 6.0)
    sym = symbol_oscillator(grid)
    for rep in REPRESENTATIONS:
        PhaseOperator(sym, rep)
    with pytest.raises(ConfigurationError):
        PhaseOperator(sym, "sideways")
    # the left star product needs no polynomial tag: every realization
    # takes an untagged symbol
    x = grid.nodes()[:, None]
    xi = grid.dual().nodes()[None, :]
    plain = Symbol2D(grid, grid.dual(),
                     np.exp(-(x**2) - xi**2).astype(complex))
    F = random_phase_wave(grid, grid.dual(), np.random.default_rng(2))
    for rep in REPRESENTATIONS:
        assert np.all(np.isfinite(PhaseOperator(plain, rep).apply(F).values))


def test_conjugated_and_direct_agree_on_smooth_data():
    # the conjugation route, the left star product and the generator word
    # realize the same operator; compare them on a smooth decaying lift,
    # where the flow's wraparound stays below tolerance (the dense matrices
    # themselves differ off that subspace, because basis deltas wrap)
    grid = Grid1D.centered(64, 10.0)
    lifted = windowed_transform(states.hermite(grid, 2), _window(grid), THETA_WIGNER)
    # the mixed words x*xi^2, x^2*xi^2 and x^3*xi exercise every ordering
    # branch of the symmetric expansion
    mixed = []
    for word in ((1, 2), (2, 2), (3, 1)):
        coeffs = np.zeros((4, 4))
        coeffs[word] = 1.0
        mixed.append(polynomial_symbol(coeffs, grid))
    # and an untagged decaying symbol, which keeps psi_2 (exp(-x^2 - xi^2)
    # quantizes to a multiple of the ground-state projector, which kills it)
    x, xi = grid.nodes()[:, None], grid.dual().nodes()[None, :]
    decaying = Symbol2D(grid, grid.dual(), np.exp(-0.5 * x**2 - 0.5 * xi**2).astype(complex))
    for sym in (symbol_x(grid), symbol_xi(grid), symbol_oscillator(grid), *mixed, decaying):
        conj = PhaseOperator(sym, "bopp_conjugated").apply(lifted)
        direct = PhaseOperator(sym, "bopp_direct").apply(lifted)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(conj.values - direct.values)) < 1e-6 * scale
        if sym.poly is not None:
            word = generator_word_oracle(sym, grid, grid.dual())(lifted.values)
            assert np.max(np.abs(word - direct.values)) < 1e-6 * scale


def test_dense_assemblies_are_self_adjoint():
    # unitary conjugation preserves the hermitian kernel exactly, and the
    # dictionary behind the left star product is unitary up to one scale
    grid = Grid1D.centered(32, 6.0)
    sym = symbol_oscillator(grid)
    for rep in ("extended", "bopp_conjugated", "bopp_direct"):
        M = dense_matrix(PhaseOperator(sym, rep))
        scale = np.max(np.abs(M))
        assert np.max(np.abs(M - M.conj().T)) < 1e-10 * scale


def test_intertwining_residuals():
    grid = Grid1D.centered(64, 10.0)
    window = _window(grid)
    h = states.hermite(grid, 1)
    for sym in (symbol_oscillator(grid), symbol_x(grid)):
        for rep in ("extended", "bopp_conjugated"):
            res = bopp_intertwining_residual(sym, h, window, rep)
            assert res < 1e-5


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_residual_quantizes_the_symbol_once(monkeypatch, representation):
    # the phase-plane action is built from the kernel the residual holds,
    # not from a second quantization of the symbol
    grid = Grid1D.centered(32, 6.0)
    calls = count_calls(monkeypatch, weyl, ("mccoy_kernel",))
    residual = bopp_intertwining_residual(symbol_oscillator(grid), states.coherent(grid, 0.8),
                                          _window(grid), representation)
    assert calls == ["mccoy_kernel"]
    assert np.isfinite(residual)


def test_oscillator_spectrum():
    grid = Grid1D.centered(64, 8.0)
    report = bopp_spectrum(symbol_oscillator(grid), 5, _window(grid),
                           representation="bopp_conjugated")
    for k, lam in enumerate(report.eigenvalues):
        assert lam == pytest.approx(k + 0.5, abs=1e-3)
    # every cluster is massively degenerate in the plane
    assert all(m >= 1 for m in report.multiplicities)
    assert report.pairing == {k: k for k in range(5)}
    push = report.pushforward_residuals
    assert np.all(np.isfinite(push))
    assert float(np.max(push)) < 1e-4


def test_spectrum_representation_invariance():
    # eigenvalue clusters agree between extended and conjugated pictures
    grid = Grid1D.centered(48, 9.0)
    window = _window(grid)
    r1 = bopp_spectrum(symbol_oscillator(grid), 4, window,
                       representation="extended")
    r2 = bopp_spectrum(symbol_oscillator(grid), 4, window,
                       representation="bopp_conjugated")
    # pair by nearest value; ordering inside clusters can differ
    for lam in r1.eigenvalues:
        assert np.min(np.abs(r2.eigenvalues - lam)) < 2e-3


def test_spectrum_rejects_non_hermitian():
    grid = Grid1D.centered(32, 6.0)
    x = grid.nodes()[:, None]
    xi = grid.dual().nodes()[None, :]
    sym = Symbol2D(grid, grid.dual(),
                   (np.exp(-(x**2) - xi**2) * (1.0 + 0.5j)).astype(complex))
    with pytest.raises(ConfigurationError):
        bopp_spectrum(sym, 3, _window(grid))


def test_gaussian_symbol_spectrum_is_geometric():
    # a bounded non-polynomial symbol with a closed-form spectrum: the
    # quantization of exp(-(x^2 + xi^2)/2) has eigenvalues (2/3)(1/3)^k
    # (the unit-width gaussian quantizes to half a rank-one projector,
    # which pins the ratio).  ascending clusters start with a glob of the
    # geometric tail, then the first two resolvable rungs, each carrying
    # one copy per spectator momentum node.  half-width 8 keeps the
    # symbol's edge values (hence the kernel's conj-symmetry defect)
    # below the self-adjointness gate.
    grid = Grid1D.centered(48, 8.0)
    x = grid.nodes()[:, None]
    xi = grid.dual().nodes()[None, :]
    sym = Symbol2D(grid, grid.dual(),
                   np.exp(-0.5 * x**2 - 0.5 * xi**2).astype(complex))
    report = bopp_spectrum(sym, 3, _window(grid), gap=1e-3)
    assert len(report.eigenvalues) == 3
    assert np.all(np.array(report.residuals) < 1e-8)
    geometric = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(8)
    assert report.eigenvalues[1] == pytest.approx(geometric[5], abs=1e-6)
    assert report.eigenvalues[2] == pytest.approx(geometric[4], abs=1e-6)
    assert report.multiplicities[1] == grid.n
    assert report.multiplicities[2] == grid.n
    # paired reference values match the clusters to the pairing gap
    for k, ref_idx in report.pairing.items():
        assert abs(report.eigenvalues[k]
                   - report.reference_eigenvalues[ref_idx]) < 1e-3


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.floats(2.0, 8.0), st.integers(0, 2**32 - 1),
       st.sampled_from(("extended", "bopp_conjugated")))
def test_plane_spectrum_is_the_1d_spectrum_n_times(half_n, half_width, seed,
                                                    representation):
    # the lifts against an orthonormal window family are unitary, so the
    # assembled plane operator has each 1D level once per window; the
    # dense eigensolve is the oracle for the lifted report
    grid = Grid1D.centered(2 * half_n, half_width)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    sym = kernel_to_symbol(OperatorKernel(grid, (a + a.conj().T) / 2.0))
    op = PhaseOperator(sym, representation)
    g = states.gaussian(grid)
    window = Window(SampledFunction1D(grid, g.values / g.norm()))
    gap = 1e-4
    ref = bopp_spectrum(sym, 1, window, representation, gap).reference_eigenvalues
    scale = max(1.0, float(np.max(np.abs(ref))))
    # clustering at a threshold is ill-conditioned; keep level spacings
    # clear of the gap by far more than rounding
    assume(np.all(np.abs(np.diff(ref) - gap) > 1e-8 * scale))
    count = len(_cluster(ref, gap))
    report = bopp_spectrum(sym, count, window, representation, gap)
    dense = np.linalg.eigvalsh(dense_matrix(op))
    assert np.max(np.abs(dense - np.repeat(report.reference_eigenvalues, grid.n))) \
        <= 1e-10 * scale
    clusters = _cluster(dense, gap)
    assert [c.stop - c.start for c in clusters] == list(report.multiplicities)
    means = np.array([dense[c].mean() for c in clusters])
    assert np.max(np.abs(means - report.eigenvalues)) <= 1e-10 * scale
    assert np.max(report.residuals) <= 1e-10 * scale


def test_direct_spectrum_reports_the_wrap_defect():
    # on a small box the windowed lifts wrap, so they are no eigenvectors
    # of the left star product, whose spectrum is the 1D one exactly; the
    # report keeps the 1D levels and shows the defect in the residuals
    # instead of returning unpaired wrap clusters
    grid = Grid1D.centered(16, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = bopp_spectrum(symbol_oscillator(grid), 2, _window(grid),
                               representation="bopp_direct")
    assert report.pairing == {0: 0, 1: 1}
    assert np.array_equal(report.eigenvalues, report.reference_eigenvalues[:2])
    assert np.all(report.residuals > 1e-2)


def test_cluster_residual_is_the_worst_over_every_eigenstate_window():
    # the ground cluster's residual is the worst over the lifts against all
    # n eigenstate windows, each lift taken here by the centred propagator
    # and the action applied on the plane; the worst is the last window's
    # (12.10), so leaving out a window shows (8.84 without it)
    grid = Grid1D.centered(32, 6.0)
    symbol = symbol_oscillator(grid)
    report = bopp_spectrum(symbol, 1, _window(grid), "bopp_direct")
    op = PhaseOperator(symbol, "bopp_direct")
    h = grid.dx * op.kernel().values
    levels, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    vectors = vectors / math.sqrt(grid.dx)
    residuals = []
    for j in range(grid.n):
        row = fourier_1d(SampledFunction1D(grid, vectors[:, j])).values.conj()
        lift = _propagate_values(np.outer(vectors[:, 0], row), grid, grid.dual(), THETA_WIGNER)
        defect = op.apply(PhaseFunction2D(grid, grid.dual(), lift)).values - levels[0] * lift
        residuals.append(np.linalg.norm(defect) / np.linalg.norm(lift))
    assert report.residuals[0] == pytest.approx(max(residuals), rel=1e-9)
    assert int(np.argmax(residuals)) == grid.n - 1


@pytest.mark.filterwarnings("error")
def test_a_relative_self_adjoint_defect_of_2e_5_is_refused_and_warned():
    # the oscillator's kernel plus 1e-5 max|K| i I deviates from
    # conj-symmetry by 2e-5 relative, far above SELF_ADJOINT_TOL: both
    # harnesses refuse its symbol and expectation warns
    grid = Grid1D.centered(16, 5.0)
    K = PhaseOperator(symbol_oscillator(grid)).kernel().values
    symbol = kernel_to_symbol(OperatorKernel(grid, K + 1e-5 * np.abs(K).max() * 1j * np.eye(16)))
    window, psi0 = _window(grid), states.coherent(grid, 0.8)
    with pytest.raises(ConfigurationError, match="requires a self-adjoint operator"):
        bopp_spectrum(symbol, 1, window)
    with pytest.raises(ConfigurationError, match="requires a self-adjoint operator"):
        evolve_pair(symbol, psi0, window, 1.0, 2)
    with pytest.warns(UserWarning, match="deviates from self-adjointness"):
        assert not expectation(symbol, psi0).self_adjoint


def test_spectrum_refuses_grids_above_the_dense_cap():
    grid = Grid1D.centered(80, 8.0)
    with pytest.raises(ConfigurationError, match="capped at 64 points"):
        bopp_spectrum(symbol_oscillator(grid), 2, _window(grid))


def test_evolution_pictures_agree():
    grid = Grid1D.centered(32, 6.0)
    result = evolve_pair(symbol_oscillator(grid), states.coherent(grid, 0.8),
                         _window(grid), 2.0 * np.pi, 16)
    assert result.divergence < 1e-4
    assert result.state_norm_drift < 1e-8
    assert result.phase_norm_drift < 1e-8
    assert len(result.times) == len(result.divergences)
    assert result.times[-1] == pytest.approx(2.0 * np.pi)


def test_evolution_weighs_frame_norms_as_plane_norms():
    # a power-of-two scale of psi0 scales every intermediate exactly; once
    # the phase norm is below _RESIDUAL_FLOOR the divergences are plane-norm
    # defects over the floor, so they must follow the plane norm of psi0's
    # lift, which a wrong frame-norm weight misses by its own factor
    grid = Grid1D.centered(32, 6.0)
    window, symbol, psi0 = _window(grid), symbol_oscillator(grid), states.coherent(grid, 0.8)
    scale = 2.0 ** -60
    plane_norm = scale * windowed_transform(psi0, window, THETA_WIGNER).norm()
    assert plane_norm < bopp._RESIDUAL_FLOOR / 100
    big = evolve_pair(symbol, psi0, window, 2.0 * np.pi, 8)
    small = evolve_pair(symbol, SampledFunction1D(grid, scale * psi0.values), window,
                        2.0 * np.pi, 8)
    assert np.max(big.divergences) > 0
    want = big.divergences * (plane_norm / bopp._RESIDUAL_FLOOR)
    assert np.allclose(small.divergences, want, rtol=1e-8, atol=0.0)


def test_evolution_period_return():
    # after one oscillator period the coherent state returns to itself up
    # to the known global phase
    grid = Grid1D.centered(32, 6.0)
    psi0 = states.coherent(grid, 0.8)
    result = evolve_pair(symbol_oscillator(grid), psi0, _window(grid),
                         2.0 * np.pi, 8)
    phase = result.state.inner(psi0)
    aligned = result.state.values - phase * psi0.values
    # the discrete eigenvalues sit a few parts in 1e6 off k + 1/2 at this
    # resolution, and a full period turns that into visible dephasing
    assert np.max(np.abs(aligned)) < 1e-4
    assert abs(abs(phase) - 1.0) < 1e-9


def test_evolution_refuses_grids_above_the_dense_cap():
    # both pictures evolve exactly by eigendecomposition, so a grid the
    # dense assembly cannot hold is refused rather than approximated
    grid = Grid1D.centered(80, 8.0)
    with pytest.raises(ConfigurationError, match="capped at 64 points"):
        evolve_pair(symbol_oscillator(grid), states.gaussian(grid),
                    _window(grid), 0.5, 4)


@pytest.mark.parametrize("other", [Grid1D.centered(32, 7.0), Grid1D.centered(16, 6.0)])
def test_lifts_refuse_a_window_on_another_grid(other):
    # a window with the state's n but another half-width would give a wrong
    # lift without any error, one with another n a broadcasting error
    grid = Grid1D.centered(32, 6.0)
    symbol, psi0 = symbol_oscillator(grid), states.coherent(grid, 0.8)
    with pytest.raises(ConfigurationError, match="state and window live on different grids"):
        evolve_pair(symbol, psi0, _window(other), 0.5, 4)
    with pytest.raises(ConfigurationError, match="state and window live on different grids"):
        bopp_intertwining_residual(symbol, psi0, _window(other))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.floats(2.0, 8.0), st.integers(0, 2**32 - 1),
       st.sampled_from(("extended", "bopp_conjugated", "bopp_direct")),
       st.floats(0.5, 2.0 * np.pi), st.integers(1, 8))
def test_krylov_phase_matches_the_dense_oracle(half_n, half_width, seed,
                                               representation, t_final, steps):
    # the matrix-free Lanczos route evolves the operator the dense route
    # evolved, (M + M^H)/2 with M = dense_matrix(op), at every checkpoint;
    # it draws no random numbers and repeats bit for bit
    grid = Grid1D.centered(2 * half_n, half_width)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    sym = kernel_to_symbol(OperatorKernel(grid, (a + a.conj().T) / 2.0))
    raw = SampledFunction1D(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    psi0 = SampledFunction1D(grid, raw.values / raw.norm())
    g = states.gaussian(grid)
    window = Window(SampledFunction1D(grid, g.values / g.norm()))

    before = np.random.get_state()
    result = evolve_pair(sym, psi0, window, t_final, steps, representation)
    again = evolve_pair(sym, psi0, window, t_final, steps, representation)
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert np.array_equal(result.phase.values, again.phase.values)
    assert np.array_equal(result.divergences, again.divergences)
    assert result.krylov_dims == again.krylov_dims
    assert result.phase_norm_drift <= 1e-12

    op = PhaseOperator(sym, representation)
    h1 = grid.dx * op.kernel().values
    h1 = (h1 + h1.conj().T) / 2.0
    action = _action(op, grid, grid.dual(), h1)
    # the basis starts from the lift in the spectral frame, the x-transform
    # of the mixed plane (x, eta) in the checkerboard frame M = D (x) D; a
    # batched plain inverse pass along each axis and M bring the checkpoints
    # back to the plane
    M = _checkerboard(grid.n)
    lift0 = _held_plan(op, grid, grid.dual()).lift(window.transform.values)(psi0.values)
    mixed, dims = _krylov_evolve(
        lambda v: action(v.reshape(grid.n, grid.n)).reshape(-1), lift0.reshape(-1), result.times)
    krylov = (scipy.fft.ifft(scipy.fft.ifft(mixed.reshape(-1, grid.n, grid.n), axis=-2), axis=-1)
              * M).reshape(mixed.shape)
    assert np.array_equal(krylov[-1], result.phase.values.reshape(-1))
    assert tuple(dims) == result.krylov_dims
    start = (scipy.fft.ifft(scipy.fft.ifft(lift0, axis=-2), axis=-1) * M).reshape(-1)
    matrix = dense_matrix(op)
    hermitian = (matrix + matrix.conj().T) / 2.0
    dense = evolve_dense(hermitian, start, result.times).T
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(hermitian))))) \
        * np.linalg.norm(start)
    assert np.max(np.abs(krylov - dense)) <= 1e-10 * scale


def test_krylov_restarts_and_sub_steps_match_expm():
    # a spectral width of 1000 cannot be resolved over unit time by one
    # basis of _KRYLOV_MAX_DIM vectors: the first segment certifies the
    # two early checkpoints and restarts from the later one, and the long
    # interval that follows is covered by halved sub-steps
    from scipy.linalg import expm
    size = 3 * _KRYLOV_MAX_DIM
    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))
    hermitian = (basis * np.linspace(-500.0, 500.0, size)) @ basis.conj().T
    hermitian = (hermitian + hermitian.conj().T) / 2.0
    start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    start /= np.linalg.norm(start)
    times = np.array([0.0, 0.002, 0.004, 1.0])

    early, early_dims = _krylov_evolve(lambda v: hermitian @ v, start, times[:3])
    assert len(early_dims) == 1 and early_dims[0] < _KRYLOV_MAX_DIM
    out, dims = _krylov_evolve(lambda v: hermitian @ v, start, times)
    assert dims[0] == _KRYLOV_MAX_DIM
    # checkpoint restarts alone would need at most one segment per time
    assert len(dims) > times.size
    # Saad's estimate is not monotone in the dimension: with single-threaded
    # BLAS the per-vector rule's last segment stops at 105, where the
    # estimate dips under the tolerance, but it is above it at 108-124, so
    # the strided check stops at 125 (other BLAS rounding can make the two
    # agree); the restarts before it are the same, and both are certified
    want, want_dims = krylov_evolve_per_step(lambda v: hermitian @ v, start, times)
    assert dims[:-1] == want_dims[:-1]
    assert want_dims[-1] <= dims[-1] < _KRYLOV_MAX_DIM
    for k, t in enumerate(times):
        exact = expm(-1j * t * hermitian) @ start
        assert np.linalg.norm(out[k] - exact) < 1e-11
        assert np.linalg.norm(want[k] - exact) < 1e-11
    assert np.linalg.norm(out[:3] - early) < 1e-12


def _harness_start(n, half_width, representation):
    """evolve_pair's frame action and Lanczos start for the oscillator and
    coherent(0.8) under a Gaussian window."""
    grid = Grid1D.centered(n, half_width)
    op = PhaseOperator(symbol_oscillator(grid), representation)
    h = grid.dx * op.kernel().values
    action = _action(op, grid, grid.dual(), (h + h.conj().T) / 2.0)
    start = _held_plan(op, grid, grid.dual()).lift(_window(grid).transform.values)(
        states.coherent(grid, 0.8).values)
    return lambda v: action(v.reshape(n, n)).reshape(-1), start.reshape(-1)


def _strided_dims(monkeypatch, action, start):
    """The strided check's segment dimensions over 16 steps to 2 pi, asserted to be
    the per-vector rule's bases bit for bit (the skipped vectors re-checked in
    ascending order) with at most ceil(dim / 4) + 3 eigensolves per segment
    (_KRYLOV_CHECK is 4)."""
    times = np.linspace(0.0, 2.0 * np.pi, 17)
    want, want_dims = krylov_evolve_per_step(action, start, times)
    eighs = count_calls(monkeypatch, np.linalg, ("eigh",))
    got, dims = _krylov_evolve(action, start, times)
    assert dims == want_dims
    assert np.array_equal(got, want)
    assert len(eighs) <= sum(math.ceil(d / _KRYLOV_CHECK) + _KRYLOV_CHECK - 1 for d in dims)
    return dims


@pytest.mark.parametrize("n,half_width,representation", [
    (32, 6.0, "bopp_conjugated"), (32, 6.0, "extended"), (16, 5.0, "bopp_direct")])
def test_strided_check_keeps_the_per_vector_bases(monkeypatch, n, half_width, representation):
    # one segment each: each realization's spectrum is the 1D one, n levels
    # repeated, so these runs certify well below _KRYLOV_MAX_DIM
    dims = _strided_dims(monkeypatch, *_harness_start(n, half_width, representation))
    assert len(dims) == 1 and dims[0] < _KRYLOV_MAX_DIM


def test_strided_check_keeps_the_per_vector_bases_across_restarts(monkeypatch):
    # a fixed hermitian matrix of spectral width 60 over twice _KRYLOV_MAX_DIM
    # dimensions: no one basis reaches 2 pi, so the run restarts at least once
    rng = np.random.default_rng(9)
    size = 2 * _KRYLOV_MAX_DIM
    basis, _ = np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))
    hermitian = (basis * np.linspace(-30.0, 30.0, size)) @ basis.conj().T
    hermitian = (hermitian + hermitian.conj().T) / 2.0
    start = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    dims = _strided_dims(monkeypatch, lambda v: hermitian @ v, start / np.linalg.norm(start))
    assert len(dims) > 1 and dims[0] == _KRYLOV_MAX_DIM


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_evolution_at_the_dense_cap(representation):
    # n=64 is beyond what the dense n^2 x n^2 route could evolve in a test
    # run; the Lanczos route keeps the exact intertwining there
    grid = Grid1D.centered(64, 8.0)
    result = evolve_pair(symbol_oscillator(grid), states.coherent(grid, 0.8),
                         _window(grid), 2.0 * np.pi, 16, representation)
    assert np.isfinite(result.divergence)
    if representation != "bopp_direct":
        assert result.divergence < 1e-10
        assert result.state_norm_drift < 1e-12
        assert result.phase_norm_drift < 1e-12
    else:
        # the left star product's spectrum is the 1D one exactly: one Lanczos
        # segment; the lifts it is compared with wrap at 4.7e-6
        assert len(result.krylov_dims) == 1
        assert result.divergence < 1e-5


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_evolution_rejects_a_non_finite_final_time(bad):
    # nan slips past a plain `t_final < 0` guard and inf builds nan times
    grid = Grid1D.centered(16, 5.0)
    with pytest.raises(ConfigurationError, match="t_final must be finite"):
        evolve_pair(symbol_oscillator(grid), states.gaussian(grid),
                    _window(grid), bad, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_spectrum_rejects_a_non_finite_gap(bad):
    # a negative gap would put every level in a cluster of its own
    grid = Grid1D.centered(16, 5.0)
    with pytest.raises(ConfigurationError, match="gap must be finite and nonnegative"):
        bopp_spectrum(symbol_oscillator(grid), 2, _window(grid), gap=bad)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_dense_matrix_is_the_apply_map(representation):
    grid = Grid1D.centered(32, 6.0)
    op = PhaseOperator(symbol_oscillator(grid), representation)
    M = dense_matrix(op)
    rng = np.random.default_rng(81)
    F = random_phase_wave(grid, grid.dual(), rng)
    out = op.apply(F)
    ref = (M @ F.values.reshape(-1)).reshape(F.values.shape)
    assert np.max(np.abs(out.values - ref)) < 1e-10


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_apply_rejects_a_mismatched_position_grid(representation):
    grid = Grid1D.centered(32, 6.0)
    op = PhaseOperator(symbol_oscillator(grid), representation)
    other = Grid1D.centered(32, 7.0)
    F = random_phase_wave(other, other.dual(), np.random.default_rng(5))
    with pytest.raises(ConfigurationError, match="position grid"):
        op.apply(F)


def test_direct_apply_refuses_a_momentum_grid_off_the_dual():
    # the left star product reads the values as a symbol on the operator's
    # grids, so a phase function over another momentum grid is refused
    grid = Grid1D.centered(32, 6.0)
    F = random_phase_wave(grid, Grid1D.centered(32, 7.0), np.random.default_rng(5))
    with pytest.raises(ConfigurationError, match="symbol.s own grids"):
        PhaseOperator(symbol_oscillator(grid), "bopp_direct").apply(F)


def _conjugated_action_and_batch():
    grid = Grid1D.centered(32, 6.0)
    op = PhaseOperator(symbol_oscillator(grid), "bopp_conjugated")
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((3, 32, 32)) + 1j * rng.standard_normal((3, 32, 32))
    return grid, grid.dx * op.kernel().values, _action(op, grid, grid.dual()), batch


def _whole_tables(grid, angle):
    """Each shear's chirp of a fresh plan at `angle`, as one whole n x n table."""
    return [_chirp(np.ones((grid.n, grid.n), complex), tables)
            for _, tables in _Plan(grid, grid.dual(), angle).shears]


def test_conjugated_action_with_held_plans_is_the_spectral_frame_route():
    # the map builds its two plans once; every call must still equal the
    # fresh-plan route in the spectral frame bit for bit, batched or not,
    # each chirp one multiply by its whole table: the x-chirp at
    # -THETA_WIGNER, the plain inverse x-transform, the plain eta-transform,
    # the eta-chirp at -THETA_WIGNER, the kernel D K D, the eta-chirp at
    # THETA_WIGNER, the plain inverse eta-transform, the plain x-transform
    # and the x-chirp at THETA_WIGNER; and the map leaves its argument as it
    # was
    grid, K, action, batch = _conjugated_action_and_batch()
    DKD = K * _checkerboard(grid.n)
    for v in (batch[0], batch, batch[1]):
        kept = v.copy()
        x_down, eta_down = _whole_tables(grid, -THETA_WIGNER)
        eta_up, x_up = _whole_tables(grid, THETA_WIGNER)
        mixed = scipy.fft.fft(scipy.fft.ifft(v * x_down, axis=-2), axis=-1)
        mixed = (DKD @ (mixed * eta_down)) * eta_up
        want = scipy.fft.fft(scipy.fft.ifft(mixed, axis=-1), axis=-2) * x_up
        assert np.array_equal(action(v), want)
        assert np.array_equal(v, kept)


def test_held_maps_expand_their_chirps_once(monkeypatch):
    # the held plans at THETA_WIGNER (for the lifts) and at -THETA_WIGNER
    # (the conjugated action's inverse) each expand their two hi/lo chirps
    # into whole tables once per process; building the action and the lifts
    # again, and applying either, chirps by whole tables alone: 4 per
    # action, 2 per lift
    metaplectic._plan.cache_clear()
    grid = Grid1D.centered(32, 6.0)
    rng = np.random.default_rng(29)
    batch = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
    op = PhaseOperator(symbol_oscillator(grid))
    chirps, chirp = [], metaplectic._chirp

    def recorded(spec, tables, *args):
        chirps.append("whole" if len(tables) == 1 else "hi/lo")
        return chirp(spec, tables, *args)

    monkeypatch.setattr(metaplectic, "_chirp", recorded)
    window_ft = _window(grid).transform.values
    _held_plan(op, grid, grid.dual()).lift(window_ft)
    assert chirps == ["hi/lo"] * 2
    chirps.clear()
    _action(op, grid, grid.dual())
    assert chirps == ["hi/lo"] * 2
    chirps.clear()
    for _ in range(3):
        action = _action(op, grid, grid.dual())
        lift = _held_plan(op, grid, grid.dual()).lift(window_ft)
        action(batch)
        action(batch[0])
        lift(batch[0])
        lift(batch[0, 0])
    assert chirps == ["whole"] * 3 * (4 + 4 + 2 + 2)


@pytest.mark.parametrize("representation,plans,sheared", [
    ("bopp_conjugated", 2, 1), ("bopp_direct", 1, 1), ("extended", 1, 0)])
def test_harness_builds_its_plans_once_per_process(monkeypatch, representation, plans,
                                                     sheared):
    # whichever harness runs first on a grid builds the held plans: at
    # THETA_WIGNER with its two tables, for the lifts (the direct route's
    # lifts need it too), and for the conjugated action the plan at
    # -THETA_WIGNER with two more; for extended the identity plan, with no
    # table, which is its own inverse.  Every later bopp_spectrum or
    # evolve_pair call on the grid builds no plan and no table
    grid = Grid1D.centered(16, 5.0)
    window, symbol, psi0 = _window(grid), symbol_oscillator(grid), states.coherent(grid, 0.8)
    built = count_calls(monkeypatch, metaplectic, ("_Plan", "_chirp_tables"))
    runs = (lambda: bopp_spectrum(symbol, 2, window, representation),
            lambda: evolve_pair(symbol, psi0, window, 1.0, 4, representation))
    first = (["_Plan"] + ["_chirp_tables"] * 2 * sheared) * plans
    for order in (runs, runs[::-1]):
        metaplectic._plan.cache_clear()
        for k, run in enumerate(order + order):
            built.clear()
            run()
            assert built == (first if k == 0 else [])


def test_conjugated_action_with_held_plans_is_the_propagator_sandwich():
    # K acts along x and the transforms along p and eta, so wrapped in the
    # crossings into and out of the frame the fused map is the sandwich up
    # to rounding
    grid, K, action, batch = _conjugated_action_and_batch()
    sandwich = plane_action_oracle(PhaseOperator(symbol_oscillator(grid)), grid, grid.dual(), K)
    for v in (batch[0], batch, batch[1]):
        got = _in_plane(action, v)
        ref = sandwich(v)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 32), st.floats(2.0, 12.0), st.integers(0, 2**32 - 1),
       st.sampled_from(REPRESENTATIONS), st.integers(1, 3))
def test_spectral_frame_maps_match_the_plane_oracles(half_n, half_width, seed,
                                                      representation, batch):
    # each realization's map in the spectral frame, wrapped in the crossings
    # into and out of it, is the (x, p)-plane map it replaced: an exact
    # rewrite, so the two differ by rounding alone, batched or not
    grid = Grid1D.centered(2 * half_n, half_width)
    rng = np.random.default_rng(seed)
    # every monomial x^i xi^j of degree at most 3
    degree = np.add.outer(np.arange(4), np.arange(4))
    coeffs = np.where(degree <= 3, rng.uniform(-1.0, 1.0, (4, 4)), 0.0)
    op = PhaseOperator(polynomial_symbol(coeffs, grid), representation)
    values = (rng.standard_normal((batch, grid.n, grid.n))
              + 1j * rng.standard_normal((batch, grid.n, grid.n)))
    action = _action(op, grid, grid.dual())
    got = _in_plane(action, values)
    ref = plane_action_oracle(op, grid, grid.dual())(values)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_conjugated_action_takes_four_passes(monkeypatch):
    # in the spectral frame an x-shear is its chirp: an x-transform pair
    # and an eta-transform pair around the kernel; apply adds both
    # crossings, 2 passes each
    grid, _, action, batch = _conjugated_action_and_batch()
    passes = count_fft_passes(monkeypatch)
    action(batch)
    assert len(passes) == 4
    passes.clear()
    PhaseOperator(symbol_oscillator(grid)).apply(PhaseFunction2D(grid, grid.dual(), batch[0]))
    assert len(passes) == 8


def test_wigner_plans_end_and_start_with_an_eta_shear():
    # the fused conjugated route relies on this shape: the zero shear of
    # the midpoint map is skipped, leaving x then eta at -THETA_WIGNER and
    # eta then x at THETA_WIGNER
    grid = Grid1D.centered(32, 6.0)
    down, up = (_Plan(grid, grid.dual(), angle) for angle in (-THETA_WIGNER, THETA_WIGNER))
    assert [axis for axis, _ in down.shears] == [-2, -1]
    assert [axis for axis, _ in up.shears] == [-1, -2]
    # and the plan at -THETA_WIGNER mirrors the other: its tables are the
    # other's conjugated in reverse order, bit for bit
    for (_, tables), (_, mirrored) in zip(down.shears, up.shears[::-1]):
        assert all(np.array_equal(t, m.conj()) for t, m in zip(tables, mirrored))


def test_harness_steps_make_no_shift_call(monkeypatch):
    # in the spectral frame every pass is a plain one: an action of each
    # realization, a Lanczos run over it and a lift batch at each angle make
    # no fftshift or ifftshift call; only the crossing's modulation touches
    # the signs
    grid = Grid1D.centered(16, 5.0)
    rng = np.random.default_rng(23)
    start = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    actions = [_action(PhaseOperator(symbol_oscillator(grid), rep), grid, grid.dual())
               for rep in REPRESENTATIONS]
    window = _window(grid)
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    for action in actions:
        action(start)
        _krylov_evolve(lambda v: action(v.reshape(16, 16)).reshape(-1), start.reshape(-1),
                       np.array([0.0, 0.25]))
    for representation in REPRESENTATIONS:
        op = PhaseOperator(symbol_oscillator(grid), representation)
        _held_plan(op, grid, grid.dual()).lift(window.transform.values)(start[:2])
    assert shifts == []
    _centered_fft(start)  # the counter sees the centred pass's two shifts
    assert shifts == ["ifftshift", "fftshift"]


@pytest.mark.parametrize("n", [16, 18])
@pytest.mark.parametrize("angle", [0.0, THETA_WIGNER])
def test_frame_lift_is_the_centred_lift_taken_into_the_frame(n, angle):
    # the harnesses' lifts skip both crossings: the seed (D psi) (x) F(D conj(FT w))
    # under the plan, its last x-shear a chirp, is the centred windowed lift
    # taken into the spectral frame, the x-transform of the checkerboard
    # frame, for n/2 even and odd and for the lift angle of each realization
    # (0 for extended, THETA_WIGNER for both Bopp ones); at THETA_WIGNER the
    # caller's row's two eta passes are n times the reversal, which only a
    # window that is not even can tell from no reversal; a further window,
    # given as a state (its row F(D conj(FT w)) is a multiple of conj(D w),
    # F conj F = n conj), lifts in the same batch, ahead of the caller's
    grid = Grid1D.centered(n, 5.0)
    rng = np.random.default_rng(n)
    psi = SampledFunction1D(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    shifted = states.coherent(grid, 0.6 + 0.4j)
    shifted = Window(SampledFunction1D(grid, shifted.values / shifted.norm()))
    for representation, (window, other) in itertools.product(
            ["extended"] if angle == 0.0 else ["bopp_conjugated", "bopp_direct"],
            [(_window(grid), shifted), (shifted, _window(grid))]):
        plan = _held_plan(PhaseOperator(symbol_oscillator(grid), representation), grid,
                          grid.dual())
        assert plan.theta == angle
        batch = plan.lift(window.transform.values, other.state.values[None])(psi.values)
        single = plan.lift(window.transform.values)(psi.values)
        for got, w in ((single, window), (batch[0], other), (batch[1], window)):
            want = scipy.fft.fft(_into_frame(windowed_transform(psi, w, angle).values), axis=-2)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _cold_grid_tables():
    """Drop the per-grid tables a harness call builds on first use: the
    derivative matrix and its powers, and the held plans."""
    for cache in (weyl._derivative_matrix, weyl._derivative_power, metaplectic._plan):
        cache.cache_clear()


def test_evolution_makes_no_shift_call(monkeypatch):
    # the lifts of psi0 and its checkpoints are one plain batch in the frame
    # and only the returned phase leaves it: outside the Lanczos actions (4
    # passes each under bopp_conjugated) the window's row takes none (its two
    # eta passes are n times the reversal), 2 make the batch at THETA_WIGNER
    # and 2 the crossing back.  A segment
    # runs up to _KRYLOV_CHECK - 1 actions past its dimension, so the
    # actions are counted as run.  The first call on a grid also builds the
    # per-grid tables, with no shift call either; the passes are counted on
    # the next, the per-call route
    grid = Grid1D.centered(16, 5.0)
    window, symbol, psi0 = _window(grid), symbol_oscillator(grid), states.coherent(grid, 0.8)
    actions = []
    evolve = bopp._krylov_evolve

    def counted(action, start, times):
        return evolve(lambda v: actions.append(1) or action(v), start, times)

    monkeypatch.setattr(bopp, "_krylov_evolve", counted)
    _cold_grid_tables()
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    evolve_pair(symbol, psi0, window, 1.0, 4)
    passes.clear()
    actions.clear()
    result = evolve_pair(symbol, psi0, window, 1.0, 4)
    assert shifts == []
    assert len(passes) == 2 + 4 * len(actions) + 2
    dims = result.krylov_dims
    assert sum(dims) <= len(actions) < sum(dims) + _KRYLOV_CHECK * len(dims)


@pytest.mark.parametrize("n", [16, 18])
def test_eigenstate_window_rows_need_no_pass(n):
    # F(D conj(w)) for w = (dx/sqrt(2 pi)) F_c psi is (dx/sqrt(2 pi)) (-1)^(n/2) n
    # conj(D psi), the row bopp_spectrum builds for each eigenstate window
    grid = Grid1D.centered(n, 5.0)
    rng = np.random.default_rng(n)
    psi = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    weight = grid.dx / np.sqrt(2.0 * np.pi)
    want = _fft_pass(np.conj(weight * _centered_fft(psi)) * sign, -1, False)
    got = weight * (-1) ** (n // 2) * n * np.conj(psi * sign)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_spectrum_makes_no_shift_call(monkeypatch):
    # neither the first call on a grid, which builds the per-grid tables,
    # nor a later one makes a shift call; the passes are the later call's
    grid = Grid1D.centered(16, 5.0)
    window, symbol = _window(grid), symbol_oscillator(grid)
    _cold_grid_tables()
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    bopp_spectrum(symbol, 2, window)
    passes.clear()
    bopp_spectrum(symbol, 2, window)
    assert shifts == []
    # per member a 2-pass lift at THETA_WIGNER and the 4-pass conjugated
    # action; outside them the n eigenstate rows take one eta pass and the
    # caller's window row none
    assert len(passes) == 1 + 2 * (2 + 4)


def test_direct_action_makes_two_passes_and_no_shift_call(monkeypatch):
    # the left star product reads the spectral frame's eta as the dictionary's
    # separation: one inverse x pass to the kernels, one forward x pass back,
    # for any symbol, tagged or not, and no fftshift or ifftshift
    grid = Grid1D.centered(32, 6.0)
    batch = np.random.default_rng(3).standard_normal((2, 32, 32)).astype(complex)
    x, xi = grid.nodes()[:, None], grid.dual().nodes()[None, :]
    decaying = Symbol2D(grid, grid.dual(), np.exp(-(x**2) - xi**2).astype(complex))
    actions = [_action(PhaseOperator(symbol, "bopp_direct"), grid, grid.dual())
               for symbol in (symbol_x(grid), symbol_oscillator(grid), decaying)]
    shifts = count_calls(monkeypatch, np.fft, ("fftshift", "ifftshift"))
    passes = count_fft_passes(monkeypatch)
    for action in actions:
        passes.clear()
        action(batch)
        assert len(passes) == 2
    assert shifts == []


@pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0), "2", 0])
def test_spectrum_refuses_a_count_that_is_no_positive_integer(bad):
    grid = Grid1D.centered(16, 5.0)
    with pytest.raises(ConfigurationError, match="count must be an integer"):
        bopp_spectrum(symbol_oscillator(grid), bad, _window(grid))


@pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0), "2", 0])
def test_evolution_refuses_steps_that_are_no_positive_integer(bad):
    grid = Grid1D.centered(16, 5.0)
    with pytest.raises(ConfigurationError, match="steps must be an integer"):
        evolve_pair(symbol_oscillator(grid), states.gaussian(grid), _window(grid), 0.5, bad)


def test_counts_accept_numpy_integers():
    grid = Grid1D.centered(16, 5.0)
    report = bopp_spectrum(symbol_oscillator(grid), np.int64(2), _window(grid))
    assert len(report.eigenvalues) == 2
    result = evolve_pair(symbol_oscillator(grid), states.gaussian(grid), _window(grid),
                         0.5, np.int32(2))
    assert result.times.size == 3
