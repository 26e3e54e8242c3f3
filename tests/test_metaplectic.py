"""Unitary propagator on the phase plane: group structure and generator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import count_fft_passes, factorization_matrix
from phasekit import states
from phasekit.grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    _centered_fft,
    _fft_pass,
)
from phasekit.metaplectic import (
    ShearFactorization,
    _Plan,
    _chirp_tables,
    _plain_shear,
    _propagate_values,
    generator_apply,
    propagate,
    shear_factorization,
    substitution_matrix,
)
from phasekit.symplectic import PERIOD, THETA_WIGNER, flow_matrix
from phasekit.wigner import wigner_metaplectic


def _test_function(n=128, half_width=10.0, seed=41):
    grid = Grid1D.centered(n, half_width)
    rng = np.random.default_rng(seed)
    psi = states.random_wave(grid, rng)
    phi = states.random_wave(grid, rng)
    return wigner_metaplectic(psi, phi)


def test_identity_flow_is_exact():
    F = _test_function()
    out = propagate(F, 0.0)
    assert np.array_equal(out.values, F.values)


def test_full_period_is_exact_identity_path():
    # the period reduction lands exactly on the identity fast path
    F = _test_function()
    out = propagate(F, PERIOD)
    assert np.max(np.abs(out.values - F.values)) < 1e-9


def test_unitarity():
    F = _test_function()
    n0 = F.norm()
    for theta in (0.1, THETA_WIGNER, 0.9, -1.3, PERIOD / 2):
        assert propagate(F, theta).norm() == pytest.approx(n0, rel=1e-9)


def _smooth_function(n=128, half_width=10.0):
    grid = Grid1D.centered(n, half_width)
    return wigner_metaplectic(states.gaussian(grid), states.hermite(grid, 1))


def test_round_trip():
    F = _smooth_function()
    for theta in (0.3, -0.7, 2.0):
        back = propagate(propagate(F, theta), -theta)
        assert np.max(np.abs(back.values - F.values)) < 1e-6


def test_group_law():
    F = _smooth_function()
    pairs = [(0.2, 0.3), (0.5, -0.9), (THETA_WIGNER, THETA_WIGNER), (1.1, 0.4)]
    for a, b in pairs:
        lhs = propagate(propagate(F, b), a)
        rhs = propagate(F, a + b)
        scale = max(rhs.norm(), 1e-30)
        assert (lhs.values - rhs.values).__abs__().max() / scale < 1e-6


def test_group_law_rough_data():
    # random low-mode waves carry more edge mass than the smooth defaults;
    # the law still holds an order below the smooth tolerance
    F = _test_function()
    for a, b in ((0.2, 0.3), (1.1, 0.4)):
        lhs = propagate(propagate(F, b), a)
        rhs = propagate(F, a + b)
        scale = max(rhs.norm(), 1e-30)
        assert (lhs.values - rhs.values).__abs__().max() / scale < 1e-4


def test_generator_matches_difference_quotient():
    # seam mass at the box edge is amplified by the dual extent, so this
    # check needs the wide box; see the realness test for the same effect
    F = _smooth_function()
    eps = 1e-4
    plus = propagate(F, eps).values
    minus = propagate(F, -eps).values
    fd = (plus - minus) / (2.0 * eps)
    gen = generator_apply(F).values
    resid = np.linalg.norm(fd + 1j * gen) / np.linalg.norm(fd)
    assert resid < 1e-5


def test_propagator_realizes_distribution_covariance():
    # transporting the distinguished-angle distribution by theta must give
    # the fractional distribution; spot-check against the direct integral
    # at theta = -THETA_WIGNER where the flow matrix is rational
    grid = Grid1D.centered(256, 8.0)
    g = states.gaussian(grid)
    W = wigner_metaplectic(g, g)
    out = propagate(W, -THETA_WIGNER)
    # a Gaussian's zero-angle distribution is the tensor product of the
    # state with the conjugate of its transform, all positive here
    from phasekit.wigner import wigner_fractional

    ref = wigner_fractional(g, g, 0.0)
    assert np.max(np.abs(out.values - ref.values)) < 1e-9


def test_substitution_matrix_inverts_plane_block():
    # the mixed plane (rows/cols 0 and 3) is invariant under the flow, so
    # restriction is multiplicative and the substitution matrix is the
    # inverse of the flow's own block
    from phasekit.symplectic import plane_block

    for theta in (0.3, -0.8, THETA_WIGNER):
        A = substitution_matrix(theta)
        prod = A @ plane_block(flow_matrix(theta))
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_shear_factorization_reconstructs_substitution():
    for theta in (0.25, -0.6, 1.4):
        fac = shear_factorization(theta)
        target = substitution_matrix(theta)
        assert np.max(np.abs(factorization_matrix(fac) - target)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-2.0 * PERIOD, max_value=2.0 * PERIOD))
def test_shear_factorization_is_exact_and_bounded(theta):
    # quarter-turn range reduction keeps every shear at or below 1.5107
    # (the xi-shear near theta = 0.6087) across the whole flow family
    fac = shear_factorization(theta)
    assert np.max(np.abs(factorization_matrix(fac) - substitution_matrix(theta))) < 1e-12
    assert 0 <= fac.quarters <= 3
    assert fac.shears is None or max(map(abs, fac.shears)) <= 1.52


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_shear_factorization_rejects_non_finite_angle(theta):
    with pytest.raises(ConfigurationError), np.errstate(invalid="ignore"):
        shear_factorization(theta)


def test_tiny_angle_follows_the_generator():
    # closed-form shears keep the three-shear exact as the pivot c ~ 4*theta
    # vanishes, so the one-sided difference quotient meets the generator
    F = _smooth_function()
    theta = 1e-8
    fd = (propagate(F, theta).values - F.values) / theta
    gen = generator_apply(F).values
    assert np.linalg.norm(fd + 1j * gen) / np.linalg.norm(gen) < 1e-6


def test_angle_near_rounding_follows_the_generator():
    # every nonzero angle off a half period keeps its shears, so at 1e-13 the
    # quotient meets the generator up to its own rounding, about eps/theta =
    # 2e-3 (an exact identity would miss it by 100 %)
    F = _smooth_function()
    theta = 1e-13
    fd = (propagate(F, theta).values - F.values) / theta
    gen = generator_apply(F).values
    assert np.linalg.norm(fd + 1j * gen) / np.linalg.norm(gen) < 1e-2


@pytest.mark.parametrize("theta,quarters", [
    (0.0, 0), (PERIOD, 0), (-3 * PERIOD, 0), (PERIOD / 2, 2), (-PERIOD / 2, 2),
    (1.5 * PERIOD, 2),
])
def test_whole_and_half_periods_take_no_shear(theta, quarters):
    # phi = sqrt(7)*theta on a multiple of pi, to its rounding: the identity
    # or the point reflection, two quarter turns
    assert shear_factorization(theta) == ShearFactorization(quarters, None)


@pytest.mark.parametrize("theta", [THETA_WIGNER, -THETA_WIGNER])
def test_wigner_angle_has_one_zero_shear(theta):
    # the midpoint substitution [[1, -1/2], [1, 1/2]] is two shears: the
    # closed form returns the third as an exact 0.0
    fac = shear_factorization(theta)
    assert fac.quarters == 0
    assert fac.shears.count(0.0) == 1


@pytest.mark.parametrize("theta,expected", [(THETA_WIGNER, 6), (-THETA_WIGNER, 6), (0.3, 8)])
def test_propagator_skips_zero_shears(monkeypatch, theta, expected):
    # two passes for the partial transform pair, two per nonzero shear
    F = _smooth_function()
    passes = count_fft_passes(monkeypatch)
    _propagate_values(F.values, F.grid_x, F.grid_p, theta)
    assert len(passes) == expected


@pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-13, -1e-13, PERIOD + 1e-13,
                                   PERIOD / 2 - 1e-13])
def test_angles_off_a_half_period_keep_their_shears(theta):
    fac = shear_factorization(theta)
    assert fac.shears is not None
    assert np.max(np.abs(factorization_matrix(fac) - substitution_matrix(theta))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([16, 32, 64]),
    st.floats(min_value=0.8, max_value=1.25),
    st.floats(min_value=-PERIOD, max_value=PERIOD),
    st.floats(min_value=-PERIOD, max_value=PERIOD),
)
def test_group_law_property(n, box, theta1, theta2):
    # U(theta1) U(theta2) = U(theta1 + theta2) up to the Gaussian's mass that
    # the shears carry past the box: its tail at half the smaller of the two
    # box edges (sampled worst 0.4 of that over 4500 random draws)
    half_width = box * np.sqrt(np.pi * n / 2.0)
    grid = Grid1D.centered(n, half_width)
    F = wigner_metaplectic(states.gaussian(grid), states.gaussian(grid))
    lhs = propagate(propagate(F, theta2), theta1).values
    rhs = propagate(F, theta1 + theta2).values
    edge = min(half_width, np.pi * n / (2.0 * half_width))
    tol = np.exp(-0.5 * (edge / 2.0) ** 2) + 1e-13
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(F.values)) <= tol


def _inverse_and_builds(plan):
    """plan.inverse() and the argument tuples of every _Plan it built."""
    built, init = [], _Plan.__init__
    with mock.patch.object(_Plan, "__init__",
                           lambda self, *args: built.append(args) or init(self, *args)):
        return plan.inverse(), built


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([8, 16, 18, 32, 128]), theta=st.floats(-PERIOD, PERIOD),
       dual=st.booleans())
@example(n=128, theta=THETA_WIGNER, dual=True)
@example(n=128, theta=-THETA_WIGNER, dual=True)
@example(n=128, theta=THETA_WIGNER - 0.4, dual=True)
@example(n=128, theta=THETA_WIGNER - 1.0, dual=True)
@example(n=128, theta=THETA_WIGNER + 1.7, dual=True)
@example(n=32, theta=0.3, dual=False)
@example(n=32, theta=0.0, dual=True)
def test_inverse_plan_is_the_fresh_plan_bit_for_bit(n, theta, dual):
    # where the grids are dual, the quarter count even and the factorization
    # at -theta the mirror of this one, the inverse takes this plan's tables
    # conjugated in reverse order and builds no plan; at odd quarter counts,
    # where -theta picks another quarter count and on grids that are not
    # dual it is a fresh plan; either way its factorization and every table
    # are those of _Plan(grid_x, grid_p, -theta)
    grid_x = Grid1D.centered(n, np.sqrt(np.pi * n / 2.0))
    grid_p = grid_x.dual() if dual else Grid1D.centered(n, 7.0)
    plan, fresh = _Plan(grid_x, grid_p, theta), _Plan(grid_x, grid_p, -theta)
    inverse, built = _inverse_and_builds(plan)
    assert inverse.grids == fresh.grids and inverse.theta == fresh.theta
    assert inverse.factorization == fresh.factorization
    assert [axis for axis, _ in inverse.shears] == [axis for axis, _ in fresh.shears]
    for (_, got), (_, want) in zip(inverse.shears, fresh.shears):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    turns, shears = plan.factorization.quarters, plan.factorization.shears
    mirror = ShearFactorization(turns, shears and (-shears[2], -shears[1], -shears[0]))
    mirrors = dual and turns % 2 == 0 and fresh.factorization == mirror
    assert built == ([] if mirrors else [(grid_x, grid_p, -theta)])


@pytest.mark.parametrize("theta,turns,inverse_turns", [
    (THETA_WIGNER, 0, 0), (-THETA_WIGNER, 0, 0),
    # the angle star product's pull at 0.4: neither it nor its push turns
    (THETA_WIGNER - 0.4, 0, 0),
    # odd quarter turns (the star product's pull at 1.0), and an even
    # factorization whose inverse takes an odd quarter count (the pull at -1.7)
    (THETA_WIGNER - 1.0, 1, 0), (THETA_WIGNER + 1.7, 0, 1)])
def test_inverse_plan_mirrors_at_even_turns_both_ways(theta, turns, inverse_turns):
    grid = Grid1D.centered(128, 8.0)
    plan = _Plan(grid, grid.dual(), theta)
    assert plan.factorization.quarters % 2 == turns
    assert shear_factorization(-theta).quarters % 2 == inverse_turns
    assert (_inverse_and_builds(plan)[1] == []) == (turns == inverse_turns == 0)


@pytest.mark.parametrize("theta", [
    # three shears from x to x; quarter turns first; a first and a last
    # eta-shear (at +-THETA_WIGNER one shear is exactly 0); no shear at all
    THETA_WIGNER - 0.4, THETA_WIGNER - 1.0, 0.3, THETA_WIGNER, -THETA_WIGNER, 0.0, PERIOD / 2])
@pytest.mark.parametrize("spectral", [(True, False), (False, True), (True, True)])
def test_spectral_ends_leave_out_or_make_the_x_pass(monkeypatch, theta, spectral):
    # on F_x-transformed values it is the frame substitute between an inverse
    # and a forward x pass; an x-shear at that end (the first after no quarter
    # turn) leaves its pass out, any other end makes it
    grid = Grid1D.centered(18, 4.0)
    plan = _Plan(grid, grid.dual(), theta)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 18, 18)) + 1j * rng.standard_normal((2, 18, 18))
    enter, leave = spectral
    want = _fft_pass(values, -2, True, keep=True) if enter else values.copy()
    want = plan.substitute(want, _plain_shear)
    want = _fft_pass(want, -2, False) if leave else want
    axes = [axis for axis, _ in plan.shears]
    folds = ((enter and plan.factorization.quarters == 0 and axes[:1] == [-2])
             + (leave and axes[-1:] == [-2]))
    passes = count_fft_passes(monkeypatch)
    got = plan.substitute(values.copy(), _plain_shear, spectral)
    assert len(passes) == 2 * len(axes) + enter + leave - 2 * folds
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 6, 10, 32, 254, 256])
def test_chirp_tables_match_the_outer_product(n):
    # B = 1 at n = 2, 2 at n = 6, 10 and 254 (odd n/2, n = 2*prime)
    eps = np.finfo(float).eps
    gx = Grid1D.centered(n, np.sqrt(np.pi * n / 2.0))
    for gp in (gx.dual(), Grid1D.centered(n, 7.0)):
        ge = gp.dual()
        for rows, cols in ((gx.dual(), ge), (gx, ge.dual())):
            for coeff in (1.51, -0.37):
                hi, lo = _chirp_tables(coeff, rows, cols)
                chirp = (hi[:, None, :] * lo).reshape(n, n)
                ref = np.exp(1j * coeff * np.outer(rows.nodes(), cols.nodes()))
                assert np.max(np.abs(chirp - ref)) < 1e-12
                assert np.max(np.abs(np.abs(chirp) - 1.0)) <= 4 * eps


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=32).map(lambda k: 2 * k),
    st.floats(min_value=2.0, max_value=12.0),
    st.floats(min_value=-2.0 * PERIOD, max_value=2.0 * PERIOD),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_propagator_is_unitary(n, half_width, theta, seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D.centered(n, half_width)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = _propagate_values(values, grid, grid.dual(), theta)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(values), rel=1e-13)
    for exact in (0.0, PERIOD):
        assert np.array_equal(_propagate_values(values, grid, grid.dual(), exact), values)


def _gaussian_plane_function(n=128, half_width=10.0):
    gx = Grid1D.centered(n, half_width)
    ge = gx.dual()
    x = gx.nodes()[:, None]
    e = ge.nodes()[None, :]
    vals = (np.exp(-(x**2) - e**2) / np.pi).astype(complex)
    return PhaseFunction2D(gx, ge, vals)


def test_substitute_matches_closed_form():
    # substituting the inverse flow into a Gaussian has a closed form; the
    # two axes carry different grids, so the three-shear carries every angle
    F = _gaussian_plane_function()
    x = F.grid_x.nodes()[:, None]
    e = F.grid_p.nodes()[None, :]
    for theta in (0.05, 0.3, -0.5, 0.8):
        A = substitution_matrix(theta)
        exact = (
            np.exp(
                -((A[0, 0] * x + A[0, 1] * e) ** 2)
                - (A[1, 0] * x + A[1, 1] * e) ** 2
            )
            / np.pi
        )
        out = _Plan(F.grid_x, F.grid_p.dual(), theta).substitute(F.values)
        assert np.max(np.abs(out - exact)) < 1e-6


def _resample_trig(
    values: np.ndarray, grid_x: Grid1D, grid_e: Grid1D, A: np.ndarray
) -> np.ndarray:
    """Evaluate the 2D trigonometric interpolant at the mapped nodes.

    Single pass: no intermediate re-truncation, so this differs from the
    shear pipeline by genuine aliasing amounts and serves as its oracle.
    """
    nx, ne = grid_x.n, grid_e.n
    a, b = float(A[0, 0]), float(A[0, 1])
    c, d = float(A[1, 0]), float(A[1, 1])
    x = grid_x.nodes()
    eta = grid_e.nodes()
    u = grid_x.dual().nodes()
    v = grid_e.dual().nodes()

    C = _centered_fft(_centered_fft(values, axis=-2), axis=-1)
    P1 = np.exp(1j * a * np.outer(x, u))          # (i, m)
    P2 = np.exp(1j * b * np.outer(u, eta))        # (m, j)
    E2 = np.exp(1j * d * np.outer(v, eta))        # (n, j)
    row = np.exp(1j * c * np.outer(x, v))         # (i, n)

    out = np.empty((nx, ne), dtype=np.complex128)
    for i in range(nx):
        G = (C * row[i][None, :]) @ E2            # (m, j)
        out[i] = P1[i] @ (P2 * G)
    out /= nx * ne
    return out


def test_resample_oracle_near_identity():
    # the one-pass interpolation oracle wraps once the mapped box leaves
    # the fundamental period, so it is only consulted at small angles
    F = _gaussian_plane_function()
    for theta in (0.05, -0.1, 0.15):
        spectral = _Plan(F.grid_x, F.grid_p.dual(), theta).substitute(F.values)
        resampled = _resample_trig(F.values, F.grid_x, F.grid_p, substitution_matrix(theta))
        assert np.max(np.abs(spectral - resampled)) < 1e-8


def _unmatched_plane_function():
    # grid_p is not grid_x.dual(), so the mixed plane's axes differ and the
    # factorization may not use quarter turns
    gx, gp = Grid1D.centered(32, 6.0), Grid1D.centered(32, 7.0)
    x, p = gx.nodes()[:, None], gp.nodes()[None, :]
    return PhaseFunction2D(gx, gp, np.exp(-(x**2) - p**2 + 0.3j * x * p))


def test_unmatched_grids_use_shears_alone():
    F = _unmatched_plane_function()
    for theta in (0.02, -0.05, 0.1):
        out = propagate(F, theta)
        assert out.norm() == pytest.approx(F.norm(), rel=1e-12)
        back = propagate(out, -theta)
        assert np.max(np.abs(back.values - F.values)) < 1e-6


def test_unmatched_grids_refuse_a_half_period():
    # the half period is minus the identity: the pivot vanishes and only a
    # quarter turn could help
    with pytest.raises(ConfigurationError, match="no usable pivot"):
        propagate(_unmatched_plane_function(), PERIOD / 2)
