"""Unitary propagator on the phase plane: group structure and generator."""

from unittest import mock

import numpy as np
import scipy.fft
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import count_fft_passes, factorization_matrix, sandwich_oracle
from phasekit import metaplectic, states
from phasekit.grid import (
    ConfigurationError,
    Grid1D,
    PhaseFunction2D,
    SampledFunction1D,
    _centered_fft,
    _fft_pass,
    fourier_1d,
)
from phasekit.metaplectic import (
    ShearFactorization,
    _Plan,
    _chirp_tables,
    _into_frame,
    _out_of_frame,
    _propagate_values,
    _quarter_turns,
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
       dual=st.booleans(), held=st.booleans())
@example(n=128, theta=THETA_WIGNER, dual=True, held=True)
@example(n=128, theta=-THETA_WIGNER, dual=True, held=True)
@example(n=128, theta=THETA_WIGNER - 0.4, dual=True, held=False)
@example(n=128, theta=THETA_WIGNER - 1.0, dual=True, held=False)
@example(n=128, theta=THETA_WIGNER + 1.7, dual=True, held=False)
@example(n=32, theta=0.3, dual=False, held=False)
@example(n=32, theta=0.0, dual=True, held=True)
def test_inverse_plan_is_the_fresh_plan_bit_for_bit(n, theta, dual, held):
    # the inverse comes from the plan cache, held if this plan is: built
    # once, at -theta on the same grids, then fetched; its factorization and
    # every table are those of _Plan(grid_x, grid_p, -theta, held), on dual
    # grids or not and at every quarter count
    metaplectic._plan.cache_clear()
    grid_x = Grid1D.centered(n, np.sqrt(np.pi * n / 2.0))
    grid_p = grid_x.dual() if dual else Grid1D.centered(n, 7.0)
    plan, fresh = _Plan(grid_x, grid_p, theta, held), _Plan(grid_x, grid_p, -theta, held)
    inverse, built = _inverse_and_builds(plan)
    assert inverse.grids == fresh.grids and inverse.theta == fresh.theta
    assert inverse.factorization == fresh.factorization and inverse.held == held
    assert [axis for axis, _ in inverse.shears] == [axis for axis, _ in fresh.shears]
    for (_, got), (_, want) in zip(inverse.shears, fresh.shears):
        assert len(got) == len(want) == (1 if held else 2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert built == [(grid_x, grid_p, -theta, held)]
    again, rebuilt = _inverse_and_builds(plan)
    assert again is inverse and rebuilt == []


@pytest.mark.parametrize("theta,turns,inverse_turns", [
    (THETA_WIGNER, 0, 0), (-THETA_WIGNER, 0, 0),
    # the angle star product's pull at 0.4: neither it nor its push turns
    (THETA_WIGNER - 0.4, 0, 0),
    # odd quarter turns (the star product's pull at 1.0), and an even
    # factorization whose inverse takes an odd quarter count (the pull at -1.7)
    (THETA_WIGNER - 1.0, 1, 0), (THETA_WIGNER + 1.7, 0, 1)])
def test_inverse_plan_mirrors_at_even_turns_both_ways(theta, turns, inverse_turns):
    # where neither the plan nor its inverse turns an odd number of
    # quarters, the fresh inverse is this plan's mirror: shears (-d, -c, -b)
    # with this plan's tables conjugated in reverse order, bit for bit
    # (cos even, sin odd); at the odd counts it is not
    grid = Grid1D.centered(128, 8.0)
    plan = _Plan(grid, grid.dual(), theta)
    assert plan.factorization.quarters % 2 == turns
    assert shear_factorization(-theta).quarters % 2 == inverse_turns
    inverse, shears = plan.inverse(), plan.factorization.shears
    mirror = ShearFactorization(plan.factorization.quarters,
                                shears and (-shears[2], -shears[1], -shears[0]))
    mirrors = inverse.factorization == mirror and all(
        axis == back and all(np.array_equal(t, m.conj()) for t, m in zip(tables, mirrored))
        for (axis, tables), (back, mirrored) in zip(inverse.shears, plan.shears[::-1]))
    assert mirrors == (turns == inverse_turns == 0)


@pytest.mark.parametrize("held", [False, True])
def test_cached_plans_are_read_only_and_their_own_inverses_twice(held):
    # the cache hands every caller the same plan, so no table can be written;
    # the inverse of its inverse is the plan itself, at any quarter count
    grid = Grid1D.centered(32, 6.0)
    for theta in (THETA_WIGNER, THETA_WIGNER - 0.4, THETA_WIGNER - 1.0, THETA_WIGNER + 1.7):
        plan = metaplectic._plan(grid, grid.dual(), theta, held)
        assert plan.held == held and plan.shears
        for _, tables in plan.shears:
            for table in tables:
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0.0
        assert plan.inverse().inverse() is plan
        assert metaplectic._plan(grid, grid.dual(), theta, held) is plan


@pytest.mark.parametrize("theta", [
    # three shears from x to x; quarter turns first; a first and a last
    # eta-shear (at +-THETA_WIGNER one shear is exactly 0); no shear at all
    THETA_WIGNER - 0.4, THETA_WIGNER - 1.0, 0.3, THETA_WIGNER, -THETA_WIGNER, 0.0, PERIOD / 2])
@pytest.mark.parametrize("spectral", [(True, False), (False, True), (True, True)])
def test_spectral_ends_leave_out_or_make_the_x_pass(monkeypatch, theta, spectral):
    # on F_x-transformed values it is the frame flow between an inverse and a
    # forward x pass; an x-shear at that end (the first after no quarter
    # turn) leaves its pass out, as does the other x end where the plan has
    # no factor at all, and any other end makes it
    grid = Grid1D.centered(18, 4.0)
    plan = _Plan(grid, grid.dual(), theta)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 18, 18)) + 1j * rng.standard_normal((2, 18, 18))
    enter, leave = spectral
    want = _fft_pass(values, -2, True, keep=True) if enter else values.copy()
    want = plan.flow(want, None, None)
    want = _fft_pass(want, -2, False) if leave else want
    axes, turns = [axis for axis, _ in plan.shears], plan.factorization.quarters
    folds = ((enter and turns == 0 and axes[:1] == [-2]) + (leave and axes[-1:] == [-2])
             + (enter and leave and turns == 0 and axes == []))
    passes = count_fft_passes(monkeypatch)
    got = plan.flow(values.copy(), -2 if enter else None, -2 if leave else None)
    assert len(passes) == 2 * len(axes) + enter + leave - 2 * folds
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("theta", [THETA_WIGNER - 1.0, THETA_WIGNER - 2.2, PERIOD / 2])
def test_quarter_turns_return_c_contiguous_batches(theta):
    # the star product's pulls at 1.0 and 2.2 turn once and three times
    # before their shears, the half period turns twice and has no shear; a
    # batch comes back C-contiguous and bit for bit its slices' results, from
    # the frame flow at either end and from the centred substitute
    grid = Grid1D.centered(128, 8.0)
    plan = _Plan(grid, grid.dual(), theta)
    assert plan.factorization.quarters
    rng = np.random.default_rng(13)
    batch = rng.standard_normal((3, 128, 128)) + 1j * rng.standard_normal((3, 128, 128))
    for run in (lambda v: plan.flow(v, None, None), lambda v: plan.flow(v, None, -2),
                plan.substitute):
        got = run(batch.copy())
        assert got.flags.c_contiguous
        for k in range(3):
            assert np.array_equal(got[k], run(batch[k].copy()))


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 30, 126])
def test_frame_flow_between_the_crossings_is_the_propagator(n):
    # _propagate_values keeps the centred substitute; in the frame, between
    # the crossings, the flow gives its values bit for bit at n divisible by
    # 4 at every nonzero angle (at 0 the propagator is an exact copy), and
    # to rounding at n = 2 mod 4, where each crossing signs by (-1)^(n/2)
    grid = Grid1D.centered(n, 7.0)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    angles = [theta for theta in np.linspace(-2.5, 2.5, 23) if theta != 0.0]
    assert len(angles) == 22
    for theta in angles:
        got = _out_of_frame(_Plan(grid, grid.dual(), theta).flow(_into_frame(values), None, None))
        want = _propagate_values(values, grid, grid.dual(), theta)
        if n % 4 == 0:
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


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


@pytest.mark.parametrize("n", [30, 126, 254, 256])
def test_chirp_tables_are_the_direct_exponentials_bit_for_bit(n):
    # each table row is built from the exponentials at |q| and j >= 0 and
    # the rest by conjugation; every bit, the signs of zeros included (the
    # q = 0 row and j = 0 column are exp of an exact 0), must be that of
    # exp(phase * outer(q, j)) on the integer centred indices, at n = 2*prime
    # (B = 2) and at n with larger divisors, for coefficients of both signs
    def bits(table):
        return np.ascontiguousarray(table).view(np.uint64)

    gx = Grid1D.centered(n, np.sqrt(np.pi * n / 2.0))
    block = max(q for q in range(1, int(np.sqrt(n)) + 1) if n % q == 0)
    for gp in (gx.dual(), Grid1D.centered(n, 7.0)):
        ge = gp.dual()
        j = np.arange(n) - n // 2
        for rows, cols in ((gx.dual(), ge), (gx, ge.dual())):
            for coeff in (1.51, -0.37, 0.25, -1.2):
                phase = 1j * coeff * rows.dx * cols.dx
                hi, lo = _chirp_tables(coeff, rows, cols)
                want_hi = np.exp(phase * np.outer(np.arange(0, n, block) - n // 2, j))
                want_lo = np.exp(phase * np.outer(np.arange(block), j))
                assert np.array_equal(bits(hi), bits(want_hi))
                assert np.array_equal(bits(lo), bits(want_lo))


@pytest.mark.parametrize("shape", [(18, 18), (3, 16, 16), (2, 2, 8, 8)])
def test_quarter_turns_are_repeated_single_turns(shape):
    # one index map for any count, 0 to 7 turns: bit for bit the single turn
    # (x, eta) -> (eta, -x) applied that many times, batched or not, and a
    # C-contiguous result wherever it turns at all
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    neg = (-np.arange(shape[-1])) % shape[-1]
    want = values
    for turns in range(8):
        got = _quarter_turns(values, turns)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous
        want = np.swapaxes(want, -1, -2)[..., neg, :]


#: Angles whose plans meet values untransformed (0.3, 1.0: quarter turns),
#: along eta (THETA_WIGNER) and along x (0, the identity; -0.45; -THETA_WIGNER).
_LIFT_ANGLES = [0.0, THETA_WIGNER, -THETA_WIGNER, -0.45, 0.3, 1.0]


def test_lift_angles_reach_every_entry():
    grid = Grid1D.centered(16, 5.0)
    entries = {_Plan(grid, grid.dual(), theta).entry for theta in _LIFT_ANGLES}
    assert entries == {None, -1, -2}


@settings(max_examples=60, deadline=None)
@given(half_n=st.integers(1, 24), half_width=st.floats(2.0, 12.0),
       theta=st.one_of(st.sampled_from(_LIFT_ANGLES), st.floats(-PERIOD, PERIOD)),
       held=st.booleans(), windows=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_lift_is_the_centred_lift_in_the_spectral_frame(half_n, half_width, theta, held,
                                                          windows, seed):
    # psi -> U(theta)(psi (x) conj(FT w)) in the spectral frame, the
    # x-transform of the checkerboard frame, is the centred propagator's lift
    # taken there, for every entry (untransformed, eta with the row's two
    # passes folded, x with psi's one pass), held or not, batched in psi, and
    # for window states lifted first in the same batch (their rows by
    # F conj F = n conj), which a batch of psi then needs an axis for
    n = 2 * half_n
    grid = Grid1D.centered(n, half_width)
    rng = np.random.default_rng(seed)

    def wave(*shape):
        return rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))

    psi, window, others = wave(2), wave(), wave(windows)
    plan = _Plan(grid, grid.dual(), theta, held)
    got = plan.lift(window, others if windows else None)(psi[:, None] if windows else psi)
    rows = [fourier_1d(SampledFunction1D(grid, w)).values for w in others] + [window]
    for k, row in enumerate(rows):
        seed_values = psi[:, :, None] * row.conj()
        centred = _propagate_values(seed_values, grid, grid.dual(), theta)
        want = scipy.fft.fft(_into_frame(centred), axis=-2)
        lifted = got[:, k] if windows else got
        assert np.linalg.norm(lifted - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("theta", [-0.45, 0.3, 0.9, THETA_WIGNER, 0.0])
def test_sandwich_is_the_propagator_sandwich(theta):
    # v -> U (K (x) I) U* v in the spectral frame, wrapped in the crossings,
    # is the centred propagator's sandwich to rounding: at -0.45 three shears
    # meet K along x, at 0.3 and 0.9 three quarter turns meet it untransformed,
    # at THETA_WIGNER along eta and at 0 the identity plan along x; the map
    # keeps its argument, batched or not
    grid = Grid1D.centered(16, 5.0)
    plan = _Plan(grid, grid.dual(), theta)
    if theta in (0.3, 0.9):
        assert plan.factorization.quarters == 3 and plan.entry is None
    if theta == -0.45:
        assert plan.factorization.quarters == 0 and len(plan.shears) == 3
    rng = np.random.default_rng(5)
    K = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    batch = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
    sandwich, oracle = plan.sandwich(K), sandwich_oracle(K, grid, grid.dual(), theta)
    for v in (batch, batch[1]):
        frame = _fft_pass(_into_frame(v), -2, False)
        kept = frame.copy()
        got = _out_of_frame(_fft_pass(sandwich(frame), -2, True))
        want = oracle(v)
        assert np.array_equal(frame, kept)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
