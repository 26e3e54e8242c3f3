"""Closed-form flow matrix and the quadratic Hamiltonian behind it."""

import re
import warnings

import numpy as np
import pytest

from helpers import GENERATOR, apply_flow, hamiltonian_value, level_invariants, symplectic_form
from phasekit.grid import ConfigurationError
from phasekit.metaplectic import shear_factorization, substitution_matrix
from phasekit.symplectic import (
    FREQUENCY,
    PERIOD,
    SYMPLECTIC_J,
    THETA_WIGNER,
    flow_matrix,
    plane_block,
)


@pytest.mark.parametrize("matrix,theta", [
    (flow_matrix, 1e308), (substitution_matrix, -1e308), (shear_factorization, 1e308),
    (flow_matrix, np.inf), (flow_matrix, np.nan)])
def test_flow_refuses_a_phase_that_is_not_finite(matrix, theta):
    # sqrt(7)*theta overflows for a finite theta near the float limit; the
    # flow refuses it, without a RuntimeWarning, rather than return nan, and
    # the shear factorization meets the same refusal; each names the
    # caller's theta, not the flow parameter it passes on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"flow phase sqrt\(7\)\*theta is not finite "
                           + re.escape(f"at theta={theta}") + "$"):
            matrix(theta)


def test_identity_at_zero():
    assert np.max(np.abs(flow_matrix(0.0) - np.eye(4))) < 1e-15


def test_distinguished_angle_matrix_frozen():
    # at the distinguished angle the trig pair is (3/4, sqrt7/4), so every
    # entry of the flow matrix is a ratio of small integers
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(flow_matrix(THETA_WIGNER) - expected)) < 1e-14


def test_symplectic_condition_sweep():
    J = SYMPLECTIC_J
    for theta in np.linspace(-2.0, 2.0, 17):
        M = flow_matrix(theta)
        assert np.max(np.abs(M.T @ J @ M - J)) < 1e-12


def test_group_law():
    rng = np.random.default_rng(31)
    for a, b in rng.uniform(-2.0, 2.0, size=(6, 2)):
        lhs = flow_matrix(a) @ flow_matrix(b)
        rhs = flow_matrix(a + b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_period():
    assert PERIOD == pytest.approx(2.0 * np.pi / np.sqrt(7.0))
    assert np.max(np.abs(flow_matrix(PERIOD) - np.eye(4))) < 1e-12
    assert np.max(np.abs(flow_matrix(0.5 * PERIOD) + np.eye(4))) < 1e-12


def test_frequency_constant():
    assert FREQUENCY == pytest.approx(np.sqrt(7.0))
    assert THETA_WIGNER == pytest.approx(np.arccos(0.75) / np.sqrt(7.0))


def test_generator_is_flow_derivative():
    eps = 1e-6
    fd = (flow_matrix(eps) - flow_matrix(-eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - GENERATOR)) < 1e-9


def test_generator_is_hamiltonian_vector_field():
    # the linear Hamiltonian field is J^{-1} (Hessian of H); check the flow
    # generator matches it entry by entry
    hess = np.zeros((4, 4))
    eps = 1e-4
    for i in range(4):
        for j in range(4):
            zpp = np.zeros(4); zpp[i] += eps; zpp[j] += eps
            zpm = np.zeros(4); zpm[i] += eps; zpm[j] -= eps
            zmp = np.zeros(4); zmp[i] -= eps; zmp[j] += eps
            zmm = np.zeros(4); zmm[i] -= eps; zmm[j] -= eps
            hess[i, j] = (
                hamiltonian_value(zpp)
                - hamiltonian_value(zpm)
                - hamiltonian_value(zmp)
                + hamiltonian_value(zmm)
            ) / (4.0 * eps * eps)
    field = np.linalg.solve(SYMPLECTIC_J, hess)
    assert np.max(np.abs(field - GENERATOR)) < 1e-7


def test_hamiltonian_conserved_along_flow():
    rng = np.random.default_rng(32)
    z0 = rng.uniform(-1.0, 1.0, size=4)
    h0 = hamiltonian_value(z0)
    for theta in (0.1, 0.5, 1.3, PERIOD / 3.0):
        z = apply_flow(theta, z0)
        assert hamiltonian_value(z) == pytest.approx(h0, abs=1e-12)


def test_symplectic_form_invariant():
    rng = np.random.default_rng(33)
    z = rng.uniform(-1.0, 1.0, size=4)
    w = rng.uniform(-1.0, 1.0, size=4)
    s0 = symplectic_form(z, w)
    for theta in (0.2, 0.9, -1.4):
        assert symplectic_form(apply_flow(theta, z), apply_flow(theta, w)) == (
            pytest.approx(s0, abs=1e-12)
        )


def test_level_invariants_conserved():
    rng = np.random.default_rng(34)
    z0 = rng.uniform(-1.0, 1.0, size=4)
    i0 = level_invariants(z0)
    i1 = level_invariants(apply_flow(0.7, z0))
    assert i1[0] == pytest.approx(i0[0], abs=1e-12)
    assert i1[1] == pytest.approx(i0[1], abs=1e-12)


def test_plane_block_at_distinguished_angle():
    # restriction to the (x, xi_p) plane; at the distinguished angle its
    # entries are the same small rationals as the full matrix corners
    B = plane_block(flow_matrix(THETA_WIGNER))
    assert B.shape == (2, 2)
    expected = np.array([[0.5, 0.5], [-1.0, 1.0]])
    assert np.max(np.abs(B - expected)) < 1e-14
    assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-14)


def test_apply_flow_matches_matrix():
    z = np.array([0.3, -0.7, 1.1, 0.2])
    theta = 0.42
    assert np.max(np.abs(apply_flow(theta, z) - flow_matrix(theta) @ z)) < 1e-14
