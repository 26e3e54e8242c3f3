"""Closed-form symplectic flow of the quadratic generator.

Extended phase-space points are ordered z = (x, p, xi_x, xi_p).  The
generator is the quadratic form H(z) = 2*xi_x*xi_p - x*xi_x - p*xi_p +
4*x*p, whose Hamilton equations decouple into the two mixed planes
(x, xi_p) and (p, xi_x) and solve in closed form with natural frequency
sqrt(7).  The flow at the distinguished parameter THETA_WIGNER is the
half-shear that turns tensor products into Wigner-type distributions.
"""

from __future__ import annotations

import numpy as np

from .grid import ConfigurationError

#: Natural frequency of the closed-form flow.
FREQUENCY = float(np.sqrt(7.0))

#: Flow parameter producing the Wigner half-shear map.
THETA_WIGNER = float(np.arccos(0.75) / FREQUENCY)

#: Parameter period of the flow (and of the induced propagator family).
PERIOD = float(2.0 * np.pi / FREQUENCY)

#: Matrix of the symplectic form in the (x, p, xi_x, xi_p) ordering:
#: sigma(z, w) = z @ SYMPLECTIC_J @ w.
SYMPLECTIC_J = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)

def _flow_phase(theta: float) -> float:
    """sqrt(7)*theta, the flow's trigonometric argument, refused where it is not finite."""
    if not np.isfinite(phase := FREQUENCY * theta):
        raise ConfigurationError(f"flow phase sqrt(7)*theta is not finite at theta={theta}")
    return phase


def flow_matrix(theta: float) -> np.ndarray:
    """The 4x4 flow at parameter theta, acting on (x, p, xi_x, xi_p).

    Each mixed plane evolves by the same 2x2 rotation-shear:
    coordinate' = coordinate*(cos - sin/k) + dual*(2 sin/k),
    dual' = dual*(cos + sin/k) - coordinate*(4 sin/k), with k = sqrt(7)
    and trigonometric argument k*theta (_flow_phase).
    """
    phase = _flow_phase(theta)
    c, s = np.cos(phase), np.sin(phase) / FREQUENCY
    cm = c - s
    cp = c + s
    g = 2.0 * s
    h = 4.0 * s
    return np.array(
        [
            [cm, 0.0, 0.0, g],
            [0.0, cm, g, 0.0],
            [0.0, -h, cp, 0.0],
            [-h, 0.0, 0.0, cp],
        ]
    )


def plane_block(M: np.ndarray) -> np.ndarray:
    """Restrict a 4x4 flow matrix to the (x, xi_p) plane (rows/cols 0, 3)."""
    return M[np.ix_((0, 3), (0, 3))]

