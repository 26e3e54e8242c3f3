"""Phase-space transforms on 1D grids.

The package builds a family of phase-space distributions indexed by an
angle, the linear flow and unitary propagator behind them, an operator
symbol calculus with star products, and phase-plane liftings of 1D
operators.  `verify` runs the acceptance checks; the `phasekit` console
script exposes everything as subcommands.  The top level re-exports the
names the README's Library section uses; every other public name lives
only in its submodule (`states`, `gridfile`, `verify`, `symplectic`, ...).
"""

from .bopp import PhaseOperator, bopp_spectrum, evolve_pair
from .grid import ConfigurationError, Grid1D, PhaseFunction2D, SampledFunction1D
from .gridfile import FileFormatError
from .metaplectic import propagate, shear_factorization
from .symplectic import THETA_WIGNER, flow_matrix
from .weyl import (
    OperatorKernel, Symbol2D, expectation, fractional_symbol, kernel_to_symbol,
    moyal_product, symbol_oscillator, symbol_to_kernel, symbol_x, symbol_xi,
    theta_product,
)
from .wigner import (
    Window, wigner_fractional, wigner_metaplectic, windowed_adjoint,
    windowed_projection, windowed_transform,
)

__version__ = "0.1.0"

__all__ = [
    # grids, sampled functions, errors
    "ConfigurationError", "FileFormatError", "Grid1D", "SampledFunction1D",
    "PhaseFunction2D", "THETA_WIGNER", "Window",
    # distributions and windowed transforms
    "wigner_fractional", "wigner_metaplectic", "windowed_transform",
    "windowed_adjoint", "windowed_projection",
    # kernels, symbols, star products, expectations
    "OperatorKernel", "Symbol2D", "kernel_to_symbol", "symbol_to_kernel",
    "fractional_symbol", "moyal_product", "theta_product", "expectation",
    "symbol_oscillator", "symbol_x", "symbol_xi",
    # phase-plane operators, the propagator and the flow
    "PhaseOperator", "bopp_spectrum", "evolve_pair", "propagate", "flow_matrix",
    "shear_factorization",
]
