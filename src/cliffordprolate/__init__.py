"""Clifford prolate spheroidal wave functions on the unit ball.

Library layout:
  algebra       dense Clifford algebra arithmetic (C_m)
  special       Gamma-function measures and quadrature rules
  monogenics    orthonormal spherical monogenic bases (any m)
  legendre      Clifford-Legendre radial polynomials p_N, q_N
  galerkin      tridiagonal Galerkin matrices and eigenpairs
  prolate       CPSWF assembly, evaluation, spectral triple (chi, mu, lambda)
  operators     finite Fourier transform G_c, limiting operator QP_c, kernel K_c
  accumulation  spectrum accumulation sums
  cli           command-line front end
"""

from .algebra import Multivector, blade_product, embed
from .galerkin import ConvergenceError, SymTridiag, solve_block, solve_radial
from .legendre import bonnet_coeffs, c0_eigenvalue, radial_sequence
from .monogenics import MonogenicBasis, PolyMultivector, basis, dim_monogenic, dirac
from .prolate import Cpswf, cpswf_blocks, eval_field, eval_radial, make_cpswf
from .operators import apply_Gc, apply_QPc, kernel_Kc, verify
from .accumulation import limit_value, partial_sum, zonal_trace

__version__ = "0.1.0"

__all__ = [
    "Multivector", "blade_product", "embed",
    "ConvergenceError", "SymTridiag", "solve_block", "solve_radial",
    "bonnet_coeffs", "c0_eigenvalue", "radial_sequence",
    "MonogenicBasis", "PolyMultivector", "basis", "dim_monogenic", "dirac",
    "Cpswf", "cpswf_blocks", "eval_field", "eval_radial", "make_cpswf",
    "apply_Gc", "apply_QPc", "kernel_Kc", "verify",
    "limit_value", "partial_sum", "zonal_trace",
    "__version__",
]
