"""The finite Fourier transform G_c, the limiting operator QP_c, and kernels.

G_c f(x) = integral over B(1) of e^(2 pi i c <x,y>) f(y) dy.  Acting on a
field R(|y|^2) Y_k(y) (even) or y R(|y|^2) Y_k(y) (odd) it reduces to a
Hankel-type radial transform of order nu = k + m/2 - 1 (even) or
k + m/2 (odd):

    T[f](s) = s^(-nu) int_0^1 r^(nu+1) f(r) J_nu(2 pi c r s) dr

with G_c profile = i^(k or k+1) 2 pi c^(1-m/2) T[f] multiplying the solid
angular factor.  QP_c = c^m G_c* G_c has radial action 4 pi^2 c^2 T[T[f]].
All constants here are fixed against brute-force quadrature of the
defining integrals (the closed forms in circulation carry typos); see the
operator test oracles, which also hold the symmetric kernel M_c(r, s) of
T[T[.]] and the full-ball Gram quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import mul_coeffs  # noqa: F401  (kept for the benchmark's span hooks)
from .monogenics import basis  # noqa: F401  (kept for the benchmark's span hooks)
from .prolate import Cpswf
from .special import (
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
    default_nodes,
    gauss_rule_unit_interval,
    scipy_extension,
)

GRID_POINTS = 64
# (nu, c, grid, rule) keys whose operator matrices stay cached
MATRIX_CACHE_ENTRIES = 16


@dataclass(frozen=True)
class RadialSamples:
    """Radial profile samples: field = values(r) * solid angular factor.

    weight_exponent w is such that int_0^1 |values|^2 r^w dr equals the
    squared L^2(B(1)) norm of the field (w = 2k+m-1 even, 2k+m+1 odd).
    """

    grid: np.ndarray
    values: np.ndarray
    weight_exponent: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", np.asarray(self.values))


@dataclass(frozen=True)
class VerificationReport:
    mu_est: complex
    lambda_est: float
    ratio_spread: float
    residual: float
    gc_residual: float


def _default_rule() -> QuadratureRule:
    return gauss_rule_unit_interval(default_nodes())


def _check_grid(grid) -> np.ndarray:
    """The default Chebyshev grid, or the caller's grid checked to be a
    non-empty 1-D array of finite, positive, strictly increasing radii."""
    if grid is None:
        return chebyshev_grid(GRID_POINTS)
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"grid must be a non-empty 1-D array, got shape {g.shape}")
    if not (np.all(np.isfinite(g)) and g[0] > 0):
        raise ValueError("grid must be finite and positive")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    return g


def _jv():
    """scipy's Bessel ufunc J_nu, loaded on first use without the scipy.special
    package (on scipy 1.17 scipy.special.jv is this very object)."""
    return scipy_extension("special._special_ufuncs", ("jv",), "scipy.special").jv


def kernel_Kc(x, c: float, m: int) -> float:
    """K_c(x) = integral of e^(2 pi i c <xi, x>) over B(1).

    Closed form (c|x|)^(-m/2) J_(m/2)(2 pi c |x|); K_c(0) = |B(1)|.
    Real-valued and even in x.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and >= 0, got {c!r}")
    if x.shape != (m,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be {m} finite coordinates, got shape {x.shape}")
    s = float(np.linalg.norm(x))
    z = 2 * math.pi * c * s
    if z < 1e-9:
        # J_(m/2)(z) ~ (z/2)^(m/2)/Gamma(m/2+1): the limit is |B(1)|
        return ball_volume(m)
    return float((c * s) ** (-m / 2) * _jv()(m / 2, z))


def transform_matrix(nu: float, c: float, targets: np.ndarray,
                     rule: QuadratureRule) -> np.ndarray:
    """Matrix of T against the rule: (T f)(targets) = mat @ f(rule.nodes)."""
    s = np.asarray(targets, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"targets must be a 1-D array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("targets must be finite")
    if np.any(s <= 0):
        raise ValueError("targets must be positive (use the s -> 0 limit form)")
    r = rule.nodes
    bes = _jv()(nu, 2 * math.pi * c * np.outer(s, r))
    return (s ** (-nu))[:, None] * bes * (rule.weights * r ** (nu + 1))[None, :]


@lru_cache(maxsize=MATRIX_CACHE_ENTRIES)
def _cached_matrices(nu: float, c: float, grid: bytes, nodes: bytes,
                     weights: bytes) -> tuple[np.ndarray, np.ndarray]:
    rule = QuadratureRule(np.frombuffer(nodes), np.frombuffer(weights))
    G = transform_matrix(nu, c, np.frombuffer(grid), rule)
    # the n x n node-to-node matrix lives only for this product
    Q = G @ transform_matrix(nu, c, rule.nodes, rule)
    G.setflags(write=False)
    Q.setflags(write=False)
    return G, Q


def _operator_matrices(nu: float, c: float, grid: np.ndarray,
                       rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (G, Q), each len(grid) x n, for a grid from _check_grid:
    G @ f(rule.nodes) = T[f](grid) and Q @ f(rule.nodes) = T[T[f]](grid).

    Orders of one parity share nu, and an odd degree k shares it with the
    even degree k + 1, so G_c, QP_c and verify reuse the pair across
    orders.  The key is the content of the inputs (nu, c and the bytes of
    the grid, nodes and weights), never an id.  Each entry keeps
    2 * len(grid) * n doubles, plus its 16 n key bytes: 256 KiB at the
    default 64-point grid and 256 nodes, 4 MiB at MAX_NODES = 4096, so
    about 65 MiB for a full cache of MATRIX_CACHE_ENTRIES entries at
    MAX_NODES.  A longer caller grid grows an entry in proportion.
    """
    return _cached_matrices(float(nu), float(c), grid.tobytes(),
                            rule.nodes.tobytes(), rule.weights.tobytes())


def _psi_setup(psi: Cpswf):
    # an odd order of degree k transforms like the even family of degree
    # k + 1 (see Cpswf.mu), so all three follow kappa = k + (n mod 2)
    kappa = psi.k + psi.n % 2
    nu, phase, weight = kappa + psi.m / 2 - 1, 1j ** kappa, 2 * kappa + psi.m - 1

    def f(r):
        return psi.radial_poly_values(np.asarray(r) ** 2)

    return nu, phase, weight, f


def _profiles(psi: Cpswf, grid: np.ndarray,
              rule: QuadratureRule | None) -> tuple[RadialSamples, RadialSamples]:
    """G_c psi and QP_c psi on a checked grid, from one evaluation of
    psi's radial factor at the rule nodes."""
    rule = _default_rule() if rule is None else rule
    nu, phase, weight, f = _psi_setup(psi)
    G, Q = _operator_matrices(nu, psi.c, grid, rule)
    at_nodes = f(rule.nodes)
    scale = phase * 2 * math.pi * psi.c ** (1 - psi.m / 2)
    return (RadialSamples(grid, scale * (G @ at_nodes), weight),
            RadialSamples(grid, 4 * math.pi ** 2 * psi.c ** 2 * (Q @ at_nodes), weight))


def apply_Gc(psi: Cpswf, grid: np.ndarray | None = None,
             rule: QuadratureRule | None = None) -> RadialSamples:
    """Radial profile of G_c psi on the grid.

    The full field is values(r) times the solid Y_k^i (even) or x Y_k^i
    (odd), matching the convention of psi.radial_poly_values.
    """
    return _profiles(psi, _check_grid(grid), rule)[0]


def apply_QPc(psi: Cpswf, grid: np.ndarray | None = None,
              rule: QuadratureRule | None = None) -> RadialSamples:
    """Radial profile of QP_c psi = c^m G_c* G_c psi on the grid."""
    return _profiles(psi, _check_grid(grid), rule)[1]


def verify(psi: Cpswf, grid: np.ndarray | None = None,
           rule: QuadratureRule | None = None) -> VerificationReport:
    """Check psi against the defining operators on the verification grid.

    mu_est: least-squares constant with G_c psi = mu_est psi; ratio_spread
    is the worst relative deviation of the pointwise ratio from mu_est,
    which divides by psi and so reads noise where psi is tiny (large c).
    gc_residual is the sup norm of G_c psi - mu_est psi relative to
    |mu_est| max |psi|.  residual is the sup norm of QP_c psi - lambda psi
    relative to max |psi|, with lambda the closed-form value (dual-route
    check).
    """
    grid = _check_grid(grid)
    own = psi.radial_poly_values(grid ** 2)
    size = np.max(np.abs(own))
    g, q = _profiles(psi, grid, rule)
    mu_est = complex(np.dot(own, g.values) / np.dot(own, own))
    ratios = g.values / own
    ratio_spread = float(np.max(np.abs(ratios - mu_est)) / abs(mu_est))
    gc_residual = float(np.max(np.abs(g.values - mu_est * own)) / (abs(mu_est) * size))
    lambda_est = float(np.real(np.dot(own, q.values) / np.dot(own, own)))
    residual = float(np.max(np.abs(q.values - psi.lam * own)) / size)
    return VerificationReport(mu_est, lambda_est, ratio_spread, residual, gc_residual)
