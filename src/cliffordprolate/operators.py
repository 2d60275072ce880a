"""The finite Fourier transform G_c, the limiting operator QP_c, and kernels.

G_c f(x) = integral over B(1) of e^(2 pi i c <x,y>) f(y) dy.  Acting on a
field R(|y|^2) Y_k(y) (even) or y R(|y|^2) Y_k(y) (odd) it reduces to a
Hankel-type radial transform of order nu = k + m/2 - 1 (even) or
k + m/2 (odd):

    T[f](s) = s^(-nu) int_0^1 r^(nu+1) f(r) J_nu(2 pi c r s) dr

with G_c profile = i^(k or k+1) 2 pi c^(1-m/2) T[f] multiplying the solid
angular factor.  QP_c = c^m G_c* G_c has radial action 4 pi^2 c^2 T[T[f]],
and the inner integral of T[T[f]] is Lommel's,
L(a, b) = int_0^1 rho J_nu(a rho) J_nu(b rho) d rho, in closed form:

    T[T[f]](s) = s^(-nu) int_0^1 r^(nu+1) f(r) L(2 pi c s, 2 pi c r) dr

so both profiles take one quadrature over the same rule.  All constants
here are fixed against brute-force quadrature of the defining integrals
(the closed forms in circulation carry typos); see the operator test
oracles, which also hold the symmetric kernel M_c(r, s) of T[T[.]], the
QP_c matrix by quadrature and in multiprecision, and the full-ball Gram
quadrature.
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
    MAX_NODES,
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
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


def rule_nodes(c: float) -> int:
    """Gauss nodes of the default rule at bandwidth c, max(256, ceil(1.2 c) + 76),
    6% or more above each row of the operator tests' fit grid (k = 0, c = 100
    to 1500: 171 to 1,376 nodes for residuals of 1e-9).  Raises ValueError
    past MAX_NODES, for c above 3350, nan and inf."""
    if not 1.2 * c + 76 <= MAX_NODES:
        raise ValueError(f"verify's quadrature takes c <= {(MAX_NODES - 76) / 1.2:g} "
                         f"({MAX_NODES} Gauss nodes), got c = {c:g}")
    return max(256, math.ceil(1.2 * c) + 76)


def _default_rule(c: float) -> QuadratureRule:
    return gauss_rule_unit_interval(rule_nodes(c))


@lru_cache(maxsize=1)
def _default_grid() -> np.ndarray:
    """The GRID_POINTS-point Chebyshev grid, built once and read-only."""
    grid = chebyshev_grid(GRID_POINTS)
    grid.setflags(write=False)
    return grid


def _check_grid(grid) -> np.ndarray:
    """The default Chebyshev grid, or the caller's grid checked to be a
    non-empty 1-D array of finite, positive, strictly increasing radii."""
    if grid is None:
        return _default_grid()
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


# Terms of the near-diagonal series of the Lommel kernel.  It replaces the
# cross form below the offset u = kappa |b - a| at which the series'
# truncation bound u^P / (P + 1)! meets the cross form's rounding bound
# eps / u, u^(P + 2) = eps (P + 1)!: 0.87 at P = 16.
_LOMMEL_TERMS = 16
_LOMMEL_CUTOFF = ((np.finfo(float).eps * math.factorial(_LOMMEL_TERMS + 1))
                  ** (1 / (_LOMMEL_TERMS + 2)))


def _lommel_near(nu: float, a: np.ndarray, h: np.ndarray, j0: np.ndarray,
                 j1: np.ndarray) -> np.ndarray:
    """L(a, a + h) from its Taylor series in h, with j0 = J_nu(a) and
    j1 = J_(nu+1)(a); h = 0 gives the diagonal
    (J_nu^2 + J_(nu+1)^2)/2 - (nu/a) J_nu J_(nu+1).

    The Taylor coefficients y_p of y = (J_nu, J_(nu+1)) at a follow from
    x y' = diag(nu, -nu-1) y + x C y, with C (u, v) = (-v, u):
    a (p+1) y_(p+1) = diag(nu - p, -nu-1-p) y_p + a C y_p + C y_(p-1).
    The numerator of the cross form, a j1 J_nu(a+h) - (a+h) j0 J_(nu+1)(a+h),
    vanishes at h = 0; its p-th term over h is
    (a j1 y_p[0] - j0 (a y_p[1] + y_(p-1)[1])) h^(p-1).  The loop carries
    y_p h^(p-1) and y_(p-1) h^(p-1), which stay finite however small a is."""
    y0, y1 = (nu * j0 - a * j1) / a, j0 - (nu + 1) * j1 / a
    z0, z1 = j0, j1
    total = np.zeros_like(a)
    for p in range(1, _LOMMEL_TERMS + 1):
        total += a * j1 * y0 - j0 * (a * y1 + z1)
        y0, y1, z0, z1 = (h * ((nu - p) * y0 - a * y1 - z1) / (a * (p + 1)),
                          h * (a * y0 + z0 - (nu + 1 + p) * y1) / (a * (p + 1)), h * y0, h * y1)
    return -total / (2 * a + h)


def _lommel(nu: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L(a_i, b_j) = int_0^1 rho J_nu(a_i rho) J_nu(b_j rho) d rho for a > 0 and
    b >= 0, from four J vectors (Lommel's integral; Watson, Bessel Functions,
    section 5.11):
    [a J_(nu+1)(a) J_nu(b) - b J_nu(a) J_(nu+1)(b)] / (a^2 - b^2), with
    _lommel_near where b is within _LOMMEL_CUTOFF / kappa of a, kappa =
    1 + 2 (nu + 1)/a bounding the log-derivative of (J_nu, J_(nu+1)) there."""
    jv = _jv()
    ja0, ja1, jb0, jb1 = jv(nu, a), jv(nu + 1, a), jv(nu, b), jv(nu + 1, b)
    A, B = a[:, None], b[None, :]
    # numerator and denominator over max(a, b)^2, which keeps both from
    # underflowing at tiny c
    M = np.maximum(A, B)
    num = (A / M) * (ja1[:, None] / M) * jb0 - (B / M) * ja0[:, None] * (jb1 / M)
    near = (1 + 2 * (nu + 1) / A) * np.abs(B - A) < _LOMMEL_CUTOFF
    L = np.divide(num, ((A - B) / M) * ((A + B) / M), out=np.zeros_like(num), where=~near)
    i, j = np.nonzero(near)
    L[i, j] = _lommel_near(nu, a[i], b[j] - a[i], ja0[i], ja1[i])
    return L


@lru_cache(maxsize=MATRIX_CACHE_ENTRIES)
def _cached_matrices(nu: float, c: float, grid: bytes, nodes: bytes,
                     weights: bytes) -> tuple[np.ndarray, np.ndarray]:
    rule = QuadratureRule(np.frombuffer(nodes), np.frombuffer(weights))
    s, r = np.frombuffer(grid), rule.nodes
    G = transform_matrix(nu, c, s, rule)
    # T[T[f]] with its inner integral in closed form (module docstring)
    Q = ((s ** (-nu))[:, None] * _lommel(nu, 2 * math.pi * c * s, 2 * math.pi * c * r)
         * (rule.weights * r ** (nu + 1))[None, :])
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
    default 64-point grid and 256 nodes (the default rule up to c = 150),
    4 MiB at MAX_NODES = 4096 (c = 3350), so about 65 MiB for a full cache
    of MATRIX_CACHE_ENTRIES entries at MAX_NODES.  A longer caller grid
    grows an entry in proportion.  Building an entry takes J at
    len(grid) * n points for G and at 2 (len(grid) + n) for Q's Lommel
    kernel, with temporaries of the entry's size only:
    `verify --m 2 --c 3350 --k 0 --nmax 0` peaks at 294 MiB RSS, most of it
    numpy's leggauss building the 4096-node rule.
    """
    return _cached_matrices(float(nu), float(c), grid.tobytes(),
                            rule.nodes.tobytes(), rule.weights.tobytes())


def _psi_setup(psi: Cpswf) -> tuple[int, float, int]:
    """(kappa, nu, weight exponent) of psi: an odd order of degree k
    transforms like the even family of degree k + 1 (see Cpswf.mu), so all
    three follow kappa = k + (n mod 2)."""
    kappa = psi.k + psi.n % 2
    return kappa, kappa + psi.m / 2 - 1, 2 * kappa + psi.m - 1


def _matrices(psi: Cpswf, grid: np.ndarray, rule: QuadratureRule | None):
    """(G, Q, rule) of psi on a checked grid, with the default rule of psi.c for None."""
    rule = _default_rule(psi.c) if rule is None else rule
    _, nu, _ = _psi_setup(psi)
    return (*_operator_matrices(nu, psi.c, grid, rule), rule)


def _gc_values(psi: Cpswf, G: np.ndarray, at_nodes: np.ndarray) -> np.ndarray:
    """G_c psi on the grid of G from psi's radial factor at the rule nodes."""
    kappa, _, _ = _psi_setup(psi)
    return 1j ** kappa * 2 * math.pi * psi.c ** (1 - psi.m / 2) * (G @ at_nodes)


def _qp_values(psi: Cpswf, Q: np.ndarray, at_nodes: np.ndarray) -> np.ndarray:
    """QP_c psi on the grid of Q from psi's radial factor at the rule nodes."""
    return 4 * math.pi ** 2 * psi.c ** 2 * (Q @ at_nodes)


def apply_Gc(psi: Cpswf, grid: np.ndarray | None = None,
             rule: QuadratureRule | None = None) -> RadialSamples:
    """Radial profile of G_c psi on the grid.

    The full field is values(r) times the solid Y_k^i (even) or x Y_k^i
    (odd), matching the convention of psi.radial_poly_values.
    """
    grid = _check_grid(grid)
    G, _, rule = _matrices(psi, grid, rule)
    values = _gc_values(psi, G, psi.radial_poly_values(rule.nodes ** 2))
    return RadialSamples(grid, values, _psi_setup(psi)[2])


def apply_QPc(psi: Cpswf, grid: np.ndarray | None = None,
              rule: QuadratureRule | None = None) -> RadialSamples:
    """Radial profile of QP_c psi = c^m G_c* G_c psi on the grid."""
    grid = _check_grid(grid)
    _, Q, rule = _matrices(psi, grid, rule)
    values = _qp_values(psi, Q, psi.radial_poly_values(rule.nodes ** 2))
    return RadialSamples(grid, values, _psi_setup(psi)[2])


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
    G, Q, rule = _matrices(psi, grid, rule)
    # one recurrence over both point sets; it runs elementwise, so each half
    # equals its own evaluation to the bit
    own, at_nodes = np.split(psi.radial_poly_values(np.concatenate((grid, rule.nodes)) ** 2),
                             [grid.size])
    size = np.max(np.abs(own))
    g, q = _gc_values(psi, G, at_nodes), _qp_values(psi, Q, at_nodes)
    mu_est = complex(np.dot(own, g) / np.dot(own, own))
    ratios = g / own
    ratio_spread = float(np.max(np.abs(ratios - mu_est)) / abs(mu_est))
    gc_residual = float(np.max(np.abs(g - mu_est * own)) / (abs(mu_est) * size))
    lambda_est = float(np.real(np.dot(own, q) / np.dot(own, own)))
    residual = float(np.max(np.abs(q - psi.lam * own)) / size)
    return VerificationReport(mu_est, lambda_est, ratio_spread, residual, gc_residual)
