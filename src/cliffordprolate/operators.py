"""The finite Fourier transform G_c, the limiting operator QP_c, and kernels.

G_c f(x) = integral over B(1) of e^(2 pi i c <x,y>) f(y) dy.  Acting on a
field R(|y|^2) Y_k(y) (even) or y R(|y|^2) Y_k(y) (odd) it reduces to a
Hankel-type radial transform of order nu = k + m/2 - 1 (even) or
k + m/2 (odd):

    T[f](s) = s^(-nu) int_0^1 r^(nu+1) f(r) J_nu(2 pi c r s) dr

with G_c profile = i^(k or k+1) 2 pi c^(1-m/2) T[f] multiplying the solid
angular factor.  QP_c = c^m G_c* G_c has radial action 4 pi^2 c^2 T[T[f]],
equivalently the symmetric kernel M_c(r, s).  All constants here are
fixed against brute-force quadrature of the defining integrals (the
closed forms in circulation carry typos); see the operator test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import jv as _jv

from .algebra import embed_coeffs, mul_coeffs
from .monogenics import basis
from .prolate import Cpswf
from .special import (
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
    default_nodes,
    gauss_rule_unit_interval,
    sphere_rule,
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


def kernel_Kc(x, c: float, m: int) -> float:
    """K_c(x) = integral of e^(2 pi i c <xi, x>) over B(1).

    Closed form (c|x|)^(-m/2) J_(m/2)(2 pi c |x|); K_c(0) = |B(1)|.
    Real-valued and even in x.
    """
    x = np.asarray(x, dtype=float)
    s = float(np.linalg.norm(x))
    z = 2 * math.pi * c * s
    if z < 1e-9:
        # J_(m/2)(z) ~ (z/2)^(m/2)/Gamma(m/2+1): the limit is |B(1)|
        return ball_volume(m)
    return float((c * s) ** (-m / 2) * _jv(m / 2, z))


def transform_matrix(nu: float, c: float, targets: np.ndarray,
                     rule: QuadratureRule) -> np.ndarray:
    """Matrix of T against the rule: (T f)(targets) = mat @ f(rule.nodes)."""
    s = np.asarray(targets, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"targets must be a 1-D array, got shape {s.shape}")
    if np.any(s <= 0):
        raise ValueError("targets must be positive (use the s -> 0 limit form)")
    r = rule.nodes
    bes = _jv(nu, 2 * math.pi * c * np.outer(s, r))
    return (s ** (-nu))[:, None] * bes * (rule.weights * r ** (nu + 1))[None, :]


@lru_cache(maxsize=MATRIX_CACHE_ENTRIES)
def _cached_matrices(nu: float, c: float, grid: bytes, nodes: bytes,
                     weights: bytes) -> tuple[np.ndarray, np.ndarray]:
    rule = QuadratureRule("unit_interval", np.frombuffer(nodes), np.frombuffer(weights))
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
    nu = psi.k + psi.m / 2 - 1 if psi.parity == "even" else psi.k + psi.m / 2
    phase = 1j ** psi.k if psi.parity == "even" else 1j ** (psi.k + 1)
    weight = 2 * psi.k + psi.m - 1 if psi.parity == "even" else 2 * psi.k + psi.m + 1

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


def Mc_kernel(r: float, s: float, c: float, k: int, m: int) -> float:
    """Symmetric kernel M_c(r, s) = 2 pi c int_0^1 u J_nu(2pi c r u) J_nu(2pi c s u) du
    with nu = k + m/2 - 1 (the even-case order).

    Cross-product closed form away from the diagonal; the analytic limit
    on the diagonal (cancellation makes the cross form unusable there).
    """
    nu = k + m / 2 - 1
    a = 2 * math.pi * c * r
    b = 2 * math.pi * c * s
    if abs(a - b) < 1e-7 * (1 + abs(a)):
        z = (a + b) / 2
        if z == 0:
            return 0.0 if nu > 0 else math.pi * c
        diag = 0.5 * (_jv(nu, z) ** 2 - _jv(nu - 1, z) * _jv(nu + 1, z))
        return float(2 * math.pi * c * diag)
    num = b * _jv(nu, a) * _jv(nu - 1, b) - a * _jv(nu - 1, a) * _jv(nu, b)
    return float(2 * math.pi * c * num / (a ** 2 - b ** 2))


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


def _angular_vectors(psi: Cpswf, i: int, sphere: QuadratureRule) -> np.ndarray:
    """Values of the angular factor (Y_k^i or w Y_k^i) on sphere nodes."""
    ang = basis(psi.m, psi.k).elements[i - 1].evaluate_coeffs(sphere.nodes)
    if psi.parity == "odd":
        ang = mul_coeffs(psi.m, embed_coeffs(psi.m, sphere.nodes), ang)
    return ang


def ball_gram(entries, radial_rule: QuadratureRule | None = None,
              sphere_order: int = 64,
              profiles: list | None = None) -> np.ndarray:
    """L^2(B(1)) Gram matrix of fields by full-ball product quadrature.

    entries: list of (psi, i) pairs.  profiles optionally replaces each
    psi's own radial factor by given values at the radial rule nodes
    (used for transformed fields like QP_c psi).
    """
    radial_rule = _default_rule() if radial_rule is None else radial_rule
    m = entries[0][0].m
    sphere = sphere_rule(m, sphere_order)
    r = radial_rule.nodes
    rad = []
    angs = []
    for j, (psi, i) in enumerate(entries):
        if psi.m != m:
            raise ValueError("mixed dimensions in ball_gram")
        prof = psi.radial_poly_values(r ** 2) if profiles is None else profiles[j]
        solid = r ** (psi.k if psi.parity == "even" else psi.k + 1)
        rad.append(prof * solid)
        angs.append(_angular_vectors(psi, i, sphere))
    n = len(entries)
    gram = np.zeros((n, n), dtype=complex)
    wr = radial_rule.weights * r ** (m - 1)
    for p in range(n):
        cp = np.conj(angs[p])
        for q in range(n):
            ang_int = np.dot(sphere.weights, np.sum(cp * angs[q], axis=-1))
            rad_int = np.dot(wr, np.conj(rad[p]) * rad[q])
            gram[p, q] = ang_int * rad_int
    return gram


def dual_orthogonality_check(entries, radial_rule: QuadratureRule | None = None,
                             sphere_order: int = 64):
    """Gram matrices of the normalized restricted functions phi-tilde.

    phi-tilde_n = lambda_n^(-1/2) P_c phi_n restricted appropriately:
    over R^m the Gram is (lambda_p lambda_q)^(-1/2) <psi_p, QP_c psi_q>
    on B(1) and should be the identity; over B(1) it is
    (lambda_p lambda_q)^(-1/2) <QP_c psi_p, QP_c psi_q> and should be
    diag(lambda).  Returns (gram_rm, gram_ball).
    """
    radial_rule = _default_rule() if radial_rule is None else radial_rule
    qp_profiles = []
    for psi, _ in entries:
        nu, _, _, f = _psi_setup(psi)
        tm = transform_matrix(nu, psi.c, radial_rule.nodes, radial_rule)
        qp_profiles.append(4 * math.pi ** 2 * psi.c ** 2 * (tm @ (tm @ f(radial_rule.nodes))))
    lam = np.array([psi.lam for psi, _ in entries])
    scale = 1.0 / np.sqrt(np.outer(lam, lam))
    own = [psi.radial_poly_values(radial_rule.nodes ** 2) for psi, _ in entries]
    n = len(entries)
    gram_rm = np.zeros((n, n), dtype=complex)
    # mixed Gram <psi_p, QP psi_q>: reuse ball_gram pairwise with mixed profiles
    for p in range(n):
        for q in range(n):
            pair = [entries[p], entries[q]]
            g = ball_gram(pair, radial_rule, sphere_order,
                          profiles=[own[p], qp_profiles[q]])
            gram_rm[p, q] = g[0, 1]
    gram_ball = ball_gram(entries, radial_rule, sphere_order, profiles=qp_profiles)
    return scale * gram_rm, scale * gram_ball
