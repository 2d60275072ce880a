"""Bessel and Gamma functions plus the quadrature rules used everywhere else.

All integrals over the unit ball are reduced analytically to radial
integrals on [0, 1] before quadrature; full-dimensional quadrature only
appears in test oracles.  Rules on the circle S^1 and the sphere S^2 are
provided for checking the spherical monogenic bases.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

MIN_NODES = 128
MAX_NODES = 4096


def _env(name: str, default: str, kind: type, what: str):
    text = os.environ.get(name, default)
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {what}, got {text!r}") from None


def default_tol() -> float:
    """Convergence tolerance, overridable through CPSWF_TOL."""
    return _env("CPSWF_TOL", "1e-10", float, "a number")


def default_nodes() -> int:
    """Base quadrature node count, overridable through CPSWF_NODES."""
    n = _env("CPSWF_NODES", "256", int, "an integer")
    if not MIN_NODES <= n <= MAX_NODES:
        raise ValueError(f"CPSWF_NODES must be in [{MIN_NODES}, {MAX_NODES}], got {n}")
    return n


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x) for nu >= 0, 0 <= x <= 200."""
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(nu < 0):
        raise ValueError("order nu must be nonnegative")
    if np.any(x < 0) or np.any(x > 200):
        raise ValueError("argument x must lie in [0, 200]")
    out = _sp.jv(nu, x)
    if out.ndim == 0:
        return float(out)
    return out


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if x <= 0:
        raise ValueError("gamma_fn requires x > 0")
    return math.gamma(x)


def ball_volume(m: int) -> float:
    """Volume of the unit ball B(1) in R^m."""
    return math.pi ** (m / 2) / gamma_fn(m / 2 + 1)


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^(m-1) in R^m."""
    return 2 * math.pi ** (m / 2) / gamma_fn(m / 2)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on a declared domain.

    domain is one of 'unit_interval', 'circle', 'sphere'.  For 'circle'
    and 'sphere' the nodes are points on S^1 / S^2 with shape (P, m).
    """

    domain: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, values: np.ndarray) -> complex:
        return np.tensordot(self.weights, values, axes=(0, 0))


@lru_cache(maxsize=32)
def gauss_rule_unit_interval(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for polynomial degree <= 2n-1."""
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule("unit_interval", (x + 1) / 2, w / 2)


def weighted_inner(f, g, a: float, rule: QuadratureRule | None = None,
                   tol: float | None = None) -> float:
    """Approximate integral over [0,1] of f(t) g(t) t^a dt for a > -1.

    With no rule given, starts at the default node count and doubles
    until two successive estimates agree to tol (node-doubling monitor).
    """
    if a <= -1:
        raise ValueError("weight exponent must satisfy a > -1")

    def estimate(r: QuadratureRule) -> float:
        t = r.nodes
        return float(r.integrate(np.asarray(f(t)) * np.asarray(g(t)) * t ** a))

    if rule is not None:
        return estimate(rule)
    tol = default_tol() if tol is None else tol
    n = default_nodes()
    prev = estimate(gauss_rule_unit_interval(n))
    while 2 * n <= MAX_NODES:
        n *= 2
        cur = estimate(gauss_rule_unit_interval(n))
        if abs(cur - prev) < max(tol, 1e-11) * (1 + abs(cur)):
            return cur
        prev = cur
    return prev


@lru_cache(maxsize=64)
def sphere_rule(m: int, order: int) -> QuadratureRule:
    """Quadrature on S^(m-1) for m in {2, 3}.

    m=2: uniform trapezoid on the circle, exact for trigonometric degree
    < number of points.  m=3: product of Gauss-Legendre in cos(theta) and
    uniform phi, exact for spherical-harmonic degree <= order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if m == 2:
        p = max(order + 1, 4)
        theta = 2 * np.pi * np.arange(p) / p
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(p, 2 * np.pi / p)
        return QuadratureRule("circle", nodes, weights)
    if m == 3:
        nz = max(order // 2 + 1, 2)
        z, wz = np.polynomial.legendre.leggauss(nz)
        nphi = max(order + 1, 4)
        phi = 2 * np.pi * np.arange(nphi) / nphi
        s = np.sqrt(1 - z ** 2)
        nodes = np.empty((nz * nphi, 3))
        weights = np.empty(nz * nphi)
        for i in range(nz):
            sl = slice(i * nphi, (i + 1) * nphi)
            nodes[sl, 0] = s[i] * np.cos(phi)
            nodes[sl, 1] = s[i] * np.sin(phi)
            nodes[sl, 2] = z[i]
            weights[sl] = wz[i] * 2 * np.pi / nphi
        return QuadratureRule("sphere", nodes, weights)
    raise ValueError(f"sphere_rule supports m in {{2, 3}}, got {m}")


def chebyshev_grid(n: int) -> np.ndarray:
    """n Chebyshev-distributed points on the open interval (0, 1), ascending."""
    j = np.arange(1, n + 1)
    return np.sort(0.5 * (1 + np.cos((2 * j - 1) * np.pi / (2 * n))))
