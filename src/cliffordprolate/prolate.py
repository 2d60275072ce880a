"""Clifford prolate spheroidal wave functions on the unit ball.

A CPSWF of order n attached to degree-k monogenics is

    psi_2N   = P(|x|^2) Y_k^i(x)          (even, P = sum_i alpha_i p_i)
    psi_2N+1 = x Q(|x|^2) Y_k^i(x)        (odd,  Q = sum_i beta_i q_i)

with coefficient vectors from the Galerkin eigenproblem.  Each psi is a
simultaneous eigenfunction of the differential operator L_c (eigenvalue
chi), of the finite Fourier transform G_c (eigenvalue mu, with phase
i^(k+n) up to a sign convention), and of the time-frequency limiting
operator QP_c = c^m G_c* G_c (eigenvalue lambda = c^m |mu|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Multivector, embed_coeffs, mul_coeffs
from .galerkin import RadialEigenpair, solve_radial
from .legendre import radial_values
from .monogenics import basis, dim_monogenic
from .special import gamma_fn


@dataclass(frozen=True)
class Cpswf:
    n: int
    k: int
    m: int
    c: float
    pair: RadialEigenpair

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"

    @property
    def N(self) -> int:
        return self.n // 2

    @property
    def coeffs(self) -> np.ndarray:
        return self.pair.coeffs

    @property
    def chi(self) -> float:
        return self.pair.chi

    @cached_property
    def _active(self) -> int:
        """Number of leading coefficients that matter for evaluation."""
        a = np.abs(self.coeffs)
        keep = np.nonzero(a > 1e-16 * a.max())[0]
        return int(keep[-1]) + 1

    def radial_poly_values(self, t) -> np.ndarray:
        """P(t) (even) or Q(t) (odd): the t-polynomial radial factor."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        na = self._active
        pv, qv = radial_values(self.k, self.m, na - 1, t)
        table = pv if self.parity == "even" else qv
        return self.coeffs[:na] @ table

    @cached_property
    def value_at_zero(self) -> float:
        """P(0) or Q(0) (without the odd r-prefactor)."""
        return float(self.radial_poly_values(np.zeros(1))[0])

    @cached_property
    def mu(self) -> complex:
        """Eigenvalue of the finite Fourier transform G_c.

        Closed forms in terms of the leading coefficient and the radial
        value at zero; the phase is i^(k+n) times a real sign.  The
        overall constant is pinned against direct quadrature of the
        defining integral (see operators.verify and the test oracles).
        """
        k, m, c = self.k, self.m, self.c
        if self.parity == "even":
            num = (1j ** k) * math.sqrt(2 * k + m) * math.pi ** (k + m / 2) * c ** k
            return complex(num * self.coeffs[0]
                           / (gamma_fn(k + m / 2 + 1) * self.value_at_zero))
        num = -(1j ** (k + 1)) * math.sqrt(2 * k + m + 2) \
            * math.pi ** (k + m / 2 + 1) * c ** (k + 1)
        return complex(num * self.coeffs[0]
                       / (gamma_fn(k + m / 2 + 2) * self.value_at_zero))

    @cached_property
    def lam(self) -> float:
        """Concentration eigenvalue lambda = c^m |mu|^2 of QP_c."""
        return float(self.c ** self.m * abs(self.mu) ** 2)


def make_cpswf(n: int, k: int, m: int, c: float, tol: float | None = None) -> Cpswf:
    """Construct the order-n CPSWF record from the Galerkin eigenproblem."""
    if n < 0 or k < 0:
        raise ValueError("require n >= 0 and k >= 0")
    if c <= 0:
        raise ValueError("require c > 0 (the c = 0 spectrum is pure Legendre)")
    parity = "even" if n % 2 == 0 else "odd"
    pair = solve_radial(parity, k, m, c, n // 2, tol)
    return Cpswf(n, k, m, float(c), pair)


def eval_radial(psi: Cpswf, r) -> np.ndarray:
    """Radial part at |x| = r: P(r^2) for even n, r Q(r^2) for odd n."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > 1):
        raise ValueError("radius must lie in [0, 1]")
    scalar = r.ndim == 0
    rr = np.atleast_1d(r)
    vals = psi.radial_poly_values(rr ** 2)
    if psi.parity == "odd":
        vals = rr * vals
    return float(vals[0]) if scalar else vals


def eval_field_coeffs(psi: Cpswf, i: int, x: np.ndarray) -> np.ndarray:
    """Raw Clifford coefficients of the field at points of shape (..., m)."""
    m = psi.m
    if m not in (2, 3):
        raise ValueError("field evaluation supports m in {2, 3}")
    d = dim_monogenic(m, psi.k)
    if not 1 <= i <= d:
        raise ValueError(f"basis index i must be in [1, {d}]")
    x = np.asarray(x, dtype=float)
    t = np.sum(x ** 2, axis=-1)
    if np.any(t > 1 + 1e-12):
        raise ValueError("points must lie in the closed unit ball")
    y = basis(m, psi.k).elements[i - 1].evaluate_coeffs(x)
    radial = psi.radial_poly_values(np.ravel(t)).reshape(t.shape)
    if psi.parity == "even":
        return radial[..., None] * y
    return radial[..., None] * mul_coeffs(m, embed_coeffs(m, x), y)


def eval_field(psi: Cpswf, i: int, x) -> Multivector:
    """Field value P(|x|^2) Y_k^i(x) or x Q(|x|^2) Y_k^i(x) as a Multivector."""
    return Multivector(psi.m, eval_field_coeffs(psi, i, np.asarray(x, dtype=float)))
