"""Clifford prolate spheroidal wave functions on the unit ball.

A CPSWF of order n attached to degree-k monogenics is

    psi_2N   = P(|x|^2) Y_k^i(x)          (even, P = sum_i alpha_i p_i)
    psi_2N+1 = x Q(|x|^2) Y_k^i(x)        (odd,  Q = sum_i beta_i q_i)

with coefficient vectors from the Galerkin eigenproblem.  Each psi is a
simultaneous eigenfunction of the differential operator L_c (eigenvalue
chi), of the finite Fourier transform G_c (eigenvalue mu, with phase
i^(k+n) up to a sign convention), and of the time-frequency limiting
operator QP_c = c^m G_c* G_c (eigenvalue lambda = c^m |mu|^2).

make_cpswf builds one record; cpswf_blocks builds every order 0..n_max of
each degree k from one even block solve per degree and one radial value
table per degree, which also carries the t = 0 row that mu and lambda need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Multivector
from .algebra import mul_coeffs  # noqa: F401  (kept for the benchmark's span hooks)
from .galerkin import RadialEigenpair, as_odd, solve_block, solve_radial
from .legendre import radial_series, radial_values
from .monogenics import PolyMultivector, basis, dim_monogenic
from .special import gamma_fn


@dataclass(frozen=True)
class Cpswf:
    """One CPSWF: its order, degree, dimension, bandwidth and radial
    eigenpair, plus the radial basis at t = 0, p_i(0) (even) or q_i(0)
    (odd) for i < truncation, from which mu and lambda follow."""

    n: int
    k: int
    m: int
    c: float
    pair: RadialEigenpair
    basis_at_zero: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        z = np.array(self.basis_at_zero, dtype=float)  # contiguous, not a table column
        z.setflags(write=False)
        object.__setattr__(self, "basis_at_zero", z)

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
        """Number of leading coefficients that matter for evaluation.

        On [0, 1], |p_i(t)| and |q_i(t)| peak at t = 0, so |alpha_i p_i(0)|
        bounds what term i adds anywhere; terms below 1e-16 of the largest
        bound are dropped.  The cut cannot follow |alpha_i| alone: p_i(0)
        grows like i^(k+m/2-1/2), and the dropped tail would move P(0),
        hence mu and lambda.
        """
        bound = np.abs(self.coeffs * self.basis_at_zero)
        keep = np.nonzero(bound > 1e-16 * bound.max())[0]
        return int(keep[-1]) + 1

    def radial_poly_values(self, t) -> np.ndarray:
        """P(t) (even) or Q(t) (odd): the t-polynomial radial factor."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return radial_series(self.k, self.m, self.parity, self.coeffs[:self._active], t)

    @cached_property
    def value_at_zero(self) -> float:
        """P(0) or Q(0) (without the odd r-prefactor)."""
        na = self._active
        return float(self.coeffs[:na] @ self.basis_at_zero[:na])

    @cached_property
    def mu(self) -> complex:
        """Eigenvalue of the finite Fourier transform G_c.

        One closed form in kappa = k + (n mod 2), the leading coefficient
        and the radial value at zero: an odd order of degree k is the even
        family of degree k + 1 (galerkin.as_odd, q^k_N = -p^(k+1)_N), so
        it takes the even form at kappa with the sign flipped.  The phase
        is i^kappa times a real sign.  The overall constant is pinned
        against direct quadrature of the defining integral (see
        operators.verify and the test oracles).
        """
        m, c = self.m, self.c
        kappa = self.k + self.n % 2
        phase = -(1j ** kappa) if self.n % 2 else 1j ** kappa
        num = phase * math.sqrt(2 * kappa + m) * math.pi ** (kappa + m / 2) * c ** kappa
        return complex(num * self.coeffs[0]
                       / (gamma_fn(kappa + m / 2 + 1) * self.value_at_zero))

    @cached_property
    def lam(self) -> float:
        """Concentration eigenvalue lambda = c^m |mu|^2 of QP_c."""
        return float(self.c ** self.m * abs(self.mu) ** 2)


def _check_order(n: int, k: int, c: float) -> None:
    if n < 0 or k < 0:
        raise ValueError("require n >= 0 and k >= 0")
    if c <= 0:
        raise ValueError("require c > 0 (the c = 0 spectrum is pure Legendre)")


def make_cpswf(n: int, k: int, m: int, c: float, tol: float | None = None) -> Cpswf:
    """Construct the order-n CPSWF record from the Galerkin eigenproblem."""
    _check_order(n, k, c)
    pair = solve_radial("even" if n % 2 == 0 else "odd", k, m, c, n // 2, tol)
    pv, qv = radial_values(k, m, pair.truncation - 1, np.zeros(1))
    return Cpswf(n, k, m, float(c), pair, (pv if n % 2 == 0 else qv)[:, 0])


def cpswf_blocks(m: int, c: float, ks, n_max: int, tol: float | None = None, t=()):
    """Yield (k, psis, values) for each degree k in ks: the CPSWFs
    psi_0^k..psi_(n_max)^k and their radial factors P(t) (even n) or Q(t)
    (odd n), an array of shape (n_max+1,) + t.shape.

    Each degree takes one even block solve of orders 0..n_max//2 (see
    galerkin.solve_block).  Its odd block is the even block of degree
    k + 1 (galerkin.as_odd), which the next degree of ks reuses, so the
    degrees 0..K take K + 2 solves.  One radial_values table per degree,
    with t = 0 in its first column, gives every order its mu, its lambda
    and its values.  chi, mu and lambda equal make_cpswf's whenever the
    solves do.
    """
    _check_order(n_max, min(ks, default=0), c)
    t = np.asarray(t, dtype=float)
    points = np.concatenate(([0.0], t.ravel()))
    ahead = None  # (k + 1, its even block), for the next degree to reuse
    for k in ks:
        blocks = [ahead[1] if ahead and ahead[0] == k
                  else solve_block("even", k, m, c, n_max // 2, tol)]
        if n_max > 0:
            ahead = (k + 1, solve_block("even", k + 1, m, c, n_max // 2, tol))
            blocks.append(as_odd(ahead[1], k, m))
        T = max(pair.truncation for block in blocks for pair in block)
        tables = radial_values(k, m, T - 1, points)
        psis, values = [], []
        for n in range(n_max + 1):
            pair, table = blocks[n % 2][n // 2], tables[n % 2]
            psi = Cpswf(n, k, m, float(c), pair, table[:pair.truncation, 0])
            psis.append(psi)
            values.append(psi.coeffs[:psi._active] @ table[:psi._active, 1:])
        yield k, psis, np.reshape(values, (n_max + 1,) + t.shape)


def eval_radial(psi: Cpswf, r) -> np.ndarray:
    """Radial part at |x| = r: P(r^2) for even n, r Q(r^2) for odd n."""
    r = np.asarray(r, dtype=float)
    if not np.all((0 <= r) & (r <= 1)):
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
    if x.ndim == 0 or x.shape[-1] != m:
        raise ValueError(f"points must have shape (..., {m}), got {x.shape}")
    t = np.sum(x ** 2, axis=-1)
    if not np.all(t <= 1 + 1e-12):
        raise ValueError("points must lie in the closed unit ball")
    y = basis(m, psi.k).elements[i - 1]
    if psi.parity == "odd":
        y = PolyMultivector.vector(m) * y
    radial = psi.radial_poly_values(np.ravel(t)).reshape(t.shape)
    return radial[..., None] * y.evaluate_coeffs(x)


def eval_field(psi: Cpswf, i: int, x) -> Multivector:
    """Field value P(|x|^2) Y_k^i(x) or x Q(|x|^2) Y_k^i(x) as a Multivector."""
    return Multivector(psi.m, eval_field_coeffs(psi, i, np.asarray(x, dtype=float)))
