"""Normalized Clifford-Legendre polynomials and their radial parts.

The degree-n Clifford-Legendre polynomial attached to a spherical
monogenic Y_k is C_n(Y_k) = dirac^n[(1 + x^2)^n Y_k] (Rodrigues form;
note x^2 = -|x|^2), normalized by sqrt(2k+2n+m) / (2^n n!).  In the
radial variable t = |x|^2 the normalized polynomials split as

    C_2N(Y_k)   = p_N(t) Y_k(x)
    C_2N+1(Y_k) = x q_N(t) Y_k(x)

with the normalization (1/2) int_0^1 p_N p_M t^(k+m/2-1) dt = delta and
(1/2) int_0^1 q_N q_M t^(k+m/2) dt = delta (unit L^2(B(1)) norm).  The
production path builds p_N, q_N by the interleaved recurrence coming
from the Bonnet formulas; the Rodrigues form is kept for exact
symbolic checks at small degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .monogenics import PolyMultivector, basis, dirac

N_MAX = 64
N_WARN = 40


def c0_eigenvalue(n: int, m: int, k: int) -> float:
    """Eigenvalue C(0,n,m,k) of the c=0 differential operator.

    n(n+m+2k) for even n, (n+1)(n+m+2k-1) for odd n.
    """
    if n % 2 == 0:
        return float(n * (n + m + 2 * k))
    return float((n + 1) * (n + m + 2 * k - 1))


@dataclass(frozen=True)
class RadialPoly:
    """Polynomial in t = |x|^2, ascending monomial coefficients."""

    coeffs: np.ndarray
    n: int
    k: int
    m: int
    parity: str  # 'even' -> p_N, 'odd' -> q_N

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, t):
        return P.polyval(np.asarray(t, dtype=float), self.coeffs)

    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1


@dataclass(frozen=True)
class BonnetCoeffs:
    A: float | np.ndarray
    B: float | np.ndarray
    A_prime: float | np.ndarray
    B_prime: float | np.ndarray


def bonnet_coeffs(N, k: int, m: int) -> BonnetCoeffs:
    """Coefficients of the Bonnet three-term relations for normalized
    Clifford-Legendre polynomials:

        p_N = A_N q_N + B_N q_(N-1)
        -t q_N = A'_N p_(N+1) + B'_N p_N

    N may be an integer or an integer array; the fields take its shape.
    """
    N = np.asarray(N)
    if np.any(N < 0) or k < 0 or m < 2:
        raise ValueError("require N >= 0, k >= 0, m >= 2")
    h = m / 2
    s = m + 4 * N + 2 * k
    r0, r2 = np.sqrt(s), np.sqrt(s + 2)
    d = h + 2 * N + k
    a = -(h + N + k) * r0 / (d * r2)
    with np.errstate(divide="ignore", invalid="ignore"):  # B_0 is 0/0 at m = 2, k = 0
        b = np.where(N == 0, 0.0, N * r0 / (d * np.sqrt(s - 2)))
    ap = -(N + 1) * r2 / ((d + 1) * np.sqrt(s + 4))
    bp = (h + N + k) * r2 / ((d + 1) * r0)
    return BonnetCoeffs(a, b, ap, bp)


def _bonnet_recurrence(k: int, m: int, N_max: int, one: np.ndarray, times_t):
    """Rows p_0..p_N_max and q_0..q_N_max of the interleaved recurrence.

    `one` is the row of the constant 1 and times_t multiplies a row by t,
    so the same loop runs on monomial coefficients and on sampled values.
    """
    bc = bonnet_coeffs(np.arange(N_max + 1), k, m)
    # Python floats: a list index is cheaper than a numpy scalar in the loop
    A, B, Ap, Bp = (c.tolist() for c in (bc.A, bc.B, bc.A_prime, bc.B_prime))
    pv = np.empty((N_max + 1,) + one.shape)
    qv = np.empty_like(pv)
    pv[0] = math.sqrt(2 * k + m) * one
    for N in range(N_max + 1):
        prev_q = qv[N - 1] if N > 0 else 0.0
        qv[N] = (pv[N] - B[N] * prev_q) / A[N]
        if N < N_max:
            pv[N + 1] = (times_t(qv[N]) + Bp[N] * pv[N]) / -Ap[N]
    return pv, qv


def radial_sequence(k: int, m: int, N_max: int):
    """Radial parts (p_0..p_N_max, q_0..q_N_max) by the Bonnet recurrence."""
    if not 0 <= N_max <= N_MAX:
        raise ValueError(f"N_max must be in [0, {N_MAX}]")
    if N_max > N_WARN:
        warnings.warn(
            f"monomial coefficients of radial polynomials are ill-conditioned "
            f"above degree {N_WARN}; prefer value-space evaluation",
            RuntimeWarning, stacklevel=2)
    # on ascending coefficients, times t shifts up one degree; q_N_max is
    # never shifted, so nothing falls off the end
    ps, qs = _bonnet_recurrence(k, m, N_max, np.eye(N_max + 1)[0],
                                lambda c: np.concatenate(([0.0], c[:-1])))
    p_out = [RadialPoly(c[:i + 1], 2 * i, k, m, "even") for i, c in enumerate(ps)]
    q_out = [RadialPoly(c[:i + 1], 2 * i + 1, k, m, "odd") for i, c in enumerate(qs)]
    return p_out, q_out


def radial_values(k: int, m: int, N_max: int, t: np.ndarray):
    """Values p_N(t), q_N(t) for N = 0..N_max as arrays (N_max+1, len(t)).

    Runs the Bonnet recurrence in value space, which stays well
    conditioned at orders where monomial coefficients overflow cancel.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _bonnet_recurrence(k, m, N_max, np.ones(t.size), lambda v: t * v)


def apply_L0_radial(p: RadialPoly, parity: str, k: int, m: int) -> RadialPoly:
    """Radial action of the c = 0 operator on a polynomial in t = |x|^2.

    even: F -> -4t(1-t)F'' - 2(m+2k - t(2+m+2k))F'
    odd:  F -> -4t(1-t)F'' - 2(m+2k+2 - t(4+m+2k))F' + 2(m+2k)F
    so that the radial parts satisfy L0[p_N] = C(0,2N,m,k) p_N and
    L0[q_N] = C(0,2N+1,m,k) q_N.
    """
    c = np.asarray(p.coeffs, dtype=float)
    d1 = P.polyder(c)
    d2 = P.polyder(c, 2)
    t_d2 = P.polymulx(d2)
    t2_d2 = P.polymulx(t_d2)
    t_d1 = P.polymulx(d1)
    if parity == "even":
        out = P.polyadd(P.polysub(4 * t2_d2, 4 * t_d2),
                        P.polysub(2 * (2 + m + 2 * k) * t_d1, 2 * (m + 2 * k) * d1))
    elif parity == "odd":
        out = P.polyadd(P.polysub(4 * t2_d2, 4 * t_d2),
                        P.polysub(2 * (4 + m + 2 * k) * t_d1,
                                  2 * (m + 2 * k + 2) * d1))
        out = P.polyadd(out, 2 * (m + 2 * k) * c)
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return RadialPoly(out, p.n, k, m, parity)


def _t_polynomial(m: int) -> PolyMultivector:
    out = PolyMultivector(m)
    for j in range(1, m + 1):
        xj = PolyMultivector.coordinate(m, j)
        out = out + xj * xj
    return out


def _x_polynomial(m: int) -> PolyMultivector:
    out = PolyMultivector(m)
    for j in range(1, m + 1):
        ej = np.zeros(1 << m, dtype=complex)
        ej[1 << (j - 1)] = 1.0
        out = out + PolyMultivector.coordinate(m, j).left_mul(ej)
    return out


def _scalar_poly_of_t(coeffs: np.ndarray, m: int) -> PolyMultivector:
    t = _t_polynomial(m)
    out = PolyMultivector.constant(m, complex(coeffs[0]))
    tpow = PolyMultivector.constant(m, 1.0)
    for c in coeffs[1:]:
        tpow = tpow * t
        out = out + tpow.scale(complex(c))
    return out


def assemble_polynomial(n: int, k: int, m: int,
                        Y: PolyMultivector | None = None) -> PolyMultivector:
    """Full normalized Clifford-Legendre polynomial as an exact polynomial.

    Even n = 2N gives p_N(|x|^2) Y(x); odd n = 2N+1 gives x q_N(|x|^2) Y(x).
    Intended for symbolic verification; capped at n <= 12.
    """
    if not 0 <= n <= 12:
        raise ValueError("assemble_polynomial supports 0 <= n <= 12")
    if Y is None:
        Y = basis(m, k).elements[0]
    N = n // 2
    ps, qs = radial_sequence(k, m, N)
    if n % 2 == 0:
        return _scalar_poly_of_t(ps[N].coeffs, m) * Y
    return _x_polynomial(m) * _scalar_poly_of_t(qs[N].coeffs, m) * Y


def rodrigues_polynomial(n: int, k: int, m: int,
                         Y: PolyMultivector | None = None) -> PolyMultivector:
    """Unnormalized Rodrigues form dirac^n[(1 + x^2)^n Y] with x^2 = -|x|^2.

    Multiply by sqrt(2k+2n+m) / (2^n n!) to match assemble_polynomial.
    """
    if not 0 <= n <= 13:
        raise ValueError("rodrigues_polynomial supports 0 <= n <= 13")
    if Y is None:
        Y = basis(m, k).elements[0]
    one_minus_t = PolyMultivector.constant(m, 1.0) - _t_polynomial(m)
    out = one_minus_t.power(n) * Y
    for _ in range(n):
        out = dirac(out)
    return out


def dirac_coupling_check(n: int, k: int, m: int) -> float:
    """Residual of the Dirac coupling identity on unnormalized polynomials:

        dirac(C_(n+1)) = 4(n+1) [ (n+k+m/2) C_n - n dirac(C_(n-1)) ]

    Returns the max coefficient residual relative to the largest
    coefficient of the left-hand side.
    """
    if not 0 <= n <= 10:
        raise ValueError("dirac_coupling_check supports 0 <= n <= 10")
    Y = basis(m, k).elements[0]
    lhs = dirac(rodrigues_polynomial(n + 1, k, m, Y))
    rhs = rodrigues_polynomial(n, k, m, Y).scale(4 * (n + 1) * (n + k + m / 2))
    if n >= 1:
        rhs = rhs - dirac(rodrigues_polynomial(n - 1, k, m, Y)).scale(4 * (n + 1) * n)
    diff = lhs - rhs
    scale = lhs.max_coeff()
    return diff.max_coeff() / scale if scale else diff.max_coeff()
