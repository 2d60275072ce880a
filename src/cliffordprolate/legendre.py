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
from the Bonnet formulas; the Rodrigues form, used for exact symbolic
checks at small degree, lives with the test oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

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


def _bonnet_rows(k: int, m: int, N_max: int, one: np.ndarray, times_t):
    """Yield the rows (p_N, q_N), N = 0..N_max, of the interleaved recurrence.

    `one` is the row of the constant 1 and times_t multiplies a row by t,
    so the same loop runs on monomial coefficients and on sampled values.
    """
    bc = bonnet_coeffs(np.arange(N_max + 1), k, m)
    # Python floats: a list index is cheaper than a numpy scalar in the loop
    A, B, Ap, Bp = (c.tolist() for c in (bc.A, bc.B, bc.A_prime, bc.B_prime))
    p, q = math.sqrt(2 * k + m) * one, 0.0
    for N in range(N_max + 1):
        q = (p - B[N] * q) / A[N]
        yield p, q
        if N < N_max:
            p = (times_t(q) + Bp[N] * p) / -Ap[N]


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
    rows = _bonnet_rows(k, m, N_max, np.eye(N_max + 1)[0],
                        lambda c: np.concatenate(([0.0], c[:-1])))
    p_out, q_out = [], []
    for i, (p, q) in enumerate(rows):
        p_out.append(RadialPoly(p[:i + 1], 2 * i, k, m, "even"))
        q_out.append(RadialPoly(q[:i + 1], 2 * i + 1, k, m, "odd"))
    return p_out, q_out


def radial_values(k: int, m: int, N_max: int, t):
    """Values p_N(t), q_N(t) for N = 0..N_max, each of shape (N_max+1,) + t.shape.

    Runs the Bonnet recurrence in value space, which stays well
    conditioned at orders where monomial coefficients overflow cancel.
    """
    t = np.asarray(t, dtype=float)
    pv, qv = zip(*_bonnet_rows(k, m, N_max, np.ones(t.shape), lambda v: t * v))
    return np.array(pv), np.array(qv)


def radial_series(k: int, m: int, parity: str, coeffs, t) -> np.ndarray:
    """sum_i coeffs[i] p_i(t) (even) or q_i(t) (odd), of shape t.shape.

    The same value-space recurrence as radial_values, summed as it runs:
    no (len(coeffs),) + t.shape table is stored, which on many points
    costs more than the recurrence itself.
    """
    t = np.asarray(t, dtype=float)
    j = ("even", "odd").index(parity)
    out = np.zeros(t.shape)
    rows = _bonnet_rows(k, m, len(coeffs) - 1, np.ones(t.shape), lambda v: t * v)
    for c, row in zip(coeffs, rows):
        out += c * row[j]
    return out
