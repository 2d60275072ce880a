"""Galerkin matrices for the prolate differential operator and their spectra.

In the Clifford-Legendre basis the operator L_c = dirac((1-|x|^2) dirac .)
+ 4 pi^2 c^2 |x|^2 acts on the even/odd radial coefficient sequences
through symmetric tridiagonal matrices M^e_k and M^o_k.  Truncating at
size T and solving the eigenproblem yields the coefficient vectors
(alpha for even order n = 2N, beta for odd n = 2N+1) and the
differential eigenvalues chi.

The two families satisfy M^o_k = M^e_(k+1) + (4k+2m) I, hence
chi_(2N+1)^k = chi_(2N)^(k+1) + 4k + 2m and beta^k_N = alpha^(k+1)_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .special import default_tol

T_CAP = 4096


class ConvergenceError(RuntimeError):
    """Raised when adaptive truncation fails to converge below the cap."""


@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    offdiag: np.ndarray
    parity: str
    k: int
    m: int
    c: float

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if e.shape != (d.size - 1,):
            raise ValueError("offdiag must have length T-1")
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def size(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True)
class RadialEigenpair:
    chi: float
    coeffs: np.ndarray
    truncation: int
    convergence: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def build_even(k: int, m: int, c: float, T: int) -> SymTridiag:
    """Truncated matrix M^e_k acting on even-order coefficients alpha.

    The i = 0 sub-term i^2/(k+2i+m/2-1) is defined as 0 even when its
    denominator vanishes (k=0, m=2): in the Bonnet derivation it carries
    a factor B_0 = 0.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    # extended-precision evaluation keeps independent even/odd entry
    # formulas consistent to well below 1e-13 absolute
    h = np.longdouble(m) / 2
    w = 4 * np.longdouble(math.pi) ** 2 * np.longdouble(c) ** 2
    i = np.arange(T, dtype=np.longdouble)
    diag = 4 * i * (k + i + h)
    bracket = (k + i + h) ** 2 / (k + 2 * i + h + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sub = np.where(i > 0, i ** 2 / (k + 2 * i + h - 1), np.longdouble(0))
    diag = diag + w / (k + 2 * i + h) * (bracket + sub)
    j = i[:-1]
    off = -w * (j + 1) * (k + j + h) / (
        (k + 2 * j + h + 1) * np.sqrt((k + 2 * j + h + 2) * (k + 2 * j + h)))
    return SymTridiag(diag.astype(float), off.astype(float), "even", k, m, float(c))


def build_odd(k: int, m: int, c: float, T: int) -> SymTridiag:
    """Truncated matrix M^o_k acting on odd-order coefficients beta.

    Constructed through the exact identity M^o_k = M^e_(k+1) + (4k+2m) I
    so that the identity holds to the last bit; the direct entry
    formulas are kept in _odd_entries_direct and checked against this
    construction at the 1-ulp level in the test suite.
    """
    base = build_even(k + 1, m, c, T)
    return SymTridiag(base.diag + (4 * k + 2 * m), base.offdiag, "odd", k, m, float(c))


def _odd_entries_direct(k: int, m: int, c: float, T: int):
    """Diagonal and off-diagonal of M^o_k from its own closed entry formulas."""
    h = np.longdouble(m) / 2
    w = 4 * np.longdouble(math.pi) ** 2 * np.longdouble(c) ** 2
    i = np.arange(T, dtype=np.longdouble)
    diag = 4 * (i + 1) * (k + i + h)
    diag = diag + w / (k + 2 * i + h + 1) * (
        (k + i + h) ** 2 / (k + 2 * i + h) + (i + 1) ** 2 / (k + 2 * i + h + 2))
    j = i[:-1]
    off = -w * (j + 1) * (k + j + h + 1) / (
        (k + 2 * j + h + 2) * np.sqrt((k + 2 * j + h + 3) * (k + 2 * j + h + 1)))
    return diag.astype(float), off.astype(float)


def build(parity: str, k: int, m: int, c: float, T: int) -> SymTridiag:
    if parity == "even":
        return build_even(k, m, c, T)
    if parity == "odd":
        return build_odd(k, m, c, T)
    raise ValueError("parity must be 'even' or 'odd'")


def eig_sym_tridiag(mat: SymTridiag):
    """All eigenpairs, eigenvalues ascending, eigenvectors orthonormal."""
    vals, vecs = eigh_tridiagonal(mat.diag, mat.offdiag)
    return [(float(vals[j]), vecs[:, j]) for j in range(vals.size)]


def _nth_pair(mat: SymTridiag, N: int):
    vals, vecs = eigh_tridiagonal(mat.diag, mat.offdiag,
                                  select="i", select_range=(N, N))
    return float(vals[0]), vecs[:, 0]


def smallc_curvature(parity: str, k: int, m: int, N: int) -> float:
    """First-order coefficient b with chi(c) = chi(0) + 4 pi^2 c^2 b + O(c^4).

    This is the c^2-coefficient of the N-th diagonal entry, i.e. the
    |x|^2-recurrence coefficient b_N for the matching parity.
    """
    one = build(parity, k, m, 1.0, N + 2)
    zero = build(parity, k, m, 0.0, N + 2)
    return float((one.diag[N] - zero.diag[N]) / (4 * math.pi ** 2))


def solve_radial(parity: str, k: int, m: int, c: float, N: int,
                 tol: float | None = None) -> RadialEigenpair:
    """Converged N-th ascending eigenpair of the truncated Galerkin matrix.

    Doubles the truncation from T0 = 2N + 16 + ceil(2c) until both the
    eigenvalue is stable to tol relative and the trailing coefficient is
    below tol.  Sign convention: the entry of largest magnitude is made
    positive.  Raises ConvergenceError past the truncation cap.
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if N < 0 or k < 0 or c < 0:
        raise ValueError("require N >= 0, k >= 0, c >= 0")
    tol = default_tol() if tol is None else tol
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    T = 2 * N + 16 + math.ceil(2 * c)
    chi, vec = _nth_pair(build(parity, k, m, c, T), N)
    while True:
        T2 = 2 * T
        if T2 > T_CAP:
            raise ConvergenceError(
                f"truncation exceeded {T_CAP} for (parity={parity}, k={k}, "
                f"m={m}, c={c}, N={N})")
        mat2 = build(parity, k, m, c, T2)
        chi2, vec2 = _nth_pair(mat2, N)
        drift = abs(chi2 - chi)
        # the achievable eigenvalue stability is limited by solver noise
        # of order eps * ||M||, which grows with the truncation
        floor = 8 * np.finfo(float).eps * (
            np.max(np.abs(mat2.diag)) + 2 * np.max(np.abs(mat2.offdiag), initial=0.0))
        if drift <= tol * (1 + abs(chi2)) + floor and abs(vec2[-1]) <= tol:
            imax = int(np.argmax(np.abs(vec2)))
            if vec2[imax] < 0:
                vec2 = -vec2
            return RadialEigenpair(chi2, vec2, T2, drift)
        T, chi, vec = T2, chi2, vec2
