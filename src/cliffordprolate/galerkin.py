"""Galerkin matrices for the prolate differential operator and their spectra.

In the Clifford-Legendre basis the operator L_c = dirac((1-|x|^2) dirac .)
+ 4 pi^2 c^2 |x|^2 acts on the even/odd radial coefficient sequences
through symmetric tridiagonal matrices M^e_k and M^o_k.  Truncating at
size T and solving the eigenproblem yields the coefficient vectors
(alpha for even order n = 2N, beta for odd n = 2N+1) and the
differential eigenvalues chi.

The two families satisfy M^o_k = M^e_(k+1) + (4k+2m) I, hence
chi_(2N+1)^k = chi_(2N)^(k+1) + 4k + 2m and beta^k_N = alpha^(k+1)_N.

solve_block is the one solver: one adaptive truncation, with one eigensolve
per size, gives every order 0..N_max of a (parity, k) as one record.  An odd
block is the even block of degree k + 1, shifted (as_odd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .special import default_tol

T_CAP = 4096
_BISECT_TOL = 2 * np.finfo(float).tiny  # LAPACK stebz's most accurate ABSTOL


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


@dataclass(frozen=True)
class RadialEigenpair:
    """Read-only eigenpairs of one truncated matrix: chi (N_max+1,) and coeffs
    (T, N_max+1) for a block; block[N] is order N, chi a float, coeffs (T,)."""

    chi: float | np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        np.asarray(self.chi).setflags(write=False)  # an order's float chi: a no-op

    @property
    def truncation(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, N: int) -> RadialEigenpair:
        return RadialEigenpair(float(self.chi[N]), self.coeffs[:, N])


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
    so that the identity holds to the last bit; the test suite checks
    this construction against the direct entry formulas of M^o_k.
    """
    base = build_even(k + 1, m, c, T)
    return SymTridiag(base.diag + (4 * k + 2 * m), base.offdiag, "odd", k, m, float(c))


def build(parity: str, k: int, m: int, c: float, T: int) -> SymTridiag:
    if parity == "even":
        return build_even(k, m, c, T)
    if parity == "odd":
        return build_odd(k, m, c, T)
    raise ValueError("parity must be 'even' or 'odd'")


def _check_ints(**values) -> None:
    for name, v in values.items():
        for x in v if isinstance(v, list) else [v]:
            if not isinstance(x, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {x!r}")


def solve_block(parity: str, k: int, m: int, c: float, N_max: int,
                tol: float | None = None) -> RadialEigenpair:
    """Converged eigenpairs of orders N = 0..N_max from one adaptive truncation.

    Doubles the truncation from T0 = 2 N_max + 16 + ceil(2c); each size
    takes one eigensolve of the N_max + 1 lowest eigenpairs.  It stops when,
    for every order of the block, the eigenvalue is stable to tol relative
    and the trailing coefficient is below tol.  Sign convention: the entry
    of largest magnitude of each eigenvector is made positive.  An odd block
    is the even block of degree k + 1 with chi shifted by 4k + 2m (see
    as_odd).  Raises ConvergenceError when the truncation would pass the
    cap, before any eigensolve if the first doubling already does.
    """
    _check_ints(k=k, m=m, N=N_max)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if N_max < 0 or k < 0 or c < 0:
        raise ValueError("require N >= 0, k >= 0, c >= 0")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    tol = default_tol() if tol is None else tol
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sizes = [2 * N_max + 16 + math.ceil(2 * c)]
    while 2 * sizes[-1] <= T_CAP:
        sizes.append(2 * sizes[-1])
    failure = ConvergenceError(f"truncation exceeded {T_CAP} for (parity={parity}, "
                               f"k={k}, m={m}, c={c}, N={N_max})")
    if len(sizes) < 2:  # converging takes two sizes; fail before solving either
        raise failure
    kk = k + 1 if parity == "odd" else k
    chi = None
    for T in sizes:
        mat = build("even", kk, m, c, T)
        # bisection down to the underflow threshold resolves each chi to a
        # few ulps of itself instead of eps * ||M||, so a converged chi no
        # longer moves with the truncation
        chi2, vecs = eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                      select_range=(0, N_max), tol=_BISECT_TOL)
        if chi is not None:
            drift = np.abs(chi2 - chi)
            # the achievable eigenvalue stability is limited by solver noise
            # of order eps * ||M||, which grows with the truncation
            floor = 8 * np.finfo(float).eps * (
                np.max(np.abs(mat.diag)) + 2 * np.max(np.abs(mat.offdiag), initial=0.0))
            if (np.all(drift <= tol * (1 + np.abs(chi2)) + floor)
                    and np.all(np.abs(vecs[-1]) <= tol)):
                big = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(N_max + 1)]
                block = RadialEigenpair(chi2, vecs * np.sign(big))
                return as_odd(block, k, m) if parity == "odd" else block
        chi = chi2
    raise failure


def as_odd(even_next: RadialEigenpair, k: int, m: int) -> RadialEigenpair:
    """The odd block of degree k from the even block of degree k + 1.

    M^o_k = M^e_(k+1) + (4k+2m) I, so beta^k_N = alpha^(k+1)_N and chi moves
    by 4k + 2m.  Converging the unshifted matrix is the stricter test: its
    relative drift bound and its noise floor are both smaller.
    """
    return replace(even_next, chi=even_next.chi + (4 * k + 2 * m))


def solve_radial(parity: str, k: int, m: int, c: float, N: int,
                tol: float | None = None) -> RadialEigenpair:
    """Converged N-th ascending eigenpair: order N of the block 0..N."""
    return solve_block(parity, k, m, c, N, tol)[N]
