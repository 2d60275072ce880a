"""Galerkin matrices for the prolate differential operator and their spectra.

In the Clifford-Legendre basis the operator L_c = dirac((1-|x|^2) dirac .)
+ 4 pi^2 c^2 |x|^2 acts on the even/odd radial coefficient sequences
through symmetric tridiagonal matrices M^e_k and M^o_k.  Truncating at
size T and solving the eigenproblem yields the coefficient vectors
(alpha for even order n = 2N, beta for odd n = 2N+1) and the
differential eigenvalues chi.

The two families satisfy M^o_k = M^e_(k+1) + (4k+2m) I, hence
chi_(2N+1)^k = chi_(2N)^(k+1) + 4k + 2m and beta^k_N = alpha^(k+1)_N; so
build makes only the even matrix M^e_k.

solve_block is the one solver: one eigensolve of a truncated matrix gives
every order 0..N_max of a (parity, k) as one record, accepted at the first
truncation whose residual certificate holds (the truncation doubles only
when it does not).  An odd block is the even block of degree k + 1, shifted
(as_odd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .special import default_tol, scipy_extension

T_CAP = 4096
_BISECT_TOL = 2 * np.finfo(float).tiny  # LAPACK stebz's most accurate ABSTOL


class ConvergenceError(RuntimeError):
    """Raised when adaptive truncation fails to converge below the cap."""


@dataclass(frozen=True)
class SymTridiag:
    """A read-only symmetric tridiagonal matrix: diag (T,) and offdiag (T-1,)."""

    diag: np.ndarray
    offdiag: np.ndarray

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


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise ConvergenceError(f"LAPACK {routine} did not converge (info={info})")


def eigh_tridiagonal(d, e, *, select_range, select="i", tol=0.0):
    """Eigenpairs lo..hi (ascending, 0-based) of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, for select_range = (lo, hi).

    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=..., tol=...)
    with the same LAPACK calls and so the same bits: dstebz bisects the
    eigenvalues to the absolute tolerance tol, in blocks of the matrix's
    splitting, dstein inverse-iterates their vectors, and both are sorted
    ascending.  The routines come from scipy's compiled LAPACK module, not
    from the scipy.linalg package (special.scipy_extension).  A LAPACK info
    < 0 raises ValueError, one > 0 ConvergenceError.
    """
    if select != "i":
        raise ValueError(f"only select='i' is supported, got {select!r}")
    d, e = np.asarray_chkfinite(d, dtype=float), np.asarray_chkfinite(e, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ValueError(f"need d of shape (T,) and e of shape (T-1,), got {d.shape}, {e.shape}")
    lapack = scipy_extension("linalg._flapack", ("dstebz", "dstein"), "scipy.linalg.lapack")
    lo, hi = select_range
    count, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tol, "B")
    _check_info(info, "dstebz")
    w = w[:count]
    vecs, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "dstein")
    order = np.argsort(w)
    return w[order], vecs[:, order]


def build(k: int, m: int, c: float, T: int) -> SymTridiag:
    """Truncated matrix M^e_k acting on even-order coefficients alpha; the
    odd family needs no matrix of its own (as_odd).

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
    return SymTridiag(diag.astype(float), off.astype(float))


def _check_ints(**values) -> None:
    for name, v in values.items():
        for x in v if isinstance(v, list) else [v]:
            if not isinstance(x, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {x!r}")


def solve_block(parity: str, k: int, m: int, c: float, N_max: int,
                tol: float | None = None) -> RadialEigenpair:
    """Certified eigenpairs of orders N = 0..N_max from one truncated matrix.

    Tries T = T0 * 2^i <= T_CAP, T0 = 2 N_max + 16 + ceil(2c), and takes one
    eigensolve per size: the N_max + 2 lowest eigenpairs (chi_j, v_j) of the
    leading T x T part M_T of the infinite matrix M.  Padded with zeros, v_j
    is an eigenvector of M up to the residual r_j = |M[T-1, T]| |v_j[T-1]|,
    as row T is the only row of M that it misses; so M has an eigenvalue in
    chi_j +- rho_j, rho_j = r_j + floor, where the floor 8 eps ||M_T|| covers
    the eigensolver's own error.  The first size is accepted where

    - r_j <= tol (1 + |chi_j|) + floor for every order j <= N_max;
    - |v_j[T-1]| p_(T-1)(0) <= tol' max_i |v_j[i]| p_i(0), for every
      j <= N_max, where tol' = max(tol, eps): p_i(0) is the largest value of
      the i-th basis polynomial on [0, 1], so the dropped tail is below tol
      of the radial factor it builds, or below its rounding.  p_i(0) grows
      with i, so this also bounds |v_j[T-1]| by tol';
    - the intervals chi_j +- rho_j of j = 0..N_max + 1 are disjoint;
    - M has exactly N_max + 1 eigenvalues below theta, the middle of the gap
      between the intervals of N_max and N_max + 1 (see _certified).

    Then the eigenvalue of M in the j-th interval is the j-th: the intervals
    0..N_max lie below theta, and each holds at least one of the N_max + 1
    eigenvalues there.  Min-max adds chi_j(M) <= chi_j, and theta bounds
    chi_(N_max+1)(M) from below, the gap in the residual bound on each
    eigenvector's angle.  Otherwise the truncation doubles.  A tol below
    eps certifies as eps: the eigensolver's vector entries bottom out near
    1e-51..1e-60, and a tighter tol would only double the truncation.

    Sign convention: the entry of largest magnitude of each eigenvector is
    made positive.  An odd block is the even block of degree k + 1 with chi
    shifted by 4k + 2m (see as_odd).  Raises ConvergenceError when the
    truncation would pass the cap, before any eigensolve if T0 does.
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
    if sizes[0] > T_CAP:
        raise failure
    kk = k + 1 if parity == "odd" else k
    h = m / 2
    for T in sizes:
        mat = build(kk, m, c, T + 1)  # its last entry is M[T-1, T]
        diag, off = mat.diag[:T], mat.offdiag[:T - 1]
        # bisection down to the underflow threshold resolves each chi to a
        # few ulps of itself instead of eps * ||M||, so a certified chi does
        # not move with the truncation
        chi, vecs = eigh_tridiagonal(diag, off, select="i",
                                     select_range=(0, N_max + 1), tol=_BISECT_TOL)
        # Gershgorin: each row i >= T of M has diag_i - |off_(i-1)| - |off_i|
        # >= 4i(kk+i+h) - 4 pi^2 c^2 / (kk+2i+h-2), which grows with i
        g = 4 * T * (kk + T + h) - 4 * math.pi ** 2 * c ** 2 / (kk + 2 * T + h - 2)
        # log |p_i(0)|, i < T, up to a constant, from the ratio of successive
        # Bonnet values at t = 0 (legendre); the odd basis has
        # |q^k_i(0)| = |p^(k+1)_i(0)|
        i = np.arange(T - 1)
        log_p0 = np.concatenate(([0.0], np.cumsum(np.log(
            (i + kk + h) / (i + 1) * np.sqrt((4 * i + 2 * kk + m + 4) / (4 * i + 2 * kk + m))))))
        if _certified(diag, off, abs(mat.offdiag[-1]), g, chi, vecs,
                      np.exp(log_p0 - log_p0[-1]), tol):
            chi, vecs = chi[:-1], vecs[:, :-1]
            big = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(N_max + 1)]
            block = RadialEigenpair(chi, vecs * np.sign(big))
            return as_odd(block, k, m) if parity == "odd" else block
    raise failure


def _certified(diag: np.ndarray, off: np.ndarray, b: float, g: float, chi: np.ndarray,
               vecs: np.ndarray, reach: np.ndarray, tol: float) -> bool:
    """solve_block's acceptance test of the N_max + 2 lowest eigenpairs
    (chi, vecs) of M_T = (diag, off), coupled by b = |M[T-1, T]| to rows
    whose spectrum lies above g; reach_i = p_i(0) / p_(T-1)(0) <= 1.

    The count of eigenvalues of M below theta: when g > theta, the rows
    beyond T form a positive definite block of M - theta, and its Schur
    complement is M_T - theta with the last pivot lowered by at most
    b^2 / (g - theta).  The pivots d_i = diag_i - theta - off_(i-1)^2 / d_(i-1)
    of M_T - theta have N_max + 1 negatives (theta lies between chi_N_max
    and chi_(N_max+1)), and lowering the last one keeps that count if it is
    negative or larger than the drop.
    """
    eps = np.finfo(float).eps
    last = np.abs(vecs[-1])
    r = b * last
    floor = 8 * eps * (np.max(np.abs(diag)) + 2 * np.max(np.abs(off), initial=0.0))
    rho = r + floor
    theta = float(chi[-2] + rho[-2] + chi[-1] - rho[-1]) / 2
    peak = np.max(np.abs(vecs[:, :-1]) * reach[:, None], axis=0)
    if not (np.all(r[:-1] <= tol * (1 + np.abs(chi[:-1])) + floor)
            and np.all(last[:-1] <= max(tol, eps) * peak)
            and np.all(chi[1:] - rho[1:] > chi[:-1] + rho[:-1])
            and g > theta):
        return False
    d = 1.0
    for a, e in zip(diag.tolist(), [0.0] + off.tolist()):
        d = a - theta - (e * e / d if d else math.inf)
    return d < 0 or d * (g - theta) > b * b


def as_odd(even_next: RadialEigenpair, k: int, m: int) -> RadialEigenpair:
    """The odd block of degree k from the even block of degree k + 1.

    M^o_k = M^e_(k+1) + (4k+2m) I, so beta^k_N = alpha^(k+1)_N and chi moves
    by 4k + 2m.  Certifying the unshifted matrix is the stricter test: its
    relative residual bound and its noise floor are both smaller.
    """
    return replace(even_next, chi=even_next.chi + (4 * k + 2 * m))


def solve_radial(parity: str, k: int, m: int, c: float, N: int,
                tol: float | None = None) -> RadialEigenpair:
    """Converged N-th ascending eigenpair: order N of the block 0..N."""
    return solve_block(parity, k, m, c, N, tol)[N]
