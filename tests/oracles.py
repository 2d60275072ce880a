"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: dense Jacobi rotations instead of
LAPACK, direct high-order quadrature of defining integrals instead of
closed forms.  Slow but trustworthy.

The identities that only verify the library's results live here too: the
Rodrigues form of the Clifford-Legendre polynomials and the Dirac coupling
between degrees, the c = 0 radial operator, the small-c curvature of chi,
the M_c kernel and verify's QP_c matrix, full-ball Gram quadrature of the
CPSWFs, and the quadrature rules on S^1 and S^2 with the C_m-valued sphere
inner product that check the monogenic bases independently of their
Fischer sums.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as P
from scipy.special import jv

from cliffordprolate.algebra import conj_coeffs, embed_coeffs, mul_coeffs
from cliffordprolate.galerkin import T_CAP, SymTridiag, _certified_at, _log_p0, build
from cliffordprolate.legendre import RadialPoly, radial_sequence
from cliffordprolate.monogenics import PolyMultivector, basis, dirac
from cliffordprolate.operators import (
    VerificationReport,
    _check_grid,
    _default_rule,
    _operator_matrices,
    _psi_setup,
    transform_matrix,
)
from cliffordprolate.prolate import Cpswf, eval_field_coeffs
from cliffordprolate.special import QuadratureRule, gamma_fn, gauss_rule_unit_interval


def jacobi_eigenvalues(A: np.ndarray, tol: float = 1e-14,
                       max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Independent of LAPACK; used as the eigensolver oracle.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    scale = np.linalg.norm(A)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(A ** 2) - np.sum(np.diag(A) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-30 * scale:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + math.hypot(1.0, theta))
                cth = 1.0 / math.hypot(1.0, t)
                sth = t * cth
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = cth
                rot[p, q] = sth
                rot[q, p] = -sth
                A = rot.T @ A @ rot
    return np.sort(np.diag(A))


def dense_tridiag(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    n = diag.size
    A = np.diag(diag)
    A[np.arange(n - 1), np.arange(1, n)] = offdiag
    A[np.arange(1, n), np.arange(n - 1)] = offdiag
    return A


def _polar_rules(n_rad: int = 300, n_ang: int = 400):
    rad = gauss_rule_unit_interval(n_rad)
    theta = 2 * math.pi * np.arange(n_ang) / n_ang
    w_ang = 2 * math.pi / n_ang
    return rad, theta, w_ang


def brute_Gc(psi, i: int, points: np.ndarray,
             n_rad: int = 300, n_ang: int = 400) -> np.ndarray:
    """G_c psi at the given 2D points by direct polar quadrature of
    integral over B(1) of e^(2 pi i c <x,y>) psi(y) dy.  m = 2 only."""
    if psi.m != 2:
        raise ValueError("brute_Gc supports m = 2 only")
    rad, theta, w_ang = _polar_rules(n_rad, n_ang)
    y = np.stack([np.outer(rad.nodes, np.cos(theta)),
                  np.outer(rad.nodes, np.sin(theta))], axis=-1)
    vals = eval_field_coeffs(psi, i, y.reshape(-1, 2)).reshape(n_rad, n_ang, 4)
    w = (rad.weights * rad.nodes)[:, None] * w_ang
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((points.shape[0], 4), dtype=complex)
    for p, x in enumerate(points):
        phase = np.exp(2j * math.pi * psi.c * (y @ x))
        out[p] = np.tensordot(w * phase, vals, axes=([0, 1], [0, 1]))
    return out


def brute_Kc(x: np.ndarray, c: float,
             n_rad: int = 300, n_ang: int = 400) -> complex:
    """integral over B(1) of e^(2 pi i c <xi, x>) d xi, m = 2, by quadrature."""
    rad, theta, w_ang = _polar_rules(n_rad, n_ang)
    y = np.stack([np.outer(rad.nodes, np.cos(theta)),
                  np.outer(rad.nodes, np.sin(theta))], axis=-1)
    w = (rad.weights * rad.nodes)[:, None] * w_ang
    x = np.asarray(x, dtype=float)
    return complex(np.sum(w * np.exp(2j * math.pi * c * (y @ x))))


def brute_Mc(r: float, s: float, c: float, k: int, m: int,
             n_nodes: int = 600) -> float:
    """2 pi c int_0^1 u J_nu(2 pi c r u) J_nu(2 pi c s u) du by quadrature."""
    nu = k + m / 2 - 1
    rule = gauss_rule_unit_interval(n_nodes)
    u = rule.nodes
    integrand = u * jv(nu, 2 * math.pi * c * r * u) * jv(nu, 2 * math.pi * c * s * u)
    return float(2 * math.pi * c * np.dot(rule.weights, integrand))


def brute_hankel(f, nu: float, c: float, s: float, n_nodes: int = 600) -> float:
    """T[f](s) = s^(-nu) int_0^1 r^(nu+1) f(r) J_nu(2 pi c r s) dr."""
    rule = gauss_rule_unit_interval(n_nodes)
    r = rule.nodes
    val = np.dot(rule.weights, r ** (nu + 1) * f(r) * jv(nu, 2 * math.pi * c * r * s))
    return float(s ** (-nu) * val)


def brute_Q(nu: float, c: float, grid: np.ndarray, rule: QuadratureRule,
            n_nodes: int = 600) -> np.ndarray:
    """verify's QP_c matrix, Q @ f(rule.nodes) = T[T[f]](grid), with the inner
    integral int_0^1 rho J_nu(2 pi c s rho) J_nu(2 pi c r rho) d rho (brute_Mc's,
    over whole tables) by an n_nodes Gauss rule.  Rounding in the
    oscillating sum limits it to about 2e-13 of a row's largest entry at
    c <= 4 and 600 nodes, and 1e-11 at c = 100; Q_mp serves there."""
    inner = gauss_rule_unit_interval(n_nodes)
    rho = inner.nodes
    js = jv(nu, 2 * math.pi * c * np.outer(grid, rho))
    jr = jv(nu, 2 * math.pi * c * np.outer(rule.nodes, rho))
    lommel = (js * inner.weights * rho) @ jr.T
    return (grid ** (-nu))[:, None] * lommel * (rule.weights * rule.nodes ** (nu + 1))[None, :]


def Q_mp(nu: float, c: float, grid: np.ndarray, rule: QuadratureRule,
         dps: int = 32) -> np.ndarray:
    """brute_Q's matrix from Lommel's integral in dps-digit arithmetic, with a
    = 2 pi c s and b = 2 pi c r taken exactly from the double inputs:
    [a J_(nu+1)(a) J_nu(b) - b J_nu(a) J_(nu+1)(b)] / (a^2 - b^2), and
    (J_nu(a)^2 + J_(nu+1)(a)^2)/2 - (nu/a) J_nu(a) J_(nu+1)(a) where s = r.
    A 1 ulp gap in s - r costs 16 of the dps digits."""
    with mp.workdps(dps):
        scale = 2 * mp.pi * c
        cols = []
        for r, w in zip(rule.nodes, rule.weights):
            b = scale * mp.mpf(r)
            cols.append((b, mp.besselj(nu, b), b * mp.besselj(nu + 1, b),
                         mp.mpf(w) * mp.mpf(r) ** (nu + 1)))
        out = np.empty((len(grid), len(cols)))
        for i, s in enumerate(grid):
            a = scale * mp.mpf(s)
            j0, j1 = mp.besselj(nu, a), mp.besselj(nu + 1, a)
            aj1, pre = a * j1, mp.mpf(s) ** -nu
            diag = (j0 ** 2 + j1 ** 2) / 2 - nu / a * j0 * j1
            out[i] = [pre * post * (diag if a == b else (aj1 * k0 - j0 * bk1) / ((a - b) * (a + b)))
                      for b, k0, bk1, post in cols]
    return out


def sorted_blade_sign(a: int, b: int) -> int:
    """Sign of e_a e_b in C_m (e_j^2 = -1), found by sorting generator lists.

    The concatenated index list of a then b is stably sorted; the sign is
    the parity of that permutation times -1 for each equal adjacent pair
    left after sorting (each is one e_j e_j = -1).
    """
    gens = [j for j in range(a.bit_length()) if a >> j & 1]
    gens += [j for j in range(b.bit_length()) if b >> j & 1]
    order = sorted(range(len(gens)), key=gens.__getitem__)
    flips, seen = 0, [False] * len(order)
    for start in range(len(order)):
        p, length = start, 0
        while not seen[p]:
            seen[p] = True
            p = order[p]
            length += 1
        flips += max(length - 1, 0)
    ordered = [gens[p] for p in order]
    flips += sum(x == y for x, y in zip(ordered, ordered[1:]))
    return -1 if flips & 1 else 1


@lru_cache(maxsize=None)
def sorted_sign_table(m: int) -> np.ndarray:
    n = 1 << m
    return np.array([[sorted_blade_sign(a, b) for b in range(n)] for a in range(n)])


def clifford_mul(m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geometric product of coefficient arrays (..., 2^m) from sorted signs.

    Forms every blade-pair term u_a v_b sign(a, b), then sums, for each
    output blade c, the terms with a XOR b = c.
    """
    n = 1 << m
    terms = u[..., :, None] * v[..., None, :] * sorted_sign_table(m)
    target = np.arange(n)[:, None] ^ np.arange(n)[None, :]
    out = np.zeros(terms.shape[:-2] + (n,), dtype=terms.dtype)
    for c in range(n):
        out[..., c] = terms[..., target == c].sum(axis=-1)
    return out


def scalar_inner_coeffs(m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> = [conj(u) v]_0 = sum_A conj(u_A) v_A on raw arrays."""
    return np.sum(np.conj(u) * v, axis=-1)


def galerkin_entries_mp(parity: str, k: int, m: int, c: float, T: int):
    """Diagonal and off-diagonal of M^e_k or M^o_k as mpf lists at the
    working precision, each parity from its own entry formulas (the odd
    one not through the shift identity)."""
    h = mp.mpf(m) / 2
    w = 4 * mp.pi ** 2 * mp.mpf(c) ** 2
    diag, off = [], []
    for i in range(T):
        if parity == "even":
            sub = i ** 2 / (k + 2 * i + h - 1) if i > 0 else 0
            diag.append(4 * i * (k + i + h) + w / (k + 2 * i + h)
                        * ((k + i + h) ** 2 / (k + 2 * i + h + 1) + sub))
            off.append(-w * (i + 1) * (k + i + h) / (
                (k + 2 * i + h + 1) * mp.sqrt((k + 2 * i + h + 2) * (k + 2 * i + h))))
        else:
            diag.append(4 * (i + 1) * (k + i + h) + w / (k + 2 * i + h + 1)
                        * ((k + i + h) ** 2 / (k + 2 * i + h) + (i + 1) ** 2 / (k + 2 * i + h + 2)))
            off.append(-w * (i + 1) * (k + i + h + 1) / (
                (k + 2 * i + h + 2) * mp.sqrt((k + 2 * i + h + 3) * (k + 2 * i + h + 1))))
    return diag, off[:-1]


def build_odd(k: int, m: int, c: float, T: int) -> SymTridiag:
    """Truncated matrix M^o_k acting on odd-order coefficients beta.

    Constructed through the exact identity M^o_k = M^e_(k+1) + (4k+2m) I
    so that the identity holds to the last bit; the test suite checks
    this construction against the direct entry formulas of M^o_k.
    """
    base = build(k + 1, m, c, T)
    return SymTridiag(base.diag + (4 * k + 2 * m), base.offdiag)


def build_parity(parity: str, k: int, m: int, c: float, T: int) -> SymTridiag:
    """M^e_k for parity "even", M^o_k for "odd"."""
    return {"even": build, "odd": build_odd}[parity](k, m, c, T)


def smallest_certified_truncation(k: int, m: int, c: float, N_max: int,
                                  tol: float = 1e-16) -> int | None:
    """The smallest T at which solve_block's certificate holds for the even
    block (k, m, c) of orders 0..N_max, or None if none does below 2 T_CAP.

    Steps up from N_max + 2 by an eighth of the size until one certifies,
    then bisects that last step, taking certification to be monotone in T
    within it.
    """
    mat, log_p0 = build(k, m, c, 2 * T_CAP + 1), _log_p0(k, m, 2 * T_CAP)

    def certified(T):
        return _certified_at(mat, log_p0[:T], k, m, c, N_max, T, tol) is not None

    lo, hi = N_max + 1, N_max + 2
    while not certified(hi):
        lo, hi = hi, hi + max(1, hi // 8)
        if hi > 2 * T_CAP:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if not certified(mid):
            lo = mid
        else:
            hi = mid
    return hi


def smallc_curvature(parity: str, k: int, m: int, N: int) -> float:
    """First-order coefficient b with chi(c) = chi(0) + 4 pi^2 c^2 b + O(c^4).

    This is the c^2-coefficient of the N-th diagonal entry, i.e. the
    |x|^2-recurrence coefficient b_N for the matching parity.
    """
    one = build_parity(parity, k, m, 1.0, N + 2)
    zero = build_parity(parity, k, m, 0.0, N + 2)
    return float((one.diag[N] - zero.diag[N]) / (4 * math.pi ** 2))


def radial_at_zero_mp(parity: str, k: int, m: int, T: int) -> list:
    """p_i(0) or q_i(0), i < T, in closed form: the radial parts are
    normalized Jacobi polynomials in 1 - 2t, so
    p_i(0) = sqrt(4i+2k+m) C(i+k+m/2-1, i) and
    q_i(0) = -sqrt(4i+2k+m+2) C(i+k+m/2, i)."""
    h = mp.mpf(m) / 2
    if parity == "even":
        return [mp.sqrt(4 * i + 2 * k + m) * mp.binomial(i + k + h - 1, i) for i in range(T)]
    return [-mp.sqrt(4 * i + 2 * k + m + 2) * mp.binomial(i + k + h, i) for i in range(T)]


def _lambda(parity: str, k: int, m: int, c, coeffs, at_zero):
    """lambda = c^m |mu|^2 from the closed form of |mu| in the leading
    coefficient and the radial value at zero, summed over every term."""
    h = mp.mpf(m) / 2
    p0 = mp.fsum(mp.mpf(a) * z for a, z in zip(coeffs, at_zero))
    if parity == "even":
        mu = mp.sqrt(2 * k + m) * mp.pi ** (k + h) * c ** k / mp.gamma(k + h + 1)
    else:
        mu = mp.sqrt(2 * k + m + 2) * mp.pi ** (k + h + 1) * c ** (k + 1) / mp.gamma(k + h + 2)
    return c ** m * (mu * coeffs[0] / p0) ** 2


def lambda_mp(n: int, k: int, m: int, c: float, T: int = 40, dps: int = 30) -> float:
    """Concentration eigenvalue of psi_n^k from a dps-digit dense eigensolve
    of the size-T Galerkin matrix (mpmath), independent of LAPACK."""
    parity = "even" if n % 2 == 0 else "odd"
    with mp.workdps(dps):
        diag, off = galerkin_entries_mp(parity, k, m, c, T)
        A = mp.diag(diag)
        for i, e in enumerate(off):
            A[i, i + 1] = A[i + 1, i] = e
        E, Q = mp.eigsy(A)
        j = sorted(range(T), key=lambda i: E[i])[n // 2]
        coeffs = [Q[i, j] for i in range(T)]
        return float(_lambda(parity, k, m, mp.mpf(c), coeffs,
                             radial_at_zero_mp(parity, k, m, T)))


def dense_order(n: int, k: int, m: int, c: float, T: int):
    """(chi, coeffs, lambda) of psi_n^k alone from a dense numpy eigensolve of
    the size-T Galerkin matrix, with entries rounded from 30 digits and the
    largest coefficient made positive."""
    parity = "even" if n % 2 == 0 else "odd"
    with mp.workdps(30):
        diag, off = galerkin_entries_mp(parity, k, m, c, T)
        at_zero = radial_at_zero_mp(parity, k, m, T)
    A = dense_tridiag(np.array(diag, dtype=float), np.array(off, dtype=float))
    vals, vecs = np.linalg.eigh(A)
    v = vecs[:, n // 2]
    v = v * np.sign(v[np.argmax(np.abs(v))])
    with mp.workdps(30):
        lam = float(_lambda(parity, k, m, mp.mpf(c), v, at_zero))
    return float(vals[n // 2]), v, lam


def order_quantities(n: int, k: int, m: int, c: float, pair, basis_at_zero):
    """(_active, value_at_zero, mu, lam) of psi_n^k computed one order at a
    time from its own eigenpair and radial basis at zero: the per-order
    formulas that prolate._block_cpswfs computes for a whole block."""
    coeffs = np.array(pair.coeffs, dtype=float)
    at_zero = np.array(basis_at_zero, dtype=float)
    bound = np.abs(coeffs * at_zero)
    active = int(np.nonzero(bound > 1e-16 * bound.max())[0][-1]) + 1
    value = float(coeffs[:active] @ at_zero[:active])
    kappa = k + n % 2
    phase = -(1j ** kappa) if n % 2 else 1j ** kappa
    num = phase * math.sqrt(2 * kappa + m) * math.pi ** (kappa + m / 2) * c ** kappa
    mu = complex(num * coeffs[0] / (gamma_fn(kappa + m / 2 + 1) * value))
    return active, value, mu, float(c ** m * abs(mu) ** 2)


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


def constant(m: int, value: complex) -> PolyMultivector:
    """The scalar constant polynomial."""
    return PolyMultivector(m, {(0,) * m: value * np.eye(1 << m)[0]})


def coordinate(m: int, j: int) -> PolyMultivector:
    """The scalar monomial x_j (1-indexed)."""
    return PolyMultivector(m, {tuple(int(i == j - 1) for i in range(m)): np.eye(1 << m)[0]})


def power(p: PolyMultivector, k: int) -> PolyMultivector:
    out = constant(p.m, 1.0)
    for _ in range(k):
        out = out * p
    return out


def _t_polynomial(m: int) -> PolyMultivector:
    out = PolyMultivector(m)
    for j in range(1, m + 1):
        xj = coordinate(m, j)
        out = out + xj * xj
    return out


def _x_polynomial(m: int) -> PolyMultivector:
    out = PolyMultivector(m)
    for j in range(1, m + 1):
        ej = np.zeros(1 << m, dtype=complex)
        ej[1 << (j - 1)] = 1.0
        out = out + coordinate(m, j).left_mul(ej)
    return out


def _scalar_poly_of_t(coeffs: np.ndarray, m: int) -> PolyMultivector:
    t = _t_polynomial(m)
    out = constant(m, complex(coeffs[0]))
    tpow = constant(m, 1.0)
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
    out = power(constant(m, 1.0) - _t_polynomial(m), n) * Y
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
        diag = 0.5 * (jv(nu, z) ** 2 - jv(nu - 1, z) * jv(nu + 1, z))
        return float(2 * math.pi * c * diag)
    num = b * jv(nu, a) * jv(nu - 1, b) - a * jv(nu - 1, a) * jv(nu, b)
    return float(2 * math.pi * c * num / (a ** 2 - b ** 2))


class SphereRule(NamedTuple):
    """Nodes (p, m) on S^(m-1) and their weights (p,): not a QuadratureRule,
    whose nodes lie in [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _read_only_rule(nodes: np.ndarray, weights: np.ndarray) -> SphereRule:
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereRule(nodes, weights)


@lru_cache(maxsize=64)
def sphere_rule(m: int, order: int) -> SphereRule:
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
        return _read_only_rule(nodes, weights)
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
        return _read_only_rule(nodes, weights)
    raise ValueError(f"sphere_rule supports m in {{2, 3}}, got {m}")


def _sphere_clifford_inner(y: PolyMultivector, z: PolyMultivector,
                           rule: SphereRule) -> np.ndarray:
    """C_m-valued inner product int_S conj(Y(w)) Z(w) dw as a raw array."""
    m = y.m
    yv = y.evaluate_coeffs(rule.nodes)
    zv = z.evaluate_coeffs(rule.nodes)
    prod = mul_coeffs(m, conj_coeffs(m, yv), zv)
    return np.tensordot(rule.weights, prod, axes=(0, 0))


def _angular_vectors(psi: Cpswf, i: int, sphere: SphereRule) -> np.ndarray:
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
    radial_rule = _default_rule(entries[0][0].c) if radial_rule is None else radial_rule
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
    radial_rule = _default_rule(entries[0][0].c) if radial_rule is None else radial_rule
    qp_profiles = []
    for psi, _ in entries:
        _, nu, _ = _psi_setup(psi)
        tm = transform_matrix(nu, psi.c, radial_rule.nodes, radial_rule)
        f = psi.radial_poly_values(radial_rule.nodes ** 2)
        qp_profiles.append(4 * math.pi ** 2 * psi.c ** 2 * (tm @ (tm @ f)))
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


def profiles_together(psi: Cpswf, grid=None, rule: QuadratureRule | None = None):
    """The G_c and QP_c profiles of psi on the grid as operators formed them
    before apply_Gc and apply_QPc were split: both products at once, from
    one evaluation of psi's radial factor at the rule nodes."""
    grid = _check_grid(grid)
    rule = _default_rule(psi.c) if rule is None else rule
    kappa = psi.k + psi.n % 2
    nu, phase = kappa + psi.m / 2 - 1, 1j ** kappa
    G, Q = _operator_matrices(nu, psi.c, grid, rule)
    at_nodes = psi.radial_poly_values(np.asarray(rule.nodes) ** 2)
    scale = phase * 2 * math.pi * psi.c ** (1 - psi.m / 2)
    return scale * (G @ at_nodes), 4 * math.pi ** 2 * psi.c ** 2 * (Q @ at_nodes)


def verify_two_recurrences(psi: Cpswf, grid=None,
                           rule: QuadratureRule | None = None) -> VerificationReport:
    """operators.verify with psi's radial factor evaluated by two
    recurrences, one on the grid and one at the rule nodes: the reference
    that the one-recurrence verify must equal to the bit."""
    grid = _check_grid(grid)
    own = psi.radial_poly_values(grid ** 2)
    size = np.max(np.abs(own))
    g, q = profiles_together(psi, grid, rule)
    mu_est = complex(np.dot(own, g) / np.dot(own, own))
    ratio_spread = float(np.max(np.abs(g / own - mu_est)) / abs(mu_est))
    gc_residual = float(np.max(np.abs(g - mu_est * own)) / (abs(mu_est) * size))
    lambda_est = float(np.real(np.dot(own, q) / np.dot(own, own)))
    residual = float(np.max(np.abs(q - psi.lam * own)) / size)
    return VerificationReport(mu_est, lambda_est, ratio_spread, residual, gc_residual)
