"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: dense Jacobi rotations instead of
LAPACK, direct high-order quadrature of defining integrals instead of
closed forms.  Slow but trustworthy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import jv

from cliffordprolate.prolate import eval_field_coeffs
from cliffordprolate.special import gauss_rule_unit_interval


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
