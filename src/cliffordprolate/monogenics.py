"""Orthonormal bases of inner spherical monogenics for m = 2 and m = 3.

An inner spherical monogenic of degree k is a homogeneous polynomial
Y_k: R^m -> C_m with dirac(Y_k) = 0 (left monogenic).  The space M+(k)
has dimension d_k = (m+k-2)! / ((m-2)! k!).  Bases here are normalized
so that the L^2(S^(m-1)) scalar inner products are delta_ij, and they
additionally satisfy the zonal trace identity
sum_i |Y_k^i(w)|^2 = d_k / |S^(m-1)| for every w on the sphere.

m=2: the single element Y_k = (2 pi)^(-1/2) (x_1 - e_1 e_2 x_2)^k.
m=3: Cauchy-Kovalevskaya extensions of the monomials x_2^a x_3^b
(a + b = k), made orthonormal by Gram-Schmidt over the right C_3-module
structure; module orthonormality is what forces the constant zonal trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    Multivector,
    check_dim,
    conj_coeffs,
    left_mul_matrix,
    mul_coeffs,
)
from .special import QuadratureRule, sphere_rule

_CLEAR_EPS = 1e-13


def dim_monogenic(m: int, k: int) -> int:
    """dim M+(k) = (m+k-2)! / ((m-2)! k!)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(m + k - 2, k)


class PolyMultivector:
    """Polynomial R^m -> C_m stored as {monomial exponents: coefficient array}.

    Keys are m-tuples of nonnegative integers, values are raw coefficient
    arrays of length 2^m (see algebra).
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict | None = None):
        check_dim(m)
        self.m = m
        self.terms: dict[tuple, np.ndarray] = {}
        if terms:
            for a, c in terms.items():
                c = np.asarray(c, dtype=complex)
                if np.any(c != 0):
                    self.terms[tuple(int(v) for v in a)] = c.copy()

    @classmethod
    def constant(cls, m: int, value: Multivector | complex) -> "PolyMultivector":
        if isinstance(value, Multivector):
            coeffs = value.coeffs
        else:
            coeffs = np.zeros(1 << m, dtype=complex)
            coeffs[0] = value
        return cls(m, {(0,) * m: coeffs})

    @classmethod
    def coordinate(cls, m: int, j: int) -> "PolyMultivector":
        """The scalar monomial x_j (1-indexed)."""
        a = [0] * m
        a[j - 1] = 1
        coeffs = np.zeros(1 << m, dtype=complex)
        coeffs[0] = 1.0
        return cls(m, {tuple(a): coeffs})

    def copy(self) -> "PolyMultivector":
        return PolyMultivector(self.m, self.terms)

    def _accumulate(self, a: tuple, c: np.ndarray) -> None:
        if a in self.terms:
            self.terms[a] = self.terms[a] + c
        else:
            self.terms[a] = np.array(c, dtype=complex)

    def __add__(self, other: "PolyMultivector") -> "PolyMultivector":
        out = self.copy()
        for a, c in other.terms.items():
            out._accumulate(a, c)
        out._drop_zeros()
        return out

    def __sub__(self, other: "PolyMultivector") -> "PolyMultivector":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "PolyMultivector":
        return PolyMultivector(self.m, {a: c * s for a, c in self.terms.items()})

    def left_mul(self, g: np.ndarray) -> "PolyMultivector":
        """Multiply every coefficient by the constant g on the left."""
        return PolyMultivector(
            self.m, {a: mul_coeffs(self.m, g, c) for a, c in self.terms.items()}
        )

    def right_mul(self, g: np.ndarray) -> "PolyMultivector":
        """Multiply every coefficient by the constant g on the right."""
        return PolyMultivector(
            self.m, {a: mul_coeffs(self.m, c, g) for a, c in self.terms.items()}
        )

    def __mul__(self, other: "PolyMultivector") -> "PolyMultivector":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        out = PolyMultivector(self.m)
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(ai + bi for ai, bi in zip(a, b))
                out._accumulate(key, mul_coeffs(self.m, ca, cb))
        out._drop_zeros()
        return out

    def power(self, k: int) -> "PolyMultivector":
        out = PolyMultivector.constant(self.m, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def _drop_zeros(self) -> None:
        dead = [a for a, c in self.terms.items() if not np.any(c != 0)]
        for a in dead:
            del self.terms[a]

    def clean(self, eps: float = _CLEAR_EPS) -> "PolyMultivector":
        """Zero out coefficients below eps relative to the largest one."""
        scale = self.max_coeff()
        if scale == 0:
            return PolyMultivector(self.m)
        out = PolyMultivector(self.m)
        for a, c in self.terms.items():
            cc = np.where(np.abs(c) < eps * scale, 0.0, c)
            if np.any(cc != 0):
                out.terms[a] = cc
        return out

    def max_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(float(np.max(np.abs(c))) for c in self.terms.values())

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    def evaluate_coeffs(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., m); returns arrays (..., 2^m)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (1 << self.m,), dtype=complex)
        for a, c in self.terms.items():
            mono = np.ones(x.shape[:-1])
            for j, aj in enumerate(a):
                if aj:
                    mono = mono * x[..., j] ** aj
            out += mono[..., None] * c
        return out


def dirac(p: PolyMultivector) -> PolyMultivector:
    """Left Dirac derivative sum_j e_j d/dx_j, exact on coefficients."""
    m = p.m
    out = PolyMultivector(m)
    blades = np.eye(1 << m)
    for a, c in p.terms.items():
        for j in range(m):
            if a[j] == 0:
                continue
            key = tuple(v - (i == j) for i, v in enumerate(a))
            out._accumulate(key, a[j] * mul_coeffs(m, blades[1 << j], c))
    out._drop_zeros()
    return out


@dataclass(frozen=True)
class MonogenicBasis:
    m: int
    k: int
    elements: list = field(default_factory=list)

    def __len__(self):
        return len(self.elements)


def _sphere_clifford_inner(y: PolyMultivector, z: PolyMultivector,
                           rule: QuadratureRule) -> np.ndarray:
    """C_m-valued inner product int_S conj(Y(w)) Z(w) dw as a raw array."""
    m = y.m
    yv = y.evaluate_coeffs(rule.nodes)
    zv = z.evaluate_coeffs(rule.nodes)
    prod = mul_coeffs(m, conj_coeffs(m, yv), zv)
    return np.tensordot(rule.weights, prod, axes=(0, 0))


def _inverse_sqrt_element(g: np.ndarray, m: int) -> np.ndarray:
    """g^(-1/2) for a positive self-conjugate Clifford element.

    Computed through the left-regular matrix representation, which is a
    *-representation, so positivity of g makes the matrix Hermitian
    positive definite.
    """
    mat = left_mul_matrix(m, g)
    if not np.allclose(mat, mat.conj().T, atol=1e-10 * max(1.0, np.abs(mat).max())):
        raise ValueError("inner product element is not self-conjugate")
    w, u = np.linalg.eigh(mat)
    if w.min() <= 0:
        raise ValueError("inner product element is not positive definite")
    root = (u * (1.0 / np.sqrt(w))) @ u.conj().T
    e0 = np.zeros(1 << m, dtype=complex)
    e0[0] = 1.0
    return root @ e0


def _ck_extension(m: int, a: int, b: int) -> PolyMultivector:
    """Cauchy-Kovalevskaya extension of x_2^a x_3^b to a monogenic polynomial.

    F = sum_j x_1^j / j! (e_1 underline-d)^j [x_2^a x_3^b]; the series
    terminates after a+b steps and dirac(F) = 0 by construction.
    """
    seed = (PolyMultivector.coordinate(m, 2).power(a)
            * PolyMultivector.coordinate(m, 3).power(b))
    e1 = np.zeros(1 << m, dtype=complex)
    e1[1] = 1.0
    x1 = PolyMultivector.coordinate(m, 1)
    out = seed.copy()
    g = seed
    x1pow = PolyMultivector.constant(m, 1.0)
    fact = 1.0
    for j in range(1, a + b + 1):
        # underline-d: the Dirac operator in the variables x_2, x_3 only
        sub = PolyMultivector(m)
        for key, c in g.terms.items():
            for var in (2, 3):
                if key[var - 1] == 0:
                    continue
                dkey = tuple(v - (i == var - 1) for i, v in enumerate(key))
                ev = np.zeros(1 << m, dtype=complex)
                ev[1 << (var - 1)] = 1.0
                sub._accumulate(dkey, key[var - 1] * mul_coeffs(m, ev, c))
        sub._drop_zeros()
        g = sub.left_mul(e1)
        x1pow = x1pow * x1
        fact *= j
        out = out + x1pow.scale(1.0 / fact) * g
    return out


@lru_cache(maxsize=None)
def basis_2d(k: int) -> MonogenicBasis:
    """The 1-element orthonormal basis Y_k = (2 pi)^(-1/2) (x1 - e1 e2 x2)^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m = 2
    x1 = PolyMultivector.coordinate(m, 1)
    e12 = np.zeros(1 << m, dtype=complex)
    e12[0b11] = 1.0
    x2e12 = PolyMultivector.coordinate(m, 2).left_mul(e12)
    y = (x1 - x2e12).power(k).scale(1.0 / math.sqrt(2 * math.pi))
    return MonogenicBasis(m, k, [y])


@lru_cache(maxsize=None)
def basis_3d(k: int) -> MonogenicBasis:
    """Orthonormal basis of the k+1 dimensional space M+(k) for m = 3.

    Gram-Schmidt runs over the right C_3-module inner product
    int_S conj(Y) Z dw; the resulting module orthonormality implies both
    scalar orthonormality and the constant zonal trace (k+1)/(4 pi).
    """
    if not 0 <= k <= 8:
        raise ValueError("basis_3d supports 0 <= k <= 8")
    m = 3
    rule = sphere_rule(3, 2 * k + 6)
    raw = [_ck_extension(m, k - b, b) for b in range(k + 1)]
    ortho: list[PolyMultivector] = []
    for v in raw:
        w = v
        for _ in range(2):  # one re-orthogonalization sweep for stability
            for y in ortho:
                g = _sphere_clifford_inner(y, w, rule)
                w = w - y.right_mul(g)
        nrm = _sphere_clifford_inner(w, w, rule)
        w = w.right_mul(_inverse_sqrt_element(nrm, m))
        ortho.append(w.clean())
    return MonogenicBasis(m, k, ortho)


def basis(m: int, k: int) -> MonogenicBasis:
    if m == 2:
        return basis_2d(k)
    if m == 3:
        return basis_3d(k)
    raise ValueError(f"pointwise monogenic bases support m in {{2, 3}}, got {m}")
