"""Clifford polynomials and orthonormal bases of inner spherical
monogenics for m = 2 and m = 3.

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

A PolyMultivector holds its monomials as two arrays, so each operation on
it, evaluation at many points included, is a few array expressions.
field_basis puts a whole basis on one set of monomials, so the fields of
every basis index evaluate from one monomial_table.
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
    """Polynomial R^m -> C_m as two read-only arrays: exps (T, m), the
    integer exponents of its T monomials, and coeffs (T, 2^m), their raw
    C_m coefficients (see algebra).  No two rows share exponents and no
    coefficient row is zero, so the zero polynomial has T = 0.  Built from
    the {exponent tuple: coefficient row} dict that .terms returns.
    """

    __slots__ = ("m", "exps", "coeffs")

    def __init__(self, m: int, terms: dict | None = None):
        check_dim(m)
        terms = terms or {}
        p = self._from_rows(m, np.array(list(terms), dtype=int).reshape(len(terms), m),
                            np.array(list(terms.values()), dtype=complex).reshape(-1, 1 << m))
        self.m, self.exps, self.coeffs = p.m, p.exps, p.coeffs

    @classmethod
    def _from_rows(cls, m: int, exps: np.ndarray, coeffs: np.ndarray) -> "PolyMultivector":
        """The canonical polynomial of these rows: rows of equal exponents
        summed in order, zero rows dropped, both arrays read-only."""
        exps = exps.reshape(-1, m)
        order = np.lexsort(exps.T[::-1])  # lexicographic rows, column 0 first
        exps = exps[order]
        first = np.ones(len(exps), dtype=bool)
        first[1:] = np.any(exps[1:] != exps[:-1], axis=1)
        where = np.empty(len(exps), dtype=np.intp)
        where[order] = np.cumsum(first) - 1
        exps = exps[first]
        summed = np.zeros((len(exps), 1 << m), dtype=complex)
        np.add.at(summed, where, coeffs.reshape(-1, 1 << m))
        keep = np.any(summed != 0, axis=1)
        out = cls.__new__(cls)
        out.m, out.exps, out.coeffs = m, exps[keep], summed[keep]
        out.exps.setflags(write=False)
        out.coeffs.setflags(write=False)
        return out

    @classmethod
    def constant(cls, m: int, value: Multivector | complex) -> "PolyMultivector":
        coeffs = value.coeffs if isinstance(value, Multivector) else value * np.eye(1 << m)[0]
        return cls._from_rows(m, np.zeros((1, m), dtype=int), coeffs)

    @classmethod
    def coordinate(cls, m: int, j: int) -> "PolyMultivector":
        """The scalar monomial x_j (1-indexed)."""
        return cls._from_rows(m, np.eye(m, dtype=int)[j - 1], np.eye(1 << m)[0])

    @classmethod
    def vector(cls, m: int) -> "PolyMultivector":
        """The vector polynomial x = x_1 e_1 + ... + x_m e_m."""
        return cls._from_rows(m, np.eye(m, dtype=int), np.eye(1 << m)[1 << np.arange(m)])

    @property
    def terms(self) -> dict:
        """{exponent tuple: read-only coefficient row}."""
        return dict(zip(map(tuple, self.exps.tolist()), self.coeffs))

    def __add__(self, other: "PolyMultivector") -> "PolyMultivector":
        return self._from_rows(self.m, np.concatenate((self.exps, other.exps)),
                               np.concatenate((self.coeffs, other.coeffs)))

    def __sub__(self, other: "PolyMultivector") -> "PolyMultivector":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "PolyMultivector":
        return self._from_rows(self.m, self.exps, self.coeffs * s)

    def left_mul(self, g: np.ndarray) -> "PolyMultivector":
        """Multiply every coefficient by the constant g on the left."""
        return self._from_rows(self.m, self.exps, mul_coeffs(self.m, g, self.coeffs))

    def right_mul(self, g: np.ndarray) -> "PolyMultivector":
        """Multiply every coefficient by the constant g on the right."""
        return self._from_rows(self.m, self.exps, mul_coeffs(self.m, self.coeffs, g))

    def __mul__(self, other: "PolyMultivector") -> "PolyMultivector":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return self._from_rows(
            self.m, self.exps[:, None] + other.exps[None, :],
            mul_coeffs(self.m, self.coeffs[:, None], other.coeffs[None, :]))

    def power(self, k: int) -> "PolyMultivector":
        out = PolyMultivector.constant(self.m, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def clean(self, eps: float = _CLEAR_EPS) -> "PolyMultivector":
        """Zero out coefficients below eps relative to the largest one."""
        small = np.abs(self.coeffs) < eps * self.max_coeff()
        return self._from_rows(self.m, self.exps, np.where(small, 0.0, self.coeffs))

    def max_coeff(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def degree(self) -> int:
        return int(self.exps.sum(axis=1).max(initial=-1))

    def is_homogeneous(self) -> bool:
        return len(np.unique(self.exps.sum(axis=1))) <= 1

    def evaluate_coeffs(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., m); returns arrays (..., 2^m).

        The real monomial table at the points times the real and imaginary
        coefficient parts in turn: a complex table would double the memory.
        """
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        mono = monomial_table(self.exps, x)
        out = np.empty(lead + (1 << self.m,), dtype=complex)
        out.real = mono @ self.coeffs.real
        out.imag = mono @ self.coeffs.imag
        return out


def monomial_table(exps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The T monomials x^exps[t] at points x of shape (..., m), as a real
    array (..., T), built by repeated products of the coordinates."""
    lead = x.shape[:-1]
    mono = np.ones(lead + (len(exps),))
    for j in range(exps.shape[1]):
        powers = [np.ones(lead)]
        for _ in range(exps[:, j].max(initial=0)):
            powers.append(powers[-1] * x[..., j])
        mono *= np.stack(powers, axis=-1)[..., exps[:, j]]
    return mono


def _dirac(p: PolyMultivector, axes: tuple[int, ...]) -> PolyMultivector:
    """sum over j in axes (0-indexed) of e_(j+1) d/dx_(j+1), exact on
    coefficients; rows of exponent 0 in x_(j+1) get zero and are dropped."""
    m, axes = p.m, list(axes)
    blades = np.eye(1 << m)[[1 << j for j in axes]]
    exps = p.exps[None] - np.eye(m, dtype=int)[axes][:, None]
    coeffs = p.exps.T[axes, :, None] * mul_coeffs(m, blades[:, None], p.coeffs[None])
    return PolyMultivector._from_rows(m, exps, coeffs)


def dirac(p: PolyMultivector) -> PolyMultivector:
    """Left Dirac derivative sum_j e_j d/dx_j, exact on coefficients."""
    return _dirac(p, tuple(range(p.m)))


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
    e1 = np.eye(1 << m)[1]
    x1 = PolyMultivector.coordinate(m, 1)
    out = g = seed
    x1pow = PolyMultivector.constant(m, 1.0)
    fact = 1.0
    for j in range(1, a + b + 1):
        # underline-d: the Dirac operator in the variables x_2, x_3 only
        g = _dirac(g, (1, 2)).left_mul(e1)
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
    x2e12 = PolyMultivector.coordinate(m, 2).left_mul(np.eye(1 << m)[0b11])
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


@lru_cache(maxsize=None)
def field_basis(m: int, k: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The basis Y_k^i (odd = False) or x Y_k^i (odd = True) of M+(k) on one
    set of monomials: exps (T, m), the union of the elements' exponents, and
    coeffs (d_k, T, 2^m), each element's coefficients on them, zero where
    it lacks a monomial.  coeffs is float64 when every imaginary part is 0,
    as for every basis with m = 2, k <= 11 and m = 3, k <= 8.  So at points
    x, element i is monomial_table(exps, x) @ coeffs[i - 1].
    """
    elements = basis(m, k).elements
    if odd:
        x = PolyMultivector.vector(m)
        elements = [x * y for y in elements]
    exps, where = np.unique(np.concatenate([y.exps for y in elements]),
                            axis=0, return_inverse=True)
    owner = np.repeat(np.arange(len(elements)), [len(y.exps) for y in elements])
    coeffs = np.zeros((len(elements), len(exps), 1 << m), dtype=complex)
    coeffs[owner, where.ravel()] = np.concatenate([y.coeffs for y in elements])
    if not np.any(coeffs.imag):
        coeffs = coeffs.real.copy()
    exps.setflags(write=False)
    coeffs.setflags(write=False)
    return exps, coeffs
