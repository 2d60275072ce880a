"""Clifford polynomials and orthonormal bases of inner spherical
monogenics for every dimension m >= 2.

An inner spherical monogenic of degree k is a homogeneous polynomial
Y_k: R^m -> C_m with dirac(Y_k) = 0 (left monogenic).  The space M+(k)
has dimension d_k = (m+k-2)! / ((m-2)! k!).  Bases here are normalized
so that the L^2(S^(m-1)) scalar inner products are delta_ij, and they
additionally satisfy the zonal trace identity
sum_i |Y_k^i(w)|^2 = d_k / |S^(m-1)| for every w on the sphere.

Every m takes one construction: the Cauchy-Kovalevskaya extensions in x_m
of the d_k monomials of degree k in x_1..x_(m-1), made orthonormal by
Gram-Schmidt over the right C_m-module structure; module orthonormality is
what forces the constant zonal trace.  The sphere inner product needs no
quadrature, because every Clifford component of a homogeneous monogenic is
harmonic and so meets the Fischer identity (see basis).  For m = 2 the one
element is Y_k = (2 pi)^(-1/2) (x_1 - e_1 e_2 x_2)^k.

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
    check_dim,
    conj_coeffs,
    left_mul_matrix,
    mul_coeffs,
    product_table,
)
from .special import sphere_area


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

    def __mul__(self, other: "PolyMultivector") -> "PolyMultivector":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return self._from_rows(
            self.m, self.exps[:, None] + other.exps[None, :],
            mul_coeffs(self.m, self.coeffs[:, None], other.coeffs[None, :]))

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
    return root[:, 0]  # root @ e_0, real when g is


def _compositions(k: int, parts: int):
    """The exponent tuples of `parts` entries with sum k, in descending
    lexicographic order: (k, 0, ..), (k - 1, 1, ..), .., (.., 0, k)."""
    if parts == 1:
        yield (k,)
        return
    for a in range(k, -1, -1):
        for rest in _compositions(k - a, parts - 1):
            yield (a,) + rest


def _ck_extension(m: int, alpha: tuple[int, ...]) -> PolyMultivector:
    """Cauchy-Kovalevskaya extension in x_m of the monomial x^alpha in
    x_1..x_(m-1) to a monogenic polynomial.

    F = sum_j x_m^j / j! (e_m underline-d)^j [x^alpha], where underline-d is
    the Dirac operator in x_1..x_(m-1); the series terminates after |alpha|
    steps and dirac(F) = 0 by construction.  Term j is term j - 1 times
    x_m / j under e_m underline-d, so its coefficients stay integers while
    they fit in a double.
    """
    shift = np.eye(m, dtype=int)[m - 1]
    e_m = np.eye(1 << m)[1 << (m - 1)]
    term = PolyMultivector._from_rows(m, np.array(alpha + (0,)), np.eye(1 << m)[0])
    terms = [term]
    for j in range(1, sum(alpha) + 1):
        term = _dirac(term, tuple(range(m - 1))).left_mul(e_m)
        term = PolyMultivector._from_rows(m, term.exps + shift, term.coeffs / j)
        terms.append(term)
    return PolyMultivector._from_rows(m, np.concatenate([t.exps for t in terms]),
                                      np.concatenate([t.coeffs for t in terms]))


def _stack(m: int, polys: list) -> tuple[np.ndarray, np.ndarray]:
    """polys on one set of monomials: exps (T, m), the union of their
    exponents, and coeffs (len(polys), T, 2^m), zero where one lacks a
    monomial."""
    exps, where = np.unique(np.concatenate([p.exps for p in polys]),
                            axis=0, return_inverse=True)
    owner = np.repeat(np.arange(len(polys)), [len(p.exps) for p in polys])
    coeffs = np.zeros((len(polys), len(exps), 1 << m), dtype=complex)
    coeffs[owner, where.ravel()] = np.concatenate([p.coeffs for p in polys])
    return exps, coeffs


def _mul_sum(m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_s u[s] v[s] for coefficient arrays u (S, P, 2^m) and v (S, Q, 2^m):
    shape (P, Q, 2^m).  One tensordot sums every blade pair over s, and the
    product table then gathers the pairs of each output blade."""
    idx, sign = product_table(m)
    a = np.arange(1 << m)[:, None]
    pairs = np.tensordot(u, v, axes=(0, 0)).transpose(0, 2, 1, 3)  # (P, Q, a, b)
    return np.einsum("pqac,ac->pqc", pairs[..., a, idx], sign[a, idx])


@lru_cache(maxsize=None)
def basis(m: int, k: int) -> MonogenicBasis:
    """Orthonormal basis of the d_k dimensional space M+(k), any m >= 2.

    The seeds are the Cauchy-Kovalevskaya extensions of x^alpha, |alpha| = k,
    in the order of _compositions.  Gram-Schmidt, with one
    re-orthogonalization sweep, runs over the right C_m-module inner product
    int_S conj(Y) Z dw, and each element is normalized by the inverse square
    root of its own inner product; module orthonormality implies both scalar
    orthonormality and the constant zonal trace d_k / |S^(m-1)|.

    Every Clifford component of a homogeneous monogenic is harmonic, and on
    harmonic polynomials of degree k the sphere integral is a Fischer sum
    over the monomials, with no cancellation:

        int_S conj(P) Q dw = |S^(m-1)| Gamma(m/2) k! / (2^k Gamma(k + m/2))
                             * sum_alpha (alpha! / k!) conj(P_alpha) Q_alpha.

    The seeds are real, so the whole construction runs in real arithmetic.
    The basis is held as one (d_k, T, 2^m) array on the seeds' T monomials,
    and each seed is projected on all earlier elements in one product.
    """
    check_dim(m)
    if k < 0:
        raise ValueError("k must be >= 0")
    exps, seeds = _stack(m, [_ck_extension(m, a) for a in _compositions(k, m - 1)])
    fischer = np.array([math.prod(map(math.factorial, a)) / math.factorial(k)
                        for a in exps.tolist()])
    # Gamma(m/2) k! / (2^k Gamma(k + m/2)) as a product of k ratios
    weight = sphere_area(m) * math.prod((j + 1) / (2 * j + m) for j in range(k)) * fischer

    def inner(ys: np.ndarray, z: np.ndarray) -> np.ndarray:
        """int_S conj(Y) Z dw for each Y of ys (n, T, 2^m): shape (n, 2^m)."""
        ys = conj_coeffs(m, ys).transpose(1, 0, 2) * weight[:, None, None]
        return _mul_sum(m, ys, z[:, None])[:, 0]

    ortho = np.zeros(seeds.shape)
    for i, w in enumerate(seeds.real):
        for _ in range(2):  # one re-orthogonalization sweep for stability
            w = w - _mul_sum(m, ortho[:i], inner(ortho[:i], w)[:, None])[:, 0]
        w = mul_coeffs(m, w, _inverse_sqrt_element(inner(w[None], w)[0], m))
        # rounding noise, measured in the Fischer weights that set each
        # coefficient's share of the sphere norm
        size = np.sqrt(fischer)[:, None] * np.abs(w)
        ortho[i] = np.where(size < 1e-13 * size.max(), 0.0, w)
    return MonogenicBasis(m, k, [PolyMultivector._from_rows(m, exps, y) for y in ortho])


# the benchmark's cache hook reads basis_3d.cache_info()
basis_3d = basis  # (kept for the benchmark's span hooks)


@lru_cache(maxsize=None)
def field_basis(m: int, k: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The basis Y_k^i (odd = False) or x Y_k^i (odd = True) of M+(k) on one
    set of monomials: exps (T, m), the union of the elements' exponents, and
    coeffs (d_k, T, 2^m), each element's coefficients on them, zero where
    it lacks a monomial.  coeffs is float64, as basis builds in real
    arithmetic.  So at points x, element i is
    monomial_table(exps, x) @ coeffs[i - 1].
    """
    elements = basis(m, k).elements
    if odd:
        x = PolyMultivector.vector(m)
        elements = [x * y for y in elements]
    exps, coeffs = _stack(m, elements)
    coeffs = coeffs.real.copy()
    exps.setflags(write=False)
    coeffs.setflags(write=False)
    return exps, coeffs
