"""Dense arithmetic in the complex Clifford algebras C_m.

C_m is the 2^m-dimensional associative algebra generated by e_1, ..., e_m
with e_j^2 = -1 and e_i e_j = -e_j e_i for i != j.  A basis blade
e_A = e_{j_1} ... e_{j_h} (j_1 < ... < j_h) is encoded as an m-bit mask
whose bit (j-1) is set when j is in A.  An element is stored as a dense
array of 2^m complex coefficients indexed by blade mask; the empty mask 0
is the identity blade.

Vectors x = (x_1, ..., x_m) embed as x_1 e_1 + ... + x_m e_m and satisfy
embed(x)^2 = -|x|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIM = 8


def check_dim(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 2 <= m <= MAX_DIM:
        raise ValueError(f"dimension m must be an integer in [2, {MAX_DIM}], got {m!r}")


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of basis blades: e_a e_b = sign * e_(a XOR b).

    The sign counts the transpositions needed to merge the two index
    sets into canonical order, plus one factor -1 for every shared
    generator (e_j^2 = -1).
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    swaps += (a & b).bit_count()
    return (-1 if swaps & 1 else 1, a ^ b)


@lru_cache(maxsize=None)
def product_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables: e_a e_b = sign[a, b] * e_(idx[a, b])."""
    check_dim(m)
    n = 1 << m
    masks = np.arange(n)
    idx = masks[:, None] ^ masks[None, :]
    sign = np.empty((n, n), dtype=np.int8)
    for a in range(n):
        for b in range(n):
            sign[a, b] = blade_product(a, b)[0]
    idx.setflags(write=False)
    sign.setflags(write=False)
    return idx, sign


@lru_cache(maxsize=None)
def grades(m: int) -> np.ndarray:
    """Grade |A| of each blade mask."""
    out = np.array([bin(a).count("1") for a in range(1 << m)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def conjugation_signs(m: int) -> np.ndarray:
    """Per-blade sign of Clifford conjugation: conj(e_A) = (-1)^(h(h+1)/2) e_A."""
    h = grades(m)
    out = np.where((h * (h + 1) // 2) % 2 == 0, 1.0, -1.0)
    out.setflags(write=False)
    return out


def mul_coeffs(m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geometric product on raw coefficient arrays of shape (..., 2^m).

    Batched over leading axes; broadcasting between u and v is allowed.
    Left blade a sends v_(a^c) to output blade c, so each term gathers v
    through the permutation idx[a].
    """
    idx, sign = product_table(m)
    out = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)),
                   dtype=np.result_type(u, v, float))
    for a in range(1 << m):
        out += (u[..., a, None] * sign[a, idx[a]]) * v[..., idx[a]]
    return out


def conj_coeffs(m: int, u: np.ndarray) -> np.ndarray:
    """Clifford conjugation on raw coefficient arrays (conjugate-linear)."""
    return np.conj(u) * conjugation_signs(m)


def left_mul_matrix(m: int, g: np.ndarray) -> np.ndarray:
    """Matrix of the left-regular action lambda -> g * lambda on coefficients.

    Under the inner product <u, v> = sum_A conj(u_A) v_A this representation
    is a *-representation: the matrix of conj(g) is the conjugate transpose
    of the matrix of g.
    """
    return mul_coeffs(m, g, np.eye(1 << m)).T


@dataclass(frozen=True)
class Multivector:
    """Element of C_m with dense complex coefficients indexed by blade mask."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_dim(self.m)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (1 << self.m,):
            raise ValueError(f"expected {1 << self.m} coefficients, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, m: int) -> "Multivector":
        return cls(m, np.zeros(1 << m, dtype=complex))

    @classmethod
    def blade(cls, m: int, mask: int, value: complex = 1.0) -> "Multivector":
        c = np.zeros(1 << m, dtype=complex)
        c[mask] = value
        return cls(m, c)

    @classmethod
    def scalar(cls, m: int, value: complex) -> "Multivector":
        return cls.blade(m, 0, value)

    def _check_same(self, other: "Multivector") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.m, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.m, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.m, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.m, mul_coeffs(self.m, self.coeffs, other.coeffs))
        return Multivector(self.m, self.coeffs * other)

    def __rmul__(self, other):
        # scalar * Multivector; Multivector * Multivector is handled by __mul__
        return Multivector(self.m, other * self.coeffs)

    def conjugate(self) -> "Multivector":
        return Multivector(self.m, conj_coeffs(self.m, self.coeffs))

    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        parts = []
        for mask in range(1 << self.m):
            v = self.coeffs[mask]
            if v == 0:
                continue
            name = "e" + "".join(str(j + 1) for j in range(self.m) if mask >> j & 1) if mask else "1"
            parts.append(f"({v:g})*{name}")
        body = " + ".join(parts) if parts else "0"
        return f"Multivector(m={self.m}, {body})"


def embed(x, m: int | None = None) -> Multivector:
    """Embed a point of R^m as the vector x_1 e_1 + ... + x_m e_m."""
    x = np.asarray(x, dtype=float)
    if m is None:
        m = x.size
    check_dim(m)
    if x.shape != (m,):
        raise ValueError(f"expected {m} coordinates, got shape {x.shape}")
    return Multivector(m, embed_coeffs(m, x))


def embed_coeffs(m: int, x: np.ndarray) -> np.ndarray:
    """Vectorized embed: points of shape (..., m) to coefficients (..., 2^m)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (1 << m,), dtype=complex)
    for j in range(m):
        out[..., 1 << j] = x[..., j]
    return out
