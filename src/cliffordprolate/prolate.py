"""Clifford prolate spheroidal wave functions on the unit ball.

A CPSWF of order n attached to degree-k monogenics is

    psi_2N   = P(|x|^2) Y_k^i(x)          (even, P = sum_i alpha_i p_i)
    psi_2N+1 = x Q(|x|^2) Y_k^i(x)        (odd,  Q = sum_i beta_i q_i)

with coefficient vectors from the Galerkin eigenproblem.  Each psi is a
simultaneous eigenfunction of the differential operator L_c (eigenvalue
chi), of the finite Fourier transform G_c (eigenvalue mu, with phase
i^(k+n) up to a sign convention), and of the time-frequency limiting
operator QP_c = c^m G_c* G_c (eigenvalue lambda = c^m |mu|^2).

Each (parity, k) Galerkin block gives one record of arrays, CpswfBlock
(_block_cpswfs): _active, value_at_zero, mu and lambda of all its orders.
cpswf_blocks yields the orders 0..n_max of each degree k as a CpswfOrders
over its even and odd records, with their radial factors from one Bonnet
recurrence per group of degrees; a Cpswf is built only on request, as one
column of a record, and make_cpswf is the last column of its block's.
eval_field_coeffs evaluates every basis index of a record at one point set
from one table of the radial factor times the monomials (_field_table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Multivector
from .algebra import mul_coeffs  # noqa: F401  (kept for the benchmark's span hooks)
from .galerkin import RadialEigenpair, _check_ints, as_odd, solve_block
from .galerkin import solve_radial  # noqa: F401  (kept for the benchmark's span hooks)
from .legendre import radial_series, radial_values
from .monogenics import basis  # noqa: F401  (kept for the benchmark's span hooks)
from .monogenics import dim_monogenic, field_basis, monomial_table
from .special import gamma_fn


@dataclass(frozen=True)
class Cpswf:
    """One CPSWF: a view of one column of its block's record (CpswfBlock),
    built on request when a CpswfOrders is indexed or iterated.

    lam, the concentration eigenvalue c^m |mu|^2, lies in (0, 1].  Computed,
    it can pass 1 by rounding, in the T-term sum P(0) (or Q(0)) and in the
    eigenvector entries that mu divides: lam <= 1 + T eps, T =
    pair.truncation.  Over c in [4, 1000], m in {2, 3}, k <= 7 and n <= 31
    the largest excess was 0.5 T eps (697 eps at c = 1000, where T = 2,046).
    lam is reported as computed, not clipped.
    """

    n: int
    k: int
    m: int
    c: float
    pair: RadialEigenpair
    basis_at_zero: np.ndarray = field(repr=False, compare=False)
    _active: int
    value_at_zero: float
    mu: complex
    lam: float

    @property
    def parity(self) -> str:
        return "even" if self.n % 2 == 0 else "odd"

    @property
    def N(self) -> int:
        return self.n // 2

    @property
    def coeffs(self) -> np.ndarray:
        return self.pair.coeffs

    @property
    def chi(self) -> float:
        return self.pair.chi

    def radial_poly_values(self, t) -> np.ndarray:
        """P(t) (even) or Q(t) (odd): the t-polynomial radial factor."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        _check_t(t)
        return radial_series(self.k, self.m, self.parity, self.coeffs[:self._active], t)


def _check_t(t: np.ndarray) -> None:
    # the _active cut holds on [0, 1] only; the slack of eval_field_coeffs
    # keeps points on the unit sphere
    if not np.all((0 <= t) & (t <= 1 + 1e-12)):
        raise ValueError("t must be finite and lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class CpswfBlock:
    """The CPSWFs of one (parity, k) Galerkin block, orders n = 2N + odd,
    as read-only arrays over N = 0..N_max: active, value_at_zero, mu, lam,
    and chi from the block itself.  record[N] builds the Cpswf of column N."""

    block: RadialEigenpair
    basis_at_zero: np.ndarray
    odd: int
    k: int
    m: int
    c: float
    active: np.ndarray
    value_at_zero: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for column in (self.basis_at_zero, self.active, self.value_at_zero, self.mu, self.lam):
            column.setflags(write=False)

    @property
    def chi(self) -> np.ndarray:
        return self.block.chi

    def __getitem__(self, N: int) -> Cpswf:
        N = range(self.lam.size)[N]
        return Cpswf(2 * N + self.odd, self.k, self.m, self.c, self.block[N], self.basis_at_zero,
                     int(self.active[N]), float(self.value_at_zero[N]),
                     complex(self.mu[N]), float(self.lam[N]))


@dataclass(frozen=True, eq=False)
class CpswfOrders:
    """The orders n = 0..n_max of one degree: order 2N is column N of the
    even block's record and order 2N + 1 column N of the odd one's.

    chi, active, value_at_zero, mu and lam are read-only arrays of shape
    (n_max+1,) in order n.  Indexing or iterating builds the Cpswf records
    on request.
    """

    blocks: tuple  # (even,) or (even, odd) CpswfBlock records
    n_max: int

    def _column(self, name: str) -> np.ndarray:
        out = np.empty(self.n_max + 1, dtype=getattr(self.blocks[0], name).dtype)
        for odd, record in enumerate(self.blocks):
            out[odd::2] = getattr(record, name)[:(self.n_max + 2 - odd) // 2]
        out.setflags(write=False)
        return out

    chi = property(lambda self: self._column("chi"))
    active = property(lambda self: self._column("active"))
    value_at_zero = property(lambda self: self._column("value_at_zero"))
    mu = property(lambda self: self._column("mu"))
    lam = property(lambda self: self._column("lam"))

    def __len__(self) -> int:
        return self.n_max + 1

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(len(self))[n]]
        n = range(len(self))[n]
        return self.blocks[n % 2][n // 2]

    def __iter__(self):
        return (self[n] for n in range(len(self)))


def _block_cpswfs(block: RadialEigenpair, zero: np.ndarray, odd: int,
                  k: int, m: int, c: float) -> CpswfBlock:
    """The record of orders n = 2N + odd of one parity block, from its
    radial basis at t = 0, p_i(0) (even) or q_i(0) (odd).

    _active counts the leading coefficients that matter: on [0, 1],
    |alpha_i p_i(t)| peaks at t = 0, and terms below 1e-16 of the largest
    such bound are dropped.  A cut on |alpha_i| alone would move P(0), as
    p_i(0) grows like i^(k+m/2-1/2).  value_at_zero is P(0) or Q(0).
    mu, the eigenvalue of G_c, is one closed form in kappa = k + odd: an odd
    order of degree k is the even family of degree k + 1 (galerkin.as_odd,
    q^k_N = -p^(k+1)_N) with the sign flipped.  Its phase is i^kappa times
    a real sign; the constant is pinned against quadrature of the defining
    integral (operators.verify, the test oracles).  lam = c^m |mu|^2.
    Every column equals its order's own Python scalar formulas to the bit.
    """
    zero = np.array(zero[:block.truncation])  # BLAS rounds a strided dot differently
    bound = np.abs(block.coeffs * zero[:, None])
    keep = bound > 1e-16 * bound.max(axis=0)
    active = block.truncation - np.argmax(keep[::-1], axis=0)
    # one dot per order: a matrix product rounds P(0) differently
    at_zero = np.array([block.coeffs[:na, j] @ zero[:na] for j, na in enumerate(active.tolist())])
    kappa = k + odd
    phase = -(1j ** kappa) if odd else 1j ** kappa
    num = phase * math.sqrt(2 * kappa + m) * math.pi ** (kappa + m / 2) * c ** kappa
    den = gamma_fn(kappa + m / 2 + 1)
    # Python's complex * float and complex / float, signed zeros included:
    # a / d = ((a.re + a.im r) / d, (a.im - a.re r) / d) with r = 0.0 / d
    a = np.complex128(num) * block.coeffs[0]
    d = den * at_zero
    r = 0.0 / d
    mu = np.empty(d.shape, dtype=complex)
    mu.real = (a.real + a.imag * r) / d
    mu.imag = (a.imag - a.real * r) / d
    # Python's abs and ** call libm hypot and pow, as np.hypot and
    # np.float_power do; np.abs and ** 2 round differently
    lam = c ** m * np.float_power(np.hypot(mu.real, mu.imag), 2.0)
    return CpswfBlock(block, zero, odd, k, m, c, active, at_zero, mu, lam)


def _check_order(n: int, ks: list, c: float) -> None:
    _check_ints(n=n, k=ks)
    if n < 0 or min(ks, default=0) < 0:
        raise ValueError("require n >= 0 and k >= 0")
    if c <= 0:
        raise ValueError("require c > 0 (the c = 0 spectrum is pure Legendre)")


def make_cpswf(n: int, k: int, m: int, c: float, tol: float | None = None) -> Cpswf:
    """The order-n CPSWF: the last column of its one-parity block's record."""
    _check_order(n, [k], c)
    block = solve_block("even" if n % 2 == 0 else "odd", k, m, c, n // 2, tol)
    table = radial_values(k, m, block.truncation - 1, np.zeros(1))[n % 2]
    return _block_cpswfs(block, table[:, 0], n % 2, k, m, float(c))[-1]


# degrees per Bonnet recurrence in cpswf_blocks.  A group's tables hold
# 2 x rows x G x points floats, so a larger group takes fewer recurrence steps
# but more memory: partial_sum(3, 4, K = N = 30) on 33 points peaked at
# 0.23 MB of traced allocations one degree at a time, 0.69 MB at 8, 1.2 MB at 16
_GROUP = 8


def cpswf_blocks(m: int, c: float, ks, n_max: int, tol: float | None = None, t=()):
    """Yield (k, orders, values) for each degree k in ks: orders, a
    CpswfOrders, holds psi_0^k..psi_(n_max)^k as arrays, and values their
    radial factors P(t) (even n) or Q(t) (odd n), of shape
    (n_max+1,) + t.shape.

    Each degree takes one even block solve of orders 0..n_max//2 (see
    galerkin.solve_block); its odd block is the even block of degree k + 1
    (galerkin.as_odd), which the next degree of ks reuses, so degrees 0..K
    take K + 2 solves.  Consecutive degrees of ks are solved in groups of
    up to 8, and one radial_values table per group, with t = 0 in its first
    column, gives every order its mu and lambda and, by one product per
    block, its values; these equal make_cpswf's whenever the solves do.
    """
    ks = list(ks)
    _check_order(n_max, ks, c)
    t = np.asarray(t, dtype=float)
    _check_t(t)
    points = np.concatenate(([0.0], t.ravel()))
    ahead = None  # (k + 1, its even block), for the next degree to reuse
    for start in range(0, len(ks), _GROUP):
        group = ks[start:start + _GROUP]
        solved = []
        for k in group:
            blocks = [ahead[1] if ahead and ahead[0] == k
                      else solve_block("even", k, m, c, n_max // 2, tol)]
            if n_max > 0:
                ahead = (k + 1, solve_block("even", k + 1, m, c, n_max // 2, tol))
                blocks.append(as_odd(ahead[1], k, m))
            solved.append(blocks)
        rows = max(b.truncation for blocks in solved for b in blocks)
        tables = radial_values(np.array(group), m, rows - 1, points)
        for g, (k, blocks) in enumerate(zip(group, solved)):
            yield k, *_degree_orders(blocks, [table[:, g] for table in tables],
                                     k, m, float(c), n_max, t.shape)
        del tables  # two groups' tables alive at once raised the peak memory by half


def _degree_orders(blocks: list, tables: list, k: int, m: int, c: float, n_max: int,
                   shape: tuple) -> tuple[CpswfOrders, np.ndarray]:
    """The orders 0..n_max of degree k and their radial factors, of shape
    (n_max+1,) + shape, from its even (and odd) block and the block's radial
    basis table, whose first column is at t = 0 and the rest at the points."""
    records = tuple(_block_cpswfs(b, table[:, 0], odd, k, m, c)
                    for odd, (b, table) in enumerate(zip(blocks, tables)))
    values = np.empty((n_max + 1, tables[0].shape[1] - 1))
    for odd, (record, table) in enumerate(zip(records, tables)):
        T, count = record.block.truncation, (n_max + 2 - odd) // 2
        # coefficients past each order's active length count as 0
        cz = np.where(np.arange(T)[:, None] < record.active[:count],
                      record.block.coeffs[:, :count], 0.0)
        values[odd::2] = cz.T @ table[:T, 1:]
    return CpswfOrders(records, n_max), values.reshape((n_max + 1,) + shape)


def eval_radial(psi: Cpswf, r) -> np.ndarray:
    """Radial part at |x| = r: P(r^2) for even n, r Q(r^2) for odd n."""
    r = np.asarray(r, dtype=float)
    if not np.all((0 <= r) & (r <= 1)):
        raise ValueError("radius must lie in [0, 1]")
    scalar = r.ndim == 0
    rr = np.atleast_1d(r)
    vals = psi.radial_poly_values(rr ** 2)
    if psi.parity == "odd":
        vals = rr * vals
    return float(vals[0]) if scalar else vals


# the table of the last point set: (record, point shape, point bytes,
# R(t) times the monomials of field_basis); one entry, replaced whole
_last_table = None


def _field_table(psi: Cpswf, x: np.ndarray) -> np.ndarray:
    """R(|x|^2) times monomial_table at the points x, R = P (even) or Q
    (odd): shape (..., T), shared by every basis index of psi at x."""
    global _last_table
    entry = _last_table  # read once, so a concurrent call cannot mix two entries
    key = x.tobytes()
    if entry is not None and entry[0] is psi and entry[1] == x.shape and entry[2] == key:
        return entry[3]
    t = np.sum(x ** 2, axis=-1)
    if not np.all(t <= 1 + 1e-12):
        raise ValueError("points must lie in the closed unit ball")
    exps, _ = field_basis(psi.m, psi.k, psi.parity == "odd")
    radial = psi.radial_poly_values(np.ravel(t)).reshape(t.shape)
    table = monomial_table(exps, x)
    table *= radial[..., None]
    table.setflags(write=False)
    _last_table = (psi, x.shape, key, table)
    return table


def eval_field_coeffs(psi: Cpswf, i: int, x: np.ndarray) -> np.ndarray:
    """Raw Clifford coefficients of the field at points of shape (..., m).

    Every basis index of psi at one point set shares one table of R(t)
    times the monomials; the last table is kept, keyed on the record itself
    and on the points' shape and bytes, so the next index at the same
    points costs one real product.
    """
    m = psi.m
    _check_ints(i=i)
    d = dim_monogenic(m, psi.k)
    if not 1 <= i <= d:
        raise ValueError(f"basis index i must be in [1, {d}]")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != m:
        raise ValueError(f"points must have shape (..., {m}), got {x.shape}")
    table = _field_table(psi, x)
    coeffs = field_basis(m, psi.k, psi.parity == "odd")[1][i - 1]
    out = np.zeros(x.shape[:-1] + (1 << m,), dtype=complex)
    out.real = table @ coeffs
    return out


def eval_field(psi: Cpswf, i: int, x) -> Multivector:
    """Field value P(|x|^2) Y_k^i(x) or x Q(|x|^2) Y_k^i(x) as a Multivector."""
    return Multivector(psi.m, eval_field_coeffs(psi, i, np.asarray(x, dtype=float)))
