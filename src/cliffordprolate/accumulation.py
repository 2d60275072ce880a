"""Spectrum accumulation: truncated sums of lambda |psi|^2 over (n, k, i).

Summing the concentration-weighted energies of all CPSWFs at a point x
gives K_c(0) = c^m |B(1)|, independent of x.  The sum over the basis
index i collapses through the zonal trace sum_i |Y_k^i(w)|^2
= d_k / |S^(m-1)|, so the truncated sum is a function of t = |x|^2:

    G(t) = sum_k w_k t^k sum_N [ lambda_2N P_N(t)^2 + lambda_2N+1 t Q_N(t)^2 ]

with w_k = d_k / |S^(m-1)|.  Partial sums increase monotonically to the
limit because every term is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import _check_ints
from .monogenics import dim_monogenic
from .prolate import cpswf_blocks
from .prolate import make_cpswf  # noqa: F401  (kept for the benchmark's span hooks)
from .special import ball_volume, sphere_area


@dataclass(frozen=True)
class AccumulationSum:
    m: int
    c: float
    K: int
    N: int
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # copies, so the caller's arrays cannot change the record
        for name in ("t_grid", "values"):
            column = np.array(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)


def zonal_trace(m: int, k: int) -> float:
    """sum_i |Y_k^i(w)|^2 = d_k / |S^(m-1)| (constant on the sphere)."""
    return dim_monogenic(m, k) / sphere_area(m)


def limit_value(m: int, c: float) -> float:
    """The accumulation limit K_c(0) = c^m |B(1)|, for a finite c >= 0."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and >= 0, got {c!r}")
    return float(c ** m * ball_volume(m))


def partial_sum(m: int, c: float, K: int, N: int, t_grid,
                tol: float | None = None) -> AccumulationSum:
    """Truncated accumulation sum over k <= K and radial order N' <= N
    for both parities, evaluated at the given t = |x|^2 grid points.

    Reads each degree's lambdas and radial factors as arrays from
    cpswf_blocks; no per-order Cpswf record is built.
    """
    _check_ints(K=K, N=N)
    if K < 0 or N < 0 or c <= 0:
        raise ValueError("require K >= 0, N >= 0, c > 0")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.ndim != 1:
        raise ValueError(f"t grid must be a scalar or 1-D, got shape {t.shape}")
    if not np.all((0 <= t) & (t <= 1)):
        raise ValueError("t grid must lie in [0, 1]")
    total = np.zeros_like(t)
    for k, orders, values in cpswf_blocks(m, c, range(K + 1), 2 * N + 1, tol, t):
        lam = orders.lam
        # even orders weigh P(t)^2, odd orders t Q(t)^2
        acc = lam[0::2] @ values[0::2] ** 2 + t * (lam[1::2] @ values[1::2] ** 2)
        total += zonal_trace(m, k) * t ** k * acc
    return AccumulationSum(m, float(c), K, N, t, total)
