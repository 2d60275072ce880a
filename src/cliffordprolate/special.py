"""Gamma-function measures plus the quadrature rules used everywhere else.

All integrals over the unit ball are reduced analytically to radial
integrals on [0, 1] before quadrature, and sphere integrals of monogenics
to Fischer sums (monogenics); full-dimensional quadrature only appears in
test oracles.

scipy_extension loads the two compiled scipy modules the package calls
(LAPACK for the eigensolve, the Bessel ufunc for the operators) without
importing the scipy.linalg or scipy.special packages around them.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_NODES = 4096


@lru_cache(maxsize=None)
def scipy_extension(name: str, routines: tuple[str, ...], fallback: str):
    """The compiled module scipy.<name>, if it holds every one of routines;
    else the public module `fallback` that exports them.

    Importing scipy.linalg or scipy.special costs a CLI process about 0.35 s
    each, for one LAPACK pair or one ufunc.  The module is taken from
    sys.modules when scipy already loaded it, and otherwise from its shared
    library next to scipy's __init__, which imports numpy only.  A scipy
    without that library (it is private, and may move) gets the fallback.
    """
    module = sys.modules.get(f"scipy.{name}") or _load_extension(name)
    if module is None or not all(hasattr(module, r) for r in routines):
        module = importlib.import_module(fallback)
    return module


def _load_extension(name: str):
    """scipy.<name> from its shared library, registered in sys.modules; None
    when the library is missing or will not load."""
    scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
    if scipy is None or scipy.origin is None:
        return None
    base = os.path.join(os.path.dirname(scipy.origin), *name.split("."))
    paths = [base + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(base + s)]
    if not paths:
        return None
    full = f"scipy.{name}"
    loader = importlib.machinery.ExtensionFileLoader(full, paths[0])
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(full, paths[0], loader=loader))
        loader.exec_module(module)
    except ImportError:
        return None
    sys.modules[full] = module
    return module


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if x <= 0:
        raise ValueError("gamma_fn requires x > 0")
    return math.gamma(x)


def ball_volume(m: int) -> float:
    """Volume of the unit ball B(1) in R^m."""
    return math.pi ** (m / 2) / gamma_fn(m / 2 + 1)


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^(m-1) in R^m."""
    return 2 * math.pi ** (m / 2) / gamma_fn(m / 2)


@dataclass(frozen=True)
class QuadratureRule:
    """Read-only quadrature nodes in [0, 1] and positive weights, 1-D arrays
    of one nonzero length (gauss_rule_unit_interval); ValueError otherwise.
    The rule keeps its own copies, so the caller's arrays stay as they were."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.array(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.array(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.size == 0 or self.weights.shape != self.nodes.shape:
            raise ValueError("nodes and weights must be 1-D arrays of one nonzero length, "
                             f"got shapes {self.nodes.shape} and {self.weights.shape}")
        if not np.all((0 <= self.nodes) & (self.nodes <= 1)):
            raise ValueError("quadrature nodes must be finite and lie in [0, 1]")
        if not np.all((0 < self.weights) & (self.weights < np.inf)):
            raise ValueError("quadrature weights must be finite and > 0")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=32)
def gauss_rule_unit_interval(n: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for polynomial degree <= 2n-1."""
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule((x + 1) / 2, w / 2)


def chebyshev_grid(n: int) -> np.ndarray:
    """n Chebyshev-distributed points on the open interval (0, 1), ascending."""
    j = np.arange(1, n + 1)
    return np.sort(0.5 * (1 + np.cos((2 * j - 1) * np.pi / (2 * n))))
