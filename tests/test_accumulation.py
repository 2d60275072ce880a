"""Spectrum accumulation sums and their limit."""

import math

import numpy as np
import pytest

from cliffordprolate.accumulation import limit_value, partial_sum, zonal_trace
from cliffordprolate.monogenics import dim_monogenic
from cliffordprolate.prolate import eval_field_coeffs, make_cpswf


def test_zonal_trace_values():
    assert abs(zonal_trace(2, 0) - 1 / (2 * math.pi)) < 1e-15
    assert abs(zonal_trace(2, 5) - 1 / (2 * math.pi)) < 1e-15
    assert abs(zonal_trace(3, 2) - 3 / (4 * math.pi)) < 1e-15


def test_limit_values():
    assert abs(limit_value(2, 1.0) - math.pi) < 1e-14
    assert abs(limit_value(2, 2.0) - 4 * math.pi) < 1e-13
    assert abs(limit_value(3, 1.0) - 4 * math.pi / 3) < 1e-14


@pytest.mark.parametrize("m, c", [(3, -1.0), (2, -2.0), (2, math.nan), (2, math.inf),
                                  (3, -math.inf)])
def test_limit_value_rejects_c_that_is_not_finite_and_nonnegative(m, c):
    with pytest.raises(ValueError, match="c must be finite and >= 0"):
        limit_value(m, c)


def test_limit_value_at_c_zero_is_zero():
    assert limit_value(3, 0.0) == 0.0


def test_partial_sum_matches_direct_field_sum():
    m, c, K, N = 2, 1.0, 2, 2
    r = 0.6
    acc = partial_sum(m, c, K, N, np.array([r ** 2]))
    x = np.array([r, 0.0])
    total = 0.0
    for k in range(K + 1):
        for n in range(2 * N + 2):
            psi = make_cpswf(n, k, m, c)
            v = eval_field_coeffs(psi, 1, x)
            total += psi.lam * float(np.real(np.sum(np.conj(v) * v)))
    assert abs(acc.values[0] - total) < 1e-10


def test_partial_sum_matches_field_sum_over_every_index_m4():
    # the m = 4 bases enter only through the fields here, not through the
    # zonal trace that partial_sum uses
    m, c, K, N = 4, 1.0, 3, 3
    x = np.random.default_rng(90).uniform(-0.5, 0.5, (5, m))
    acc = partial_sum(m, c, K, N, np.sum(x ** 2, axis=-1))
    total = np.zeros(len(x))
    for k in range(K + 1):
        for n in range(2 * N + 2):
            psi = make_cpswf(n, k, m, c)
            for i in range(1, dim_monogenic(m, k) + 1):
                v = eval_field_coeffs(psi, i, x)
                total += psi.lam * np.sum(np.abs(v) ** 2, axis=-1)
    assert np.all(np.abs(total - acc.values) <= 1e-12 * acc.values)


def test_partial_sum_monotone_in_K_and_below_limit():
    m, c = 2, 1.0
    t = np.linspace(0.0, 0.64, 9)
    prev = np.zeros_like(t)
    for K in range(5):
        acc = partial_sum(m, c, K, 6, t)
        assert np.all(acc.values >= prev - 1e-12)
        assert np.all(acc.values <= limit_value(m, c) + 1e-9)
        prev = acc.values


def test_partial_sum_converges_at_origin():
    acc = partial_sum(2, 1.0, 0, 10, np.array([0.0]))
    assert abs(acc.values[0] - limit_value(2, 1.0)) < 1e-6


def test_validation():
    with pytest.raises(ValueError):
        partial_sum(2, 0.0, 1, 1, [0.5])
    with pytest.raises(ValueError):
        partial_sum(2, 1.0, 1, 1, [1.5])


def test_partial_sum_names_a_grid_that_is_not_1d():
    with pytest.raises(ValueError, match=r"^t grid must be a scalar or 1-D, got shape \(2, 3\)$"):
        partial_sum(2, 1.0, 1, 1, np.full((2, 3), 0.5))
    scalar = partial_sum(2, 1.0, 1, 1, 0.5)
    assert scalar.values.shape == (1,)
    assert np.array_equal(scalar.values, partial_sum(2, 1.0, 1, 1, [0.5]).values)


def test_partial_sum_stays_below_its_limit():
    # every term is nonnegative; a lambda biased high by a truncated
    # value at zero pushed this sum 1.2e-10 past its limit
    acc = partial_sum(3, 4.0, 30, 30, np.linspace(0, 1, 33))
    assert np.all(acc.values <= limit_value(3, 4.0) * (1 + 1e-13))


def test_partial_sum_solves_blocks(monkeypatch):
    # K + 2 even block solves, each certified at its first truncation by
    # one eigensolve, and one value table per group of up to 8 degrees;
    # one order at a time took 3,844 of each
    import cliffordprolate.galerkin as galerkin
    import cliffordprolate.prolate as prolate

    calls = {"eig": 0, "table": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", counted("eig", galerkin.eigh_tridiagonal))
    monkeypatch.setattr(prolate, "radial_values", counted("table", prolate.radial_values))
    K = 30
    partial_sum(3, 4.0, K, 30, np.linspace(0, 1, 33))
    assert calls["eig"] == K + 2
    assert calls["table"] == -(-(K + 1) // 8)


def test_partial_sum_builds_no_per_order_record(monkeypatch):
    # the sum reads each block's lambdas and values as arrays: no Cpswf and
    # no per-order RadialEigenpair view is made
    import cliffordprolate.prolate as prolate
    from cliffordprolate.galerkin import RadialEigenpair

    built = []
    cpswf = prolate.Cpswf
    view = RadialEigenpair.__getitem__
    monkeypatch.setattr(prolate, "Cpswf", lambda *a: built.append("Cpswf") or cpswf(*a))
    monkeypatch.setattr(RadialEigenpair, "__getitem__",
                        lambda self, N: built.append("view") or view(self, N))
    acc = partial_sum(3, 4.0, 9, 9, np.linspace(0, 1, 5))
    assert built == []
    assert np.all(acc.values > 0)
    make_cpswf(3, 1, 3, 4.0)  # the counters do see a record built on request
    assert built == ["view", "Cpswf"]


def test_sum_record_owns_read_only_copies():
    t = np.linspace(0, 1, 3)
    acc = partial_sum(2, 1.0, 1, 1, t)
    values = acc.values.copy()
    t[1] = 0.9
    assert np.array_equal(acc.t_grid, [0.0, 0.5, 1.0])
    assert np.array_equal(acc.values, values)
    for column in (acc.t_grid, acc.values):
        with pytest.raises(ValueError):
            column[0] = 1.0
