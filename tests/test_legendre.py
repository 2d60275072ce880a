"""Clifford-Legendre radial polynomials: recurrence, orthonormality, operator."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_legendre

from cliffordprolate.legendre import (
    bonnet_coeffs,
    c0_eigenvalue,
    radial_sequence,
    radial_series,
    radial_values,
)
from cliffordprolate.monogenics import dirac
from cliffordprolate.special import gauss_rule_unit_interval

from oracles import (
    apply_L0_radial,
    assemble_polynomial,
    constant,
    coordinate,
    dirac_coupling_check,
    rodrigues_polynomial,
)


def radial_inner(f, g, weight_exp, rule):
    """(1/2) int_0^1 f g t^weight_exp dt via t = u^2, exact for polynomials
    when 2 * weight_exp is an integer."""
    u = rule.nodes
    vals = f(u ** 2) * g(u ** 2) * u ** (2 * weight_exp + 1)
    return float(np.dot(rule.weights, vals))


@pytest.mark.parametrize("m,k", [(2, 0), (2, 3), (3, 0), (3, 2), (4, 1), (5, 0)])
def test_orthonormality_coefficient_route(m, k):
    # monomial-coefficient evaluation loses ~1e-10 by order 8; the tight
    # check below uses the well-conditioned value-space recurrence
    rule = gauss_rule_unit_interval(128)
    ps, qs = radial_sequence(k, m, 8)
    for seq, extra in ((ps, 0), (qs, 1)):
        for a in range(len(seq)):
            for b in range(a, len(seq)):
                val = radial_inner(seq[a], seq[b], k + m / 2 - 1 + extra, rule)
                assert abs(val - (a == b)) < 2e-9


@pytest.mark.parametrize("m,k", [(2, 0), (2, 3), (3, 0), (3, 2), (4, 1), (5, 0)])
def test_orthonormality_value_route(m, k):
    rule = gauss_rule_unit_interval(128)
    u = rule.nodes
    pv, qv = radial_values(k, m, 8, u ** 2)
    for vals, extra in ((pv, 0), (qv, 1)):
        w = u ** (2 * (k + m / 2 - 1 + extra) + 1)
        for a in range(9):
            for b in range(a, 9):
                val = float(np.dot(rule.weights, vals[a] * vals[b] * w))
                assert abs(val - (a == b)) < 1e-12


@pytest.mark.parametrize("m,k", [(2, 0), (2, 2), (3, 1)])
def test_normalization_constants(m, k):
    ps, qs = radial_sequence(k, m, 0)
    assert abs(ps[0].coeffs[0] - np.sqrt(2 * k + m)) < 1e-14
    assert abs(qs[0].coeffs[0] + np.sqrt(2 * k + m + 2)) < 1e-14


@pytest.mark.parametrize("m,k", [(2, 0), (2, 4), (3, 0), (3, 3)])
def test_q_is_shifted_p(m, k):
    ps_up, _ = radial_sequence(k + 1, m, 6)
    _, qs = radial_sequence(k, m, 6)
    for N in range(7):
        a, b = qs[N].coeffs, ps_up[N].coeffs
        assert np.max(np.abs(a + b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("m,k", [(2, 0), (2, 2), (3, 1), (4, 0)])
def test_operator_eigenrelation(m, k):
    ps, qs = radial_sequence(k, m, 6)
    t = np.linspace(0.01, 0.99, 23)
    for N in range(7):
        lp = apply_L0_radial(ps[N], "even", k, m)
        chi = c0_eigenvalue(2 * N, m, k)
        assert np.max(np.abs(lp(t) - chi * ps[N](t))) < 1e-8 * max(1, abs(chi))
        lq = apply_L0_radial(qs[N], "odd", k, m)
        chi = c0_eigenvalue(2 * N + 1, m, k)
        assert np.max(np.abs(lq(t) - chi * qs[N](t))) < 1e-8 * max(1, abs(chi))


def test_c0_eigenvalue_values():
    # n(n + m + 2k) for even n, (n+1)(n + m + 2k - 1) for odd n
    assert c0_eigenvalue(0, 2, 0) == 0
    assert c0_eigenvalue(1, 2, 0) == 4
    assert c0_eigenvalue(2, 3, 1) == 2 * 7
    assert c0_eigenvalue(3, 3, 1) == 4 * 7


@pytest.mark.parametrize("m,k", [(2, 0), (3, 2)])
def test_radial_values_match_coefficients(m, k):
    t = np.linspace(0.0, 1.0, 17)
    pv, qv = radial_values(k, m, 5, t)
    ps, qs = radial_sequence(k, m, 5)
    for N in range(6):
        assert np.max(np.abs(pv[N] - ps[N](t))) < 1e-9
        assert np.max(np.abs(qv[N] - qs[N](t))) < 1e-9


def test_radial_sequence_matches_shifted_legendre():
    # m = 2, k = 0: p_N(t) = sqrt(2(2N+1)) P_N(1-2t), whose monomial
    # coefficients are sqrt(2(2N+1)) (-1)^j C(N,j) C(N+j,j)
    ps, _ = radial_sequence(0, 2, 8)
    t = np.linspace(0.0, 1.0, 33)
    for N, p in enumerate(ps):
        scale = math.sqrt(2 * (2 * N + 1))
        exact = scale * np.array([(-1) ** j * math.comb(N, j) * math.comb(N + j, j)
                                  for j in range(N + 1)])
        assert p.coeffs.shape == exact.shape
        assert np.max(np.abs(p.coeffs - exact)) < 1e-14 * np.max(np.abs(exact))
        assert np.max(np.abs(p(t) - scale * eval_legendre(N, 1 - 2 * t))) < 1e-10


def test_bonnet_coeffs_take_an_array():
    # at m = 2, k = 0 the B_0 formula is 0/0: the array path must give 0, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cf = bonnet_coeffs(np.arange(6), 0, 2)
    assert cf.A.shape == cf.B.shape == (6,)
    assert cf.B[0] == 0 and np.all(cf.B[1:] > 0)
    for N in range(6):
        one = bonnet_coeffs(N, 0, 2)
        assert (one.A, one.B, one.A_prime, one.B_prime) == (
            cf.A[N], cf.B[N], cf.A_prime[N], cf.B_prime[N])


def test_recurrence_reads_bonnet_lists_from_a_cache():
    from cliffordprolate.legendre import _bonnet_lists

    _bonnet_lists.cache_clear()
    ref = bonnet_coeffs(np.arange(9), 2, 3)
    lists = _bonnet_lists(2, 3, 8)
    assert lists == tuple(tuple(c.tolist()) for c in (ref.A, ref.B, ref.A_prime, ref.B_prime))
    assert all(isinstance(c, tuple) for c in lists)  # shared, so immutable
    before = _bonnet_lists.cache_info().hits
    radial_values(2, 3, 8, np.linspace(0, 1, 5))
    radial_series(2, 3, "odd", np.ones(9), np.linspace(0, 1, 5))
    assert _bonnet_lists.cache_info().hits == before + 2


def test_bonnet_first_step():
    # B_0 vanishes: q_0 is proportional to p_0
    for m, k in [(2, 0), (3, 1)]:
        cf = bonnet_coeffs(0, k, m)
        assert abs(cf.B) < 1e-15


@pytest.mark.parametrize("m,k", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_dirac_coupling(m, k):
    for n in range(8):
        assert dirac_coupling_check(n, k, m) < 1e-11


@pytest.mark.parametrize("m,k,n", [(2, 0, 3), (2, 1, 4), (3, 0, 3), (3, 2, 2)])
def test_rodrigues_matches_assembled(m, k, n):
    rng = np.random.default_rng(31)
    scale = math.sqrt(2 * k + 2 * n + m) / (2.0 ** n * math.factorial(n))
    rod = rodrigues_polynomial(n, k, m).scale(scale)
    asm = assemble_polynomial(n, k, m)
    for _ in range(5):
        x = rng.standard_normal(m)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        dv = rod.evaluate_coeffs(x) - asm.evaluate_coeffs(x)
        assert np.max(np.abs(dv)) < 1e-8


@pytest.mark.parametrize("m,k,n", [(2, 0, 4), (3, 1, 3)])
def test_assembled_polynomial_is_operator_eigenfunction(m, k, n):
    # dirac((1-|x|^2) dirac p) = C(0,n,m,k) p at sample points
    p = assemble_polynomial(n, k, m)
    from cliffordprolate.monogenics import PolyMultivector
    one = constant(m, 1.0)
    t = PolyMultivector(m)
    for j in range(1, m + 1):
        xj = coordinate(m, j)
        t = t + xj * xj
    lp = dirac((one - t) * dirac(p))
    chi = c0_eigenvalue(n, m, k)
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = rng.standard_normal(m)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        dv = lp.evaluate_coeffs(x) - chi * p.evaluate_coeffs(x)
        assert np.max(np.abs(dv)) < 1e-7 * max(1.0, abs(chi) * p.max_coeff())


def test_radial_values_take_t_of_any_shape():
    t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    pv, qv = radial_values(2, 3, 4, t)
    flat_p, flat_q = radial_values(2, 3, 4, t.ravel())
    assert pv.shape == qv.shape == (5, 2, 3)
    assert np.array_equal(pv.reshape(5, -1), flat_p)
    assert np.array_equal(qv.reshape(5, -1), flat_q)
    scalar_p, _ = radial_values(2, 3, 4, 0.5)
    assert scalar_p.shape == (5,)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_radial_series_is_the_table_sum(parity):
    t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    coeffs = np.random.default_rng(7).standard_normal(9)
    pv, qv = radial_values(3, 2, 8, t)
    table = pv if parity == "even" else qv
    want = np.tensordot(coeffs, table, axes=1)
    got = radial_series(3, 2, parity, coeffs, t)
    assert got.shape == (2, 3)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 6).reshape(2, 3)],
                         ids=["1d", "2d"])
def test_radial_values_of_many_degrees_equal_each_degree_alone(t):
    ks = np.array([0, 1, 2, 3, 5, 7, 8, 11, 19, 30, 3, 0])
    for m in (2, 3, 5):
        pv, qv = radial_values(ks, m, 83, t)
        assert pv.shape == qv.shape == (84, ks.size) + t.shape
        for g, k in enumerate(ks.tolist()):
            p_one, q_one = radial_values(k, m, 83, t)
            assert np.array_equal(pv[:, g], p_one) and np.array_equal(qv[:, g], q_one)


def test_bonnet_coeffs_broadcast_degrees_against_orders():
    N, ks = np.arange(7)[:, None], np.array([0, 2, 9])
    cf = bonnet_coeffs(N, ks, 3)
    assert cf.A.shape == cf.B.shape == cf.A_prime.shape == cf.B_prime.shape == (7, 3)
    for g, k in enumerate(ks.tolist()):
        one = bonnet_coeffs(np.arange(7), k, 3)
        for field in ("A", "B", "A_prime", "B_prime"):
            assert np.array_equal(getattr(cf, field)[:, g], getattr(one, field))
    with pytest.raises(ValueError, match="require N >= 0, k >= 0"):
        bonnet_coeffs(N, np.array([1, -1]), 3)
    with pytest.raises(ValueError, match="require N >= 0, k >= 0"):
        radial_values(np.array([2, -1]), 3, 4, np.zeros(2))
