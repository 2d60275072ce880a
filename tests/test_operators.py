"""Operators G_c, QP_c and kernels against brute-force quadrature oracles."""

import math

import numpy as np
import pytest

from cliffordprolate import operators
from cliffordprolate.monogenics import basis
from cliffordprolate.operators import (
    GRID_POINTS,
    apply_Gc,
    apply_QPc,
    kernel_Kc,
    transform_matrix,
    verify,
)
from cliffordprolate.prolate import cpswf_blocks, eval_field_coeffs, make_cpswf
from cliffordprolate.special import (
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
    gauss_rule_unit_interval,
)

from oracles import (
    Mc_kernel,
    ball_gram,
    brute_Gc,
    brute_Kc,
    brute_Mc,
    brute_hankel,
    dual_orthogonality_check,
)


def test_kernel_Kc_against_brute():
    rng = np.random.default_rng(61)
    c = 1.3
    for _ in range(5):
        x = rng.standard_normal(2) * 0.6
        ref = brute_Kc(x, c)
        assert abs(ref.imag) < 1e-10
        assert abs(kernel_Kc(x, c, 2) - ref.real) < 1e-9


def test_kernel_Kc_at_origin():
    for m in (2, 3):
        assert abs(kernel_Kc(np.zeros(m), 2.0, m) - ball_volume(m)) < 1e-14


@pytest.mark.parametrize("x, c, m", [
    ([0.5, 0.0], -1.0, 2), ([0.5, 0.0], math.nan, 2), ([0.5, 0.0], math.inf, 2),
    ([math.nan, 0.0], 1.0, 2), ([math.inf, 0.0], 1.0, 2),
    ([0.5, 0.0, 0.0], 1.0, 2), ([0.5, 0.0], 1.0, 3), (0.5, 1.0, 2),
])
def test_kernel_Kc_rejects_bad_input(x, c, m):
    # a negative c used to take the origin branch and return |B(1)|
    with pytest.raises(ValueError):
        kernel_Kc(x, c, m)


def test_kernel_Kc_at_zero_bandwidth():
    for m in (2, 3):
        x = np.full(m, 0.5)
        assert kernel_Kc(x, 0.0, m) == ball_volume(m)
        assert abs(kernel_Kc(x, 1e-12, m) - ball_volume(m)) < 1e-14


def test_hankel_apply_against_brute():
    f = lambda r: 1 - r ** 2
    rule = gauss_rule_unit_interval(256)
    for nu, c, s in [(0.0, 1.0, 0.3), (1.5, 2.0, 0.7), (3.0, 0.5, 0.9)]:
        got = (transform_matrix(nu, c, np.array([s]), rule) @ f(rule.nodes))[0]
        assert abs(got - brute_hankel(f, nu, c, s)) < 1e-11


def test_transform_matrix_rejects_nonpositive_targets():
    rule = gauss_rule_unit_interval(16)
    with pytest.raises(ValueError):
        transform_matrix(0.0, 1.0, np.array([0.0, 0.5]), rule)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transform_matrix_rejects_non_finite_targets(bad):
    # NaN passes a `<= 0` test, so it needs its own check
    rule = gauss_rule_unit_interval(16)
    with pytest.raises(ValueError, match="targets must be finite"):
        transform_matrix(0.5, 1.0, np.array([0.5, bad]), rule)


@pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (2, 1), (3, 2)])
def test_apply_Gc_against_brute_field(n, k):
    psi = make_cpswf(n, k, 2, 1.0)
    rs = np.array([0.25, 0.55, 0.85])
    prof = apply_Gc(psi, rs)
    pts = np.stack([rs, np.zeros_like(rs)], axis=-1)
    ref = brute_Gc(psi, 1, pts)
    y = basis(2, k).elements[0]
    for j, r in enumerate(rs):
        x = pts[j]
        ang = y.evaluate_coeffs(x / r) * r ** k
        if psi.parity == "odd":
            from cliffordprolate.algebra import embed_coeffs, mul_coeffs
            ang = mul_coeffs(2, embed_coeffs(2, x), ang)
        want = prof.values[j] * ang
        assert np.max(np.abs(want - ref[j])) < 1e-9


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (4, 2)])
def test_Gc_eigenrelation(m, n, k):
    psi = make_cpswf(n, k, m, 1.0)
    grid = np.linspace(0.1, 0.9, 9)
    g = apply_Gc(psi, grid)
    own = psi.radial_poly_values(grid ** 2)
    ratios = g.values / own
    assert np.max(np.abs(ratios - psi.mu)) < 1e-10 * abs(psi.mu)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n,k", [(0, 0), (3, 1)])
def test_QPc_eigenrelation(m, n, k):
    psi = make_cpswf(n, k, m, 1.5)
    grid = np.linspace(0.1, 0.9, 9)
    q = apply_QPc(psi, grid)
    own = psi.radial_poly_values(grid ** 2)
    assert np.max(np.abs(q.values - psi.lam * own)) < 1e-10 * np.max(np.abs(own))


def test_verify_report_clean():
    rep = verify(make_cpswf(2, 1, 2, 1.0))
    assert rep.ratio_spread < 1e-10
    assert rep.residual < 1e-10
    assert abs(rep.lambda_est - make_cpswf(2, 1, 2, 1.0).lam) < 1e-10


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [5.0, 20.0, 50.0])
def test_verify_gc_residual_at_large_c(m, c):
    # ratio_spread divides by psi, which is tiny somewhere at large c;
    # the norm-relative residuals stay at rounding level
    for k, psis, _ in cpswf_blocks(m, c, range(2), 3):
        for psi in psis:
            rep = verify(psi)
            assert rep.gc_residual <= 1e-6, (k, psi.n)
            assert rep.residual <= 1e-6, (k, psi.n)
            assert abs(abs(rep.mu_est) - abs(psi.mu)) <= 1e-8 * abs(psi.mu)


def test_verify_gc_residual_is_the_norm_relative_deviation():
    psi = make_cpswf(2, 1, 2, 1.0)
    grid = chebyshev_grid(GRID_POINTS)
    own = psi.radial_poly_values(grid ** 2)
    g = apply_Gc(psi).values
    rep = verify(psi)
    want = np.max(np.abs(g - rep.mu_est * own)) / (abs(rep.mu_est) * np.max(np.abs(own)))
    assert rep.gc_residual == want
    assert rep.gc_residual < 1e-12


def test_cached_matrices_match_fresh_transforms():
    rule = gauss_rule_unit_interval(256)
    grid = chebyshev_grid(GRID_POINTS)
    for nu, c in [(0.5, 1.0), (2.0, 3.5)]:
        G, Q = operators._operator_matrices(nu, c, grid, rule)
        assert np.array_equal(G, transform_matrix(nu, c, grid, rule))
        ref = G @ transform_matrix(nu, c, rule.nodes, rule)
        assert np.max(np.abs(Q - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_verify_builds_two_matrices_per_nu(monkeypatch):
    # m = 3, c = 1, k <= 3: nu = k + 1/2 (even) or k + 3/2 (odd), five
    # values shared by 28 CPSWFs; each needs the grid and the node matrix
    calls = []
    real = operators.transform_matrix

    def counted(*args, **kwargs):
        calls.append((args[0], len(args[2])))
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "transform_matrix", counted)
    operators._cached_matrices.cache_clear()
    psis = [psi for _, block, _ in cpswf_blocks(3, 1.0, range(4), 6) for psi in block]
    assert len(psis) == 28
    for psi in psis:
        verify(psi)
    assert len(calls) == 10
    assert sorted(calls) == sorted((k + 0.5, size) for k in range(5)
                                   for size in (GRID_POINTS, 256))


def test_matrix_cache_does_not_alias(monkeypatch):
    psi = make_cpswf(1, 1, 2, 1.0)  # odd: nu = k + m/2, phase i^(k+1)
    nu = 2.0
    rule = gauss_rule_unit_interval(256)
    f = psi.radial_poly_values(rule.nodes ** 2)
    scale = 1j ** 2 * 2 * math.pi
    for grid in (chebyshev_grid(GRID_POINTS), np.linspace(0.1, 0.9, 9),
                 np.linspace(0.1, 0.9, 9) + 0.05):
        fresh = transform_matrix(nu, psi.c, grid, rule)
        assert np.array_equal(apply_Gc(psi, grid).values, scale * (fresh @ f))
        G, _ = operators._operator_matrices(nu, psi.c, grid, rule)
        assert np.array_equal(G, fresh)
    monkeypatch.setenv("CPSWF_NODES", "512")
    G, Q = operators._operator_matrices(nu, psi.c, chebyshev_grid(GRID_POINTS),
                                        operators._default_rule())
    assert G.shape == Q.shape == (GRID_POINTS, 512)
    # equal nodes, different weights: T is linear in the weights
    heavy = QuadratureRule(rule.nodes, 2 * rule.weights)
    grid = chebyshev_grid(GRID_POINTS)
    G1, Q1 = operators._operator_matrices(nu, psi.c, grid, rule)
    G2, Q2 = operators._operator_matrices(nu, psi.c, grid, heavy)
    assert np.array_equal(G2, 2 * G1)
    assert np.allclose(Q2, 4 * Q1, rtol=1e-14, atol=0)


def test_cached_matrices_are_read_only():
    G, Q = operators._operator_matrices(0.5, 1.0, chebyshev_grid(GRID_POINTS),
                                        gauss_rule_unit_interval(256))
    for mat in (G, Q):
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


BAD_GRIDS = {
    "decreasing": [0.5, 0.3],
    "repeated": [0.3, 0.3],
    "zero": [0.0, 0.5],
    "negative": [-0.1, 0.5],
    "nan": [0.1, float("nan")],
    "inf": [0.1, float("inf")],
    "empty": [],
    "two-d": [[0.1, 0.2], [0.3, 0.4]],
}


@pytest.mark.parametrize("case", BAD_GRIDS)
@pytest.mark.parametrize("op", [apply_Gc, apply_QPc, verify])
def test_bad_grid_is_rejected_before_any_transform(monkeypatch, op, case):
    psi = make_cpswf(0, 0, 2, 1.0)

    def no_work(*args, **kwargs):
        raise AssertionError("operator work before the grid check")

    monkeypatch.setattr(operators, "transform_matrix", no_work)
    monkeypatch.setattr(operators, "_operator_matrices", no_work)
    with pytest.raises(ValueError, match="grid"):
        op(psi, grid=BAD_GRIDS[case])


def test_transform_matrix_rejects_non_1d_targets():
    rule = gauss_rule_unit_interval(16)
    for targets in (np.full((2, 3), 0.5), np.float64(0.5)):
        with pytest.raises(ValueError, match="targets must be a 1-D array"):
            transform_matrix(0.0, 1.0, targets, rule)


def test_Mc_kernel_against_brute_and_symmetry():
    rng = np.random.default_rng(62)
    for k, m, c in [(0, 2, 1.0), (1, 2, 2.0), (0, 3, 1.5), (2, 3, 0.7)]:
        for _ in range(4):
            r, s = rng.uniform(0.05, 0.95, 2)
            val = Mc_kernel(r, s, c, k, m)
            assert abs(val - brute_Mc(r, s, c, k, m)) < 1e-11
            assert abs(val - Mc_kernel(s, r, c, k, m)) < 1e-12


def test_Mc_kernel_diagonal_limit():
    k, m, c = 1, 2, 1.0
    r = 0.6
    diag = Mc_kernel(r, r, c, k, m)
    near = Mc_kernel(r, r + 1e-5, c, k, m)
    assert abs(diag - near) < 1e-4
    assert abs(diag - brute_Mc(r, r, c, k, m)) < 1e-11


def test_Mc_eigen_identity():
    # (lambda / (2 pi)) s^nu f(s) = c int_0^1 u^(nu+1) f(u) M_c(u, s) du
    psi = make_cpswf(0, 0, 2, 1.0)
    nu = psi.k + psi.m / 2 - 1
    rule = gauss_rule_unit_interval(400)
    u = rule.nodes
    f = psi.radial_poly_values(u ** 2)
    for s in (0.3, 0.7):
        kern = np.array([Mc_kernel(ui, s, psi.c, psi.k, psi.m) for ui in u])
        rhs = psi.c * float(np.dot(rule.weights, u ** (nu + 1) * f * kern))
        lhs = psi.lam / (2 * math.pi) * s ** nu * psi.radial_poly_values(s ** 2)[0]
        assert abs(lhs - rhs) < 1e-10


def test_ball_gram_orthonormality_mixed_k():
    entries = [(make_cpswf(n, k, 2, 1.0), 1) for k in range(2) for n in range(3)]
    g = ball_gram(entries)
    assert np.max(np.abs(g - np.eye(len(entries)))) < 1e-9


def test_ball_gram_orthonormality_basis_indices_m3():
    entries = [(make_cpswf(0, 2, 3, 1.0), i) for i in (1, 2, 3)]
    g = ball_gram(entries)
    assert np.max(np.abs(g - np.eye(3))) < 1e-8


def test_dual_orthogonality():
    entries = [(make_cpswf(n, 0, 2, 1.0), 1) for n in range(3)]
    gram_rm, gram_ball = dual_orthogonality_check(entries)
    lam = np.array([psi.lam for psi, _ in entries])
    assert np.max(np.abs(gram_rm - np.eye(3))) < 1e-8
    assert np.max(np.abs(gram_ball - np.diag(lam))) < 1e-8


def test_self_adjointness_of_QPc():
    # <psi_p, QP psi_q> = <QP psi_p, psi_q>: the normalized mixed Gram
    # must be Hermitian
    entries = [(make_cpswf(n, 1, 2, 1.0), 1) for n in range(3)]
    gram_rm, _ = dual_orthogonality_check(entries)
    assert np.max(np.abs(gram_rm - gram_rm.conj().T)) < 1e-9
