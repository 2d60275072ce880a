"""Operators G_c, QP_c and kernels against brute-force quadrature oracles."""

import math

import numpy as np
import pytest

from cliffordprolate.monogenics import basis
from cliffordprolate.operators import (
    Mc_kernel,
    apply_Gc,
    apply_QPc,
    ball_gram,
    dual_orthogonality_check,
    kernel_Kc,
    transform_matrix,
    verify,
)
from cliffordprolate.prolate import eval_field_coeffs, make_cpswf
from cliffordprolate.special import ball_volume, gauss_rule_unit_interval

from oracles import brute_Gc, brute_Kc, brute_Mc, brute_hankel


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
