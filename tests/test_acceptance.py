"""Acceptance checks: one test per numbered criterion.

Each test prints a single PASS line with the measured worst-case figure,
so `pytest -v -s` gives one pass/fail line per criterion.  Tolerances are
fixed here and must not be loosened; a genuinely unattainable case is
marked as a strict expected failure with the measured gap, never hidden.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cliffordprolate.accumulation import limit_value, partial_sum
from cliffordprolate.galerkin import build, solve_radial
from cliffordprolate.legendre import c0_eigenvalue
from cliffordprolate.monogenics import basis
from cliffordprolate.operators import apply_Gc, kernel_Kc, verify
from cliffordprolate.prolate import eval_field_coeffs, make_cpswf

from oracles import (Mc_kernel, ball_gram, brute_Gc, brute_Kc, brute_Mc, build_odd, build_parity,
                     smallc_curvature)


def report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_c01_shift_identity():
    worst = 0.0
    for k in range(5):
        for m in (2, 3):
            for c in (0.5, 1.0, 2.0):
                odd = build_odd(k, m, c, 64)
                even = build(k + 1, m, c, 64)
                dev = max(np.max(np.abs(odd.diag - (even.diag + 4 * k + 2 * m))),
                          np.max(np.abs(odd.offdiag - even.offdiag)))
                worst = max(worst, dev)
    assert worst <= 1e-13
    report(1, "shift identity", f"max deviation {worst:.2e} <= 1e-13")


def test_c02_c0_spectra():
    worst = 0.0
    for m in (2, 3):
        for k in range(5):
            for parity in ("even", "odd"):
                mat = build_parity(parity, k, m, 0.0, 16)
                chis = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True)
                for N in range(7):
                    n = 2 * N if parity == "even" else 2 * N + 1
                    want = c0_eigenvalue(n, m, k)
                    dev = abs(chis[N] - want) / max(1.0, abs(want))
                    worst = max(worst, dev)
    assert worst <= 1e-12
    report(2, "c=0 spectra", f"max relative deviation {worst:.2e} <= 1e-12")


def test_c03_small_c_asymptotics():
    m = 2
    ratios = []
    for k in range(3):
        for n in range(7):
            parity = "even" if n % 2 == 0 else "odd"
            N = n // 2
            b = smallc_curvature(parity, k, m, N)
            chi0 = c0_eigenvalue(n, m, k)

            def err(c):
                chi = solve_radial(parity, k, m, c, N, 1e-13).chi
                return abs(chi - chi0 - 4 * math.pi ** 2 * c ** 2 * b)

            ratio = err(0.1) / err(0.05)
            ratios.append(ratio)
            assert 14 <= ratio <= 18, (k, n, ratio)
    report(3, "small-c asymptotics",
           f"quartic ratios in [{min(ratios):.2f}, {max(ratios):.2f}] within [14, 18]")


def test_c04_eigenfunction_verification():
    worst_spread = worst_res = 0.0
    for k in range(4):
        for n in range(7):
            rep = verify(make_cpswf(n, k, 2, 1.0))
            worst_spread = max(worst_spread, rep.ratio_spread)
            worst_res = max(worst_res, rep.residual)
    assert worst_spread <= 1e-6 and worst_res <= 1e-6
    report(4, "eigenfunction verification",
           f"max ratio spread {worst_spread:.2e}, max residual {worst_res:.2e} <= 1e-6")


def test_c05_eigenvalue_relations():
    worst_rel = worst_shift = 0.0
    for m in (2, 3):
        mus = {}
        lams = {}
        for k in range(4):
            for n in range(7):
                psi = make_cpswf(n, k, m, 1.0)
                rep = verify(psi)
                # operator-route estimates, not the closed-form identity
                worst_rel = max(worst_rel,
                                abs(abs(rep.mu_est) ** 2 - rep.lambda_est / 1.0 ** m))
                mus[(n, k)] = abs(psi.mu)
                lams[(n, k)] = psi.lam
        for k in range(1, 4):
            for N in range(3):
                worst_shift = max(worst_shift,
                                  abs(mus[(2 * N, k)] - mus[(2 * N + 1, k - 1)]))
        for k in range(4):
            seq = [lams[(n, k)] for n in range(7)]
            assert np.all(np.diff(seq) < 0), ("lambda not decreasing in n", m, k)
        for n in range(7):
            seq = [mus[(n, k)] for k in range(4)]
            assert np.all(np.diff(seq) < 0), ("|mu| not decreasing in k", m, n)
    assert worst_rel <= 1e-8 and worst_shift <= 1e-8
    report(5, "eigenvalue relations",
           f"|mu|^2 vs lambda/c^m dev {worst_rel:.2e}, "
           f"parity shift dev {worst_shift:.2e} <= 1e-8; monotone")


def test_c06_orthonormal_basis():
    entries = [(make_cpswf(n, k, 2, 1.0), 1) for k in range(3) for n in range(5)]
    g = ball_gram(entries)
    dev = float(np.max(np.abs(g - np.eye(len(entries)))))
    assert dev <= 1e-7
    report(6, "orthonormal basis", f"Gram deviation from identity {dev:.2e} <= 1e-7")


def test_c07_2d_structural_identity():
    m, c = 2, 1.0
    worst_vec = 0.0
    for k in range(3):
        for N in range(4):
            odd = solve_radial("odd", k, m, c, N, 1e-12)
            even = solve_radial("even", k + 1, m, c, N, 1e-12)
            T = min(odd.coeffs.size, even.coeffs.size)
            worst_vec = max(worst_vec,
                            float(np.max(np.abs(odd.coeffs[:T] - even.coeffs[:T]))))
    assert worst_vec <= 1e-12

    rng = np.random.default_rng(71)
    pts = rng.standard_normal((100, 2))
    pts *= (rng.uniform(0, 1, 100) ** 0.5 / np.linalg.norm(pts, axis=1))[:, None]
    e1 = np.zeros(4, dtype=complex)
    e1[1] = 1.0
    worst_field = 0.0
    for k in range(3):
        for N in range(3):
            psi_odd = make_cpswf(2 * N + 1, k, m, c)
            psi_even = make_cpswf(2 * N, k + 1, m, c)
            vo = eval_field_coeffs(psi_odd, 1, pts)
            ve = eval_field_coeffs(psi_even, 1, pts)
            from cliffordprolate.algebra import mul_coeffs
            lhs = vo
            rhs = -mul_coeffs(m, np.broadcast_to(e1, ve.shape), ve)
            worst_field = max(worst_field, float(np.max(np.abs(lhs - rhs))))
    assert worst_field <= 1e-10
    report(7, "2d structural identity",
           f"coefficient dev {worst_vec:.2e} <= 1e-12, "
           f"field dev {worst_field:.2e} <= 1e-10")


def _accumulation_case(m, c, tol_abs):
    K = N = 8
    r = np.linspace(0.0, 0.8, 33)
    t = r ** 2
    lim = limit_value(m, c)
    values = partial_sum(m, c, K, N, t).values
    deficit = float(np.max(np.abs(values - lim)))
    # monotone in K and never exceeding the limit
    prev = np.full_like(t, -np.inf)
    for KK in range(K + 1):
        vals = partial_sum(m, c, KK, N, t).values
        assert np.all(vals >= prev - 1e-12), "not monotone in K"
        assert np.all(vals <= lim + 1e-9), "exceeds the limit"
        prev = vals
    assert deficit <= tol_abs, f"max |sum - limit| = {deficit:.3e} > {tol_abs}"
    return deficit


def test_c08_accumulation_m2_c1():
    deficit = _accumulation_case(2, 1.0, 1e-3)
    report(8, "accumulation m=2 c=1", f"max gap {deficit:.2e} <= 1e-3")


@pytest.mark.xfail(
    strict=True,
    reason="at c = 2 the truncation K = N = 8 is mathematically insufficient "
    "for r up to 0.8: the k-sum needs roughly k > 2 pi c r ~ 10 terms before "
    "its terms start decaying, and the measured gap at r = 0.8 is 5.1e-1.  "
    "The identity itself is correct: the same sum converges to the limit "
    "below 1e-3 by K = N = 14 (checked in the companion test), and every "
    "lambda entering the sum is verified against the operator to 1e-12.")
def test_c08_accumulation_m2_c2():
    deficit = _accumulation_case(2, 2.0, 1e-3)
    report(8, "accumulation m=2 c=2", f"max gap {deficit:.2e} <= 1e-3")


def test_c08_accumulation_m2_c2_converges_with_larger_truncation():
    # companion to the expected failure above: the same identity does hold
    # at c = 2 once the truncation covers the concentration band
    r = np.linspace(0.0, 0.8, 17)
    lim = limit_value(2, 2.0)
    vals = partial_sum(2, 2.0, 14, 14, r ** 2).values
    deficit = float(np.max(np.abs(vals - lim)))
    assert deficit <= 1e-3
    report(8, "accumulation m=2 c=2 at K=N=14", f"max gap {deficit:.2e} <= 1e-3")


def test_c08_accumulation_m3_c1():
    deficit = _accumulation_case(3, 1.0, 5e-3)
    report(8, "accumulation m=3 c=1", f"max gap {deficit:.2e} <= 5e-3")


def test_c09_oracle_agreement():
    rng = np.random.default_rng(91)
    c = 1.3
    worst = 0.0
    # closed-form ball kernel K_c against 2D quadrature
    for _ in range(10):
        x = rng.standard_normal(2)
        x *= rng.uniform(0.05, 0.95) / np.linalg.norm(x)
        ref = brute_Kc(x, c).real
        worst = max(worst, abs(kernel_Kc(x, c, 2) - ref) / abs(ref))
    # Hankel reduction of G_c against 2D quadrature of the full integral
    for n, k in [(0, 0), (1, 1)]:
        psi = make_cpswf(n, k, 2, c)
        pts = rng.standard_normal((10, 2))
        radii = np.sort(rng.uniform(0.1, 0.95, 10))
        pts = pts / np.linalg.norm(pts, axis=1)[:, None] * radii[:, None]
        prof = apply_Gc(psi, radii)
        ref = brute_Gc(psi, 1, pts)
        y = basis(2, k).elements[0]
        for j in range(10):
            ang = y.evaluate_coeffs(pts[j])
            if psi.parity == "odd":
                from cliffordprolate.algebra import embed_coeffs, mul_coeffs
                ang = mul_coeffs(2, embed_coeffs(2, pts[j]), ang)
            want = prof.values[j] * ang
            scale = np.max(np.abs(ref[j]))
            worst = max(worst, float(np.max(np.abs(want - ref[j])) / scale))
    # M_c closed form against quadrature of its defining integral
    for _ in range(10):
        r, s = rng.uniform(0.05, 0.95, 2)
        ref = brute_Mc(r, s, c, 1, 2)
        worst = max(worst, abs(Mc_kernel(r, s, c, 1, 2) - ref) / max(abs(ref), 1e-3))
    assert worst <= 1e-7
    report(9, "oracle agreement", f"max relative deviation {worst:.2e} <= 1e-7")


def _zeros_of_radial(psi, samples=4000):
    t = np.linspace(1e-9, 1.0, samples)
    v = psi.radial_poly_values(t)
    roots = []
    for j in range(samples - 1):
        if v[j] == 0.0:
            roots.append(t[j])
        elif v[j] * v[j + 1] < 0:
            from scipy.optimize import brentq
            roots.append(brentq(lambda tt: psi.radial_poly_values(tt)[0],
                                t[j], t[j + 1]))
    return np.array(roots)


def test_c10_interlacing_and_endpoint():
    min_endpoint = np.inf
    for m in (2, 3):
        for k in range(3):
            for parity_base in (0, 1):
                zero_sets = []
                for n in range(parity_base, 7, 2):
                    psi = make_cpswf(n, k, m, 1.0)
                    endpoint = abs(psi.radial_poly_values(1.0)[0])
                    min_endpoint = min(min_endpoint, endpoint)
                    assert endpoint > 1e-8, (m, k, n, endpoint)
                    zero_sets.append(_zeros_of_radial(psi))
                for lo, hi in zip(zero_sets[:-1], zero_sets[1:]):
                    assert hi.size == lo.size + 1, "zero count must grow by one"
                    for j in range(lo.size):
                        assert hi[j] < lo[j] < hi[j + 1], "zeros do not interlace"
    report(10, "interlacing and endpoint",
           f"zeros interlace; min |R(1)| = {min_endpoint:.2e} > 1e-8")
