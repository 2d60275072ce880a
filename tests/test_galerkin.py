"""Galerkin matrices: entries, shift identity, spectra, converged eigenpairs."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cliffordprolate.galerkin import (
    ConvergenceError,
    build,
    build_even,
    build_odd,
    as_odd,
    solve_block,
    solve_radial,
)
from cliffordprolate.legendre import c0_eigenvalue

from oracles import (
    dense_order,
    dense_tridiag,
    galerkin_entries_mp,
    jacobi_eigenvalues,
    smallc_curvature,
)


def test_even_entries_scalar_recompute():
    k, m, c, T = 2, 3, 1.3, 12
    mat = build_even(k, m, c, T)
    h = m / 2
    w = 4 * math.pi ** 2 * c ** 2
    for i in range(T):
        sub = i ** 2 / (k + 2 * i + h - 1) if i > 0 else 0.0
        d = 4 * i * (k + i + h) + w / (k + 2 * i + h) * (
            (k + i + h) ** 2 / (k + 2 * i + h + 1) + sub)
        assert abs(mat.diag[i] - d) < 1e-12 * max(1, abs(d))
    for i in range(T - 1):
        off = -w * (i + 1) * (k + i + h) / (
            (k + 2 * i + h + 1) * math.sqrt((k + 2 * i + h + 2) * (k + 2 * i + h)))
        assert abs(mat.offdiag[i] - off) < 1e-12 * max(1, abs(off))


def test_even_k0_m2_first_diagonal():
    # the i = 0 sub-term with vanishing denominator is defined as 0
    mat = build_even(0, 2, 1.0, 4)
    w = 4 * math.pi ** 2
    assert abs(mat.diag[0] - w * 0.5) < 1e-12 * w
    assert np.all(np.isfinite(mat.diag))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_shift_identity_exact(k, m, c):
    T = 64
    odd = build_odd(k, m, c, T)
    even = build_even(k + 1, m, c, T)
    dev = max(np.max(np.abs(odd.diag - (even.diag + 4 * k + 2 * m))),
              np.max(np.abs(odd.offdiag - even.offdiag)))
    assert dev <= 1e-13


@pytest.mark.parametrize("k,m,c", [(0, 2, 1.0), (3, 3, 2.0), (1, 4, 0.7)])
def test_direct_odd_formulas_agree(k, m, c):
    T = 64
    odd = build_odd(k, m, c, T)
    with mp.workdps(30):
        diag, off = (np.array(v, dtype=float) for v in galerkin_entries_mp("odd", k, m, c, T))
    # independent formula evaluation agrees to a few ulp at this scale
    assert np.max(np.abs(odd.diag - diag)) < 2e-12 * max(1, np.max(np.abs(diag)))
    assert np.max(np.abs(odd.offdiag - off)) < 2e-12 * max(1, np.max(np.abs(off)))


@pytest.mark.parametrize("m,k", [(2, 0), (2, 2), (3, 1), (5, 0)])
def test_c0_spectrum_matches_closed_form(m, k):
    for parity in ("even", "odd"):
        mat = build(parity, k, m, 0.0, 20)
        assert np.max(np.abs(mat.offdiag)) == 0.0
        chis = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True)
        for N in range(13):
            n = 2 * N if parity == "even" else 2 * N + 1
            assert abs(chis[N] - c0_eigenvalue(n, m, k)) <= 1e-12 * max(
                1, c0_eigenvalue(n, m, k))


def test_eigensolver_against_jacobi_oracle():
    mat = build_even(1, 3, 1.5, 50)
    lap = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True)
    oracle = jacobi_eigenvalues(dense_tridiag(mat.diag, mat.offdiag))
    assert np.max(np.abs(lap - oracle) / (1 + np.abs(oracle))) < 1e-11


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_solve_radial_residual_and_sign(parity):
    pair = solve_radial(parity, 1, 2, 2.0, 3, 1e-12)
    mat = build(parity, 1, 2, 2.0, pair.truncation)
    res = dense_tridiag(mat.diag, mat.offdiag) @ pair.coeffs - pair.chi * pair.coeffs
    assert np.max(np.abs(res)) < 1e-9 * max(1, abs(pair.chi))
    assert abs(np.linalg.norm(pair.coeffs) - 1) < 1e-12
    assert pair.coeffs[np.argmax(np.abs(pair.coeffs))] > 0
    assert abs(pair.coeffs[-1]) <= 1e-12


def test_solve_radial_eigenvalues_increase_with_n():
    chis = [solve_radial("even", 0, 2, 1.0, N).chi for N in range(6)]
    assert np.all(np.diff(chis) > 0)


def test_smallc_curvature_is_diagonal_slope():
    b = smallc_curvature("even", 0, 2, 1)
    one = build_even(0, 2, 1.0, 4)
    zero = build_even(0, 2, 0.0, 4)
    assert abs(b - (one.diag[1] - zero.diag[1]) / (4 * math.pi ** 2)) < 1e-14


def test_validation_errors():
    with pytest.raises(ValueError):
        build("sideways", 0, 2, 1.0, 8)
    with pytest.raises(ValueError):
        build_even(0, 2, 1.0, 1)
    with pytest.raises(ValueError):
        solve_radial("even", -1, 2, 1.0, 0)
    with pytest.raises(ValueError):
        solve_radial("even", 0, 2, 1.0, 0, tol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_c_and_tol_are_named(bad):
    with pytest.raises(ValueError, match="^c must be finite"):
        solve_radial("even", 0, 2, bad, 0)
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        solve_radial("even", 0, 2, 1.0, 0, tol=bad)


def test_truncation_cap_raises():
    # an order this high needs a truncation beyond the hard cap
    with pytest.raises(ConvergenceError):
        solve_radial("even", 0, 2, 1.0, 3000)


@pytest.mark.parametrize("N", [3000, 1100])
def test_truncation_cap_is_checked_before_any_eigensolve(monkeypatch, N):
    # T0 = 2N + 18 either passes the cap or cannot double within it
    import cliffordprolate.galerkin as galerkin

    def no_solve(*a, **kw):
        raise AssertionError("eigensolve started past the truncation cap")

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", no_solve)
    with pytest.raises(ConvergenceError):
        solve_radial("even", 0, 2, 1.0, N)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [0.5, 4.0, 20.0])
@pytest.mark.parametrize("k", [0, 5])
def test_block_orders_match_one_order_dense_reference(m, c, k):
    # every order of a block against that order alone, solved densely
    # on the same truncated matrix
    from cliffordprolate.prolate import cpswf_blocks

    [(_, psis, _)] = cpswf_blocks(m, c, [k], 7)
    for psi in psis:
        chi, coeffs, lam = dense_order(psi.n, k, m, c, psi.pair.truncation)
        assert abs(psi.chi - chi) <= 1e-12 * abs(chi)
        assert np.max(np.abs(psi.coeffs - coeffs)) <= 1e-10
        assert abs(psi.lam - lam) <= 1e-10 * lam


def test_block_orders_are_single_order_solves():
    block = solve_block("even", 1, 3, 2.0, 4, 1e-12)
    assert [p.truncation for p in block] == [block[0].truncation] * 5
    assert np.all(np.diff([p.chi for p in block]) > 0)
    for N, pair in enumerate(block):
        one = solve_radial("even", 1, 3, 2.0, N, 1e-12)
        assert abs(pair.chi - one.chi) <= 1e-12 * pair.chi
        assert pair.coeffs[np.argmax(np.abs(pair.coeffs))] > 0
        assert abs(pair.coeffs[-1]) <= 1e-12


def test_odd_block_is_the_shifted_even_block():
    k, m, c = 2, 3, 1.5
    odd = solve_block("odd", k, m, c, 3)
    even_up = solve_block("even", k + 1, m, c, 3)
    for o, e, shifted in zip(odd, even_up, as_odd(even_up, k, m)):
        assert o.chi == shifted.chi == e.chi + 4 * k + 2 * m
        assert np.array_equal(o.coeffs, e.coeffs)
        assert o.truncation == e.truncation


def test_block_arrays_are_read_only():
    even = solve_block("even", 2, 3, 1.5, 3)
    odd = solve_block("odd", 1, 3, 1.5, 3)
    for block in (even, odd, as_odd(even, 1, 3)):
        assert block.chi.shape == (4,) and block.coeffs.shape == (block.truncation, 4)
        for a in (block.chi, block.coeffs, block[2].coeffs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
