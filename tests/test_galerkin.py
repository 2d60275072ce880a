"""Galerkin matrices: entries, shift identity, spectra, converged eigenpairs."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cliffordprolate.galerkin import (
    _BISECT_TOL,
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


@pytest.mark.parametrize("N, c", [pytest.param(3000, 1.0, id="3000"),
                                  pytest.param(0, 2100.0, id="c2100")])
def test_truncation_cap_is_checked_before_any_eigensolve(monkeypatch, N, c):
    # T0 = 2N + 16 + ceil(2c) passes the cap
    import cliffordprolate.galerkin as galerkin

    def no_solve(*a, **kw):
        raise AssertionError("eigensolve started past the truncation cap")

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", no_solve)
    with pytest.raises(ConvergenceError):
        solve_radial("even", 0, 2, c, N)


def test_first_truncation_below_the_cap_needs_no_room_to_double():
    # T0 = 4,016 cannot double within the cap of 4,096, and certifies as it is
    assert solve_block("even", 0, 2, 2000.0, 0).truncation == 4016


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


def _count_eigensolves(monkeypatch, alter=None):
    """Count solve_block's eigensolves; alter(call, chi, vecs) may rig a result."""
    import cliffordprolate.galerkin as galerkin

    calls = []

    def counting(*a, **kw):
        chi, vecs = eigh_tridiagonal(*a, **kw)
        calls.append(len(a[0]))
        return alter(len(calls), chi, vecs) if alter else (chi, vecs)

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", counting)
    return calls


def _solved_at(parity, k, m, c, N_max, T):
    """Orders 0..N_max of the T x T matrix, solved as solve_block solves it."""
    mat = build("even", k + (parity == "odd"), m, c, T)
    chi, vecs = eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                 select_range=(0, N_max + 1), tol=_BISECT_TOL)
    chi, vecs = chi[:-1], vecs[:, :-1]
    vecs = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(N_max + 1)])
    return chi + (4 * k + 2 * m if parity == "odd" else 0), vecs


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [0.5, 4.0, 20.0, 50.0])
@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("N_max", [0, 7])
def test_block_is_certified_at_its_first_truncation(monkeypatch, m, c, k, parity, N_max):
    calls = _count_eigensolves(monkeypatch)
    block = solve_block(parity, k, m, c, N_max)
    T = block.truncation
    assert calls == [T] and T == 2 * N_max + 16 + math.ceil(2 * c)
    chi, vecs = _solved_at(parity, k, m, c, N_max, 2 * T)
    assert np.all(np.abs(block.chi - chi) <= 1e-13 * np.abs(chi))
    padded = np.vstack((block.coeffs, np.zeros((T, N_max + 1))))
    assert np.max(np.abs(padded - vecs)) <= 1e-12


@pytest.mark.parametrize("tol", [1e-40, 1e-60])
def test_tiny_tol_certifies_as_eps(monkeypatch, tol):
    # the last coefficient is about 1e-28 at T0 = 38, and the eigensolver's
    # vector entries bottom out near 1e-51..1e-60, so a tol below eps would
    # only double: it takes the eps certificate of the tol = 1e-16 block
    m, c, k, N_max = 3, 4.0, 0, 7
    ref = solve_block("even", k, m, c, N_max, tol=1e-16)
    calls = _count_eigensolves(monkeypatch)
    block = solve_block("even", k, m, c, N_max, tol=tol)
    assert calls == [2 * N_max + 16 + math.ceil(2 * c)]
    assert np.array_equal(block.chi, ref.chi) and np.array_equal(block.coeffs, ref.coeffs)


def test_large_tail_doubles(monkeypatch):
    def large_tail_first(call, chi, vecs):
        if call == 1:  # the last row of order 0 holds more than tol
            vecs = vecs.copy()
            vecs[-1, 0] = 1e-6
        return chi, vecs

    k, m, c, N_max = 0, 3, 4.0, 7
    calls = _count_eigensolves(monkeypatch, large_tail_first)
    block = solve_block("even", k, m, c, N_max, tol=1e-10)
    T0 = 2 * N_max + 16 + math.ceil(2 * c)
    assert calls == [T0, 2 * T0] and block.truncation == 2 * T0
    chi, vecs = _solved_at("even", k, m, c, N_max, 2 * T0)
    assert np.array_equal(block.chi, chi) and np.array_equal(block.coeffs, vecs)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_overlapping_intervals_double(monkeypatch, parity):
    def overlap_first(call, chi, vecs):
        if call == 1:  # the gap above the last order closes
            chi = chi.copy()
            chi[-1] = chi[-2]
        return chi, vecs

    k, m, c, N_max = 1, 3, 2.0, 3
    calls = _count_eigensolves(monkeypatch, overlap_first)
    block = solve_block(parity, k, m, c, N_max)
    T0 = 2 * N_max + 16 + math.ceil(2 * c)
    assert calls == [T0, 2 * T0] and block.truncation == 2 * T0
    chi, vecs = _solved_at(parity, k, m, c, N_max, 2 * T0)
    assert np.array_equal(block.chi, chi) and np.array_equal(block.coeffs, vecs)


@pytest.mark.parametrize("b,g,certified", [(2.0, 5.0, True), (3.0, 4.6, False)])
def test_certificate_counts_an_eigenvalue_pulled_in_from_the_tail(b, g, certified):
    # M_T = diag(0, 10), N_max = 0, coupled by b to one tail row of value g:
    # the intervals [0] and [10 - b, 10 + b] are disjoint either way, but at
    # b = 3 the coupled tail row brings an eigenvalue below theta
    from cliffordprolate.galerkin import _certified

    diag, off = np.array([0.0, 10.0]), np.array([0.0])
    ok = _certified(diag, off, b, g, diag.copy(), np.eye(2), np.ones(2), 1.0)
    theta = (0.0 + 10.0 - b) / 2
    full = np.linalg.eigvalsh([[0, 0, 0], [0, 10, b], [0, b, g]])
    assert ok == certified
    assert (np.sum(full < theta) == 1) == certified


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [0.5, 8.0])
def test_tail_weights_never_exceed_one(monkeypatch, m, c):
    # reach_i = p_i(0) / p_(T-1)(0) <= 1, so the weighted tail check of
    # _certified bounds the last coefficient by max(tol, eps) on its own
    import cliffordprolate.galerkin as galerkin

    reaches = []

    def recording(*args):
        reaches.append(args[6])
        return certified(*args)

    certified = galerkin._certified
    monkeypatch.setattr(galerkin, "_certified", recording)
    for parity in ("even", "odd"):
        for k in (0, 5, 30):
            solve_block(parity, k, m, c, 7)
    assert len(reaches) == 6
    for reach in reaches:
        assert reach[-1] == 1.0 and np.all(reach <= 1.0) and np.all(np.diff(reach) >= 0)


@pytest.mark.parametrize("path", ["extension", "fallback"])
def test_eigensolve_is_scipys_bit_for_bit(monkeypatch, fresh_loader, path):
    # the same LAPACK calls as scipy.linalg.eigh_tridiagonal's select="i"
    # path, through the compiled module loaded from its file and through the
    # public scipy.linalg.lapack
    import sys

    import cliffordprolate.galerkin as galerkin
    import cliffordprolate.special as special

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    if path == "fallback":
        monkeypatch.setattr(special, "_load_extension", lambda name: None)
    for c in (0.5, 4.0, 50.0):
        for k in (0, 10):
            for m in (2, 5):
                for N in (0, 15):
                    T0 = 2 * N + 16 + math.ceil(2 * c)
                    for T in (T0, 2 * T0):
                        mat = build_even(k, m, c, T)
                        kw = dict(select="i", select_range=(0, N + 1), tol=_BISECT_TOL)
                        chi, vecs = galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, **kw)
                        ref_chi, ref_vecs = eigh_tridiagonal(mat.diag, mat.offdiag, **kw)
                        assert np.array_equal(chi, ref_chi) and np.array_equal(vecs, ref_vecs)
    lapack = special.scipy_extension("linalg._flapack", ("dstebz", "dstein"),
                                     "scipy.linalg.lapack")
    assert lapack.__name__ == {"extension": "scipy.linalg._flapack",
                               "fallback": "scipy.linalg.lapack"}[path]


def test_eigensolve_rejects_non_finite_or_misshapen_entries():
    import cliffordprolate.galerkin as galerkin

    mat = build_even(0, 2, 1.0, 20)
    diag = mat.diag.copy()
    diag[3] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        galerkin.eigh_tridiagonal(diag, mat.offdiag, select="i", select_range=(0, 2))
    for d, e in [(mat.diag, mat.diag), (mat.diag[:, None], mat.offdiag)]:
        with pytest.raises(ValueError, match="need d of shape"):
            galerkin.eigh_tridiagonal(d, e, select="i", select_range=(0, 2))


def test_lapack_info_is_an_error(monkeypatch):
    import types

    import cliffordprolate.galerkin as galerkin

    mat = build_even(0, 2, 1.0, 20)
    # a real info < 0: dstebz rejects an index range past the matrix
    with pytest.raises(ValueError, match="illegal value in argument 7 of LAPACK dstebz"):
        galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, select="i", select_range=(0, 20))
    lapack = galerkin.scipy_extension("linalg._flapack", ("dstebz", "dstein"),
                                      "scipy.linalg.lapack")

    def fake(dstebz_info, dstein_info):
        def dstebz(*args):
            count, w, iblock, isplit, _ = lapack.dstebz(*args)
            return count, w, iblock, isplit, dstebz_info

        def dstein(*args):
            return lapack.dstein(*args)[0], dstein_info

        return types.SimpleNamespace(dstebz=dstebz, dstein=dstein)

    for info, error, routine in [((-3, 0), ValueError, "dstebz"), ((0, -5), ValueError, "dstein"),
                                 ((1, 0), ConvergenceError, "dstebz"),
                                 ((0, 2), ConvergenceError, "dstein")]:
        monkeypatch.setattr(galerkin, "scipy_extension", lambda *a, info=info: fake(*info))
        with pytest.raises(error, match=f"LAPACK {routine}"):
            galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, select="i", select_range=(0, 2))
        # a solve never turns a LAPACK failure into a result
        with pytest.raises(error, match=f"LAPACK {routine}"):
            solve_block("even", 0, 2, 1.0, 1)
