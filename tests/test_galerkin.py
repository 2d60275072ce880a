"""Galerkin matrices: entries, shift identity, spectra, converged eigenpairs."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cliffordprolate.galerkin import (
    _BISECT_TOL,
    ConvergenceError,
    _first_truncation,
    as_odd,
    build,
    solve_block,
    solve_radial,
)
from cliffordprolate.legendre import c0_eigenvalue

from oracles import (
    build_odd,
    build_parity,
    dense_order,
    dense_tridiag,
    galerkin_entries_mp,
    jacobi_eigenvalues,
    smallc_curvature,
    smallest_certified_truncation,
)


def test_even_entries_scalar_recompute():
    k, m, c, T = 2, 3, 1.3, 12
    mat = build(k, m, c, T)
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
    mat = build(0, 2, 1.0, 4)
    w = 4 * math.pi ** 2
    assert abs(mat.diag[0] - w * 0.5) < 1e-12 * w
    assert np.all(np.isfinite(mat.diag))


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_shift_identity_exact(k, m, c):
    T = 64
    odd = build_odd(k, m, c, T)
    even = build(k + 1, m, c, T)
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
        mat = build_parity(parity, k, m, 0.0, 20)
        assert np.max(np.abs(mat.offdiag)) == 0.0
        chis = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True)
        for N in range(13):
            n = 2 * N if parity == "even" else 2 * N + 1
            assert abs(chis[N] - c0_eigenvalue(n, m, k)) <= 1e-12 * max(
                1, c0_eigenvalue(n, m, k))


def test_eigensolver_against_jacobi_oracle():
    mat = build(1, 3, 1.5, 50)
    lap = eigh_tridiagonal(mat.diag, mat.offdiag, eigvals_only=True)
    oracle = jacobi_eigenvalues(dense_tridiag(mat.diag, mat.offdiag))
    assert np.max(np.abs(lap - oracle) / (1 + np.abs(oracle))) < 1e-11


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_solve_radial_residual_and_sign(parity):
    pair = solve_radial(parity, 1, 2, 2.0, 3, 1e-12)
    mat = build_parity(parity, 1, 2, 2.0, pair.truncation)
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
    one = build(0, 2, 1.0, 4)
    zero = build(0, 2, 0.0, 4)
    assert abs(b - (one.diag[1] - zero.diag[1]) / (4 * math.pi ** 2)) < 1e-14


def test_validation_errors():
    with pytest.raises(ValueError):
        build(0, 2, 1.0, 1)
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
        solve_radial("even", 0, 2, 1.0, 4100)


@pytest.mark.parametrize("N, c", [pytest.param(3000, 1000.0, id="3000"),
                                  pytest.param(0, 4000.0, id="c4000"),
                                  pytest.param(0, 1e200, id="c1e200"),
                                  pytest.param(0, 1.7e308, id="c1.7e308")])
def test_truncation_cap_is_checked_before_any_eigensolve(monkeypatch, N, c):
    import cliffordprolate.galerkin as galerkin

    assert galerkin._first_truncation(0, 2, c, N)[0] > galerkin.T_CAP

    def no_solve(*a, **kw):
        raise AssertionError("eigensolve started past the truncation cap")

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", no_solve)
    with pytest.raises(ConvergenceError):
        solve_radial("even", 0, 2, c, N)


def test_first_truncation_below_the_cap_needs_no_room_to_double():
    # T0 = 4,005 cannot double within the cap of 4,096, and certifies as it is
    from cliffordprolate.galerkin import T_CAP

    assert T_CAP // 2 < _T0(0, 2, 3600.0, 0) == 4005 <= T_CAP
    assert solve_block("even", 0, 2, 3600.0, 0).truncation == 4005


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


def _T0(k, m, c, N_max):
    """solve_block's first truncation for the even block (k, m, c)."""
    return _first_truncation(k, m, c, N_max)[0]


def _count_eigensolves(monkeypatch, alter=None):
    """Count solve_block's eigensolves; alter(call, chi, vecs) may rig a result."""
    import cliffordprolate.galerkin as galerkin

    calls = []

    def counting(*a, **kw):
        chi, vecs = eigh_tridiagonal(*a, select="i", **kw)
        calls.append(len(a[0]))
        return alter(len(calls), chi, vecs) if alter else (chi, vecs)

    monkeypatch.setattr(galerkin, "eigh_tridiagonal", counting)
    return calls


def _solved_at(parity, k, m, c, N_max, T):
    """Orders 0..N_max of the T x T matrix, solved as solve_block solves it."""
    mat = build(k + (parity == "odd"), m, c, T)
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
    assert calls == [T] and T == _T0(k + (parity == "odd"), m, c, N_max)
    chi, vecs = _solved_at(parity, k, m, c, N_max, 2 * T)
    assert np.all(np.abs(block.chi - chi) <= 1e-13 * np.abs(chi))
    padded = np.vstack((block.coeffs, np.zeros((T, N_max + 1))))
    assert np.max(np.abs(padded - vecs)) <= 1e-12


# The smallest truncation that certifies at tol = 1e-16, for m = 2, 3, 5,
# keyed by (c, N_max) and then k: oracles.smallest_certified_truncation on
# the grid _first_truncation was fitted on.  Blocks where no T up to
# 2 T_CAP certifies, at c = 12 with k = 100, N_max = 5 and at k >= 60 from
# c = 700, are left out.
T_EPS = {
    (0.5, 0): {0: (12, 12, 12), 20: (10, 10, 10), 60: (9, 9, 9), 100: (9, 9, 9)},
    (0.5, 5): {0: (15, 15, 15), 20: (14, 14, 14), 60: (14, 14, 14), 100: (13, 13, 13)},
    (0.5, 15): {0: (23, 23, 23), 20: (24, 24, 24), 60: (23, 23, 23)},
    (0.5, 30): {0: (38, 38, 38), 20: (38, 38, 38), 60: (38, 38, 38)},
    (1.0, 0): {0: (15, 15, 15), 20: (13, 13, 13), 60: (12, 12, 12), 100: (11, 11, 11)},
    (1.0, 5): {0: (17, 17, 17), 20: (17, 17, 17), 60: (16, 16, 16), 100: (15, 15, 15)},
    (1.0, 15): {0: (25, 25, 25), 20: (26, 26, 26), 60: (25, 25, 25)},
    (1.0, 30): {0: (39, 39, 39), 20: (40, 40, 40), 60: (40, 40, 40)},
    (2.0, 0): {0: (19, 19, 19), 20: (18, 18, 18), 60: (16, 16, 16), 100: (14, 14, 14)},
    (2.0, 5): {0: (21, 22, 22), 20: (21, 21, 21), 60: (20, 20, 20), 100: (19, 19, 19)},
    (2.0, 15): {0: (29, 29, 29), 20: (29, 29, 29), 60: (28, 28, 28)},
    (2.0, 30): {0: (42, 42, 42), 20: (42, 42, 42), 60: (42, 42, 42)},
    (4.0, 0): {0: (25, 25, 26), 20: (27, 27, 27), 60: (23, 23, 23), 100: (21, 21, 21)},
    (4.0, 5): {0: (29, 29, 29), 20: (29, 29, 29), 60: (26, 26, 26), 100: (25, 25, 25)},
    (4.0, 15): {0: (35, 35, 35), 20: (35, 35, 35), 60: (34, 34, 34)},
    (4.0, 30): {0: (47, 47, 47), 20: (47, 47, 47), 60: (47, 47, 47)},
    (8.0, 0): {0: (34, 34, 35), 20: (40, 40, 40), 60: (37, 37, 37), 100: (33, 33, 33)},
    (8.0, 5): {0: (40, 40, 41), 20: (42, 42, 42), 60: (39, 39, 39), 100: (36, 36, 36)},
    (8.0, 15): {0: (47, 47, 47), 20: (46, 46, 46), 60: (45, 45, 45)},
    (8.0, 30): {0: (56, 56, 56), 20: (56, 56, 56), 60: (56, 56, 56)},
    (12.0, 0): {0: (40, 41, 42), 20: (50, 50, 50), 60: (50, 50, 50), 100: (45, 45, 45)},
    (12.0, 5): {0: (48, 49, 49), 20: (53, 54, 54), 60: (51, 51, 51)},
    (12.0, 15): {0: (58, 58, 58), 20: (58, 58, 58), 60: (56, 56, 56)},
    (12.0, 30): {0: (66, 66, 66), 20: (66, 66, 66), 60: (65, 65, 65)},
    (20.0, 0): {0: (51, 52, 54), 20: (66, 67, 67), 60: (72, 72, 72), 100: (69, 69, 69)},
    (20.0, 5): {0: (62, 62, 63), 20: (71, 71, 71), 60: (74, 74, 74), 100: (70, 70, 70)},
    (20.0, 15): {0: (75, 75, 75), 20: (79, 79, 79), 60: (78, 78, 77)},
    (20.0, 30): {0: (87, 87, 87), 20: (87, 86, 86), 60: (84, 84, 84)},
    (35.0, 0): {0: (67, 68, 71), 20: (90, 90, 91), 60: (103, 103, 103), 100: (106, 106, 106)},
    (35.0, 5): {0: (81, 82, 83), 20: (96, 96, 97), 60: (107, 107, 107), 100: (109, 109, 109)},
    (35.0, 15): {0: (98, 99, 99), 20: (107, 108, 108), 60: (114, 114, 114)},
    (35.0, 30): {0: (117, 117, 117), 20: (121, 121, 121), 60: (123, 123, 123)},
    (50.0, 0): {0: (79, 81, 84), 20: (108, 109, 110), 60: (128, 128, 128), 100: (135, 135, 136)},
    (50.0, 5): {0: (96, 97, 99), 20: (116, 117, 117), 60: (133, 133, 133), 100: (139, 139, 139)},
    (50.0, 15): {0: (117, 118, 119), 20: (130, 130, 131), 60: (142, 142, 142)},
    (50.0, 30): {0: (140, 140, 141), 20: (147, 147, 148), 60: (154, 154, 154)},
    (100.0, 0): {0: (116, 116, 118), 20: (156, 157, 158), 60: (191, 191, 192), 100: (210, 210, 211)},
    (100.0, 5): {0: (135, 136, 139), 20: (168, 168, 169), 60: (199, 199, 200), 100: (216, 216, 217)},
    (100.0, 15): {0: (165, 166, 168), 20: (188, 188, 189), 60: (213, 213, 214)},
    (100.0, 30): {0: (198, 199, 200), 20: (213, 214, 214), 60: (232, 232, 233)},
    (200.0, 0): {0: (227, 227, 228), 20: (242, 243, 243), 60: (281, 282, 283), 100: (316, 317, 317)},
    (200.0, 5): {0: (240, 240, 241), 20: (254, 255, 255), 60: (292, 293, 294), 100: (325, 325, 326)},
    (200.0, 15): {0: (265, 265, 266), 20: (277, 277, 278), 60: (313, 313, 314)},
    (200.0, 30): {0: (298, 298, 298), 20: (307, 307, 308), 60: (342, 342, 343)},
    (400.0, 0): {0: (449, 449, 450), 20: (466, 466, 467), 60: (494, 495, 495), 100: (518, 518, 519)},
    (400.0, 5): {0: (463, 463, 464), 20: (479, 479, 480), 60: (506, 506, 507), 100: (529, 529, 529)},
    (400.0, 15): {0: (489, 489, 490), 20: (504, 504, 505), 60: (529, 529, 530)},
    (400.0, 30): {0: (526, 526, 527), 20: (539, 539, 539), 60: (561, 561, 562)},
    (700.0, 0): {0: (782, 783, 783), 20: (800, 800, 801), 60: (831, 831, 832)},
    (700.0, 5): {0: (796, 796, 797), 20: (813, 813, 814), 60: (844, 844, 845)},
    (700.0, 15): {0: (823, 824, 824), 20: (839, 840, 840), 60: (868, 869, 869)},
    (700.0, 30): {0: (862, 862, 863), 20: (877, 877, 878)},
    (1000.0, 0): {0: (1115, 1116, 1117), 20: (1133, 1133, 1134), 60: (1166, 1166, 1167)},
    (1000.0, 5): {0: (1129, 1130, 1131), 20: (1147, 1147, 1148)},
    (1000.0, 15): {0: (1157, 1157, 1158), 20: (1173, 1174, 1175)},
    (1000.0, 30): {0: (1197, 1197, 1198), 20: (1212, 1213, 1213)},
    (1500.0, 0): {0: (1671, 1671, 1672), 20: (1689, 1689, 1690)},
    (1500.0, 5): {0: (1685, 1685, 1686), 20: (1702, 1703, 1704)},
    (1500.0, 15): {0: (1712, 1713, 1714), 20: (1730, 1730, 1731)},
    (1500.0, 30): {0: (1753, 1754, 1754), 20: (1770, 1770, 1771)},
    (2000.0, 0): {0: (2226, 2227, 2227), 20: (2244, 2245, 2245)},
    (2000.0, 5): {0: (2240, 2241, 2242), 20: (2258, 2258, 2259)},
    (2000.0, 15): {0: (2268, 2268, 2269), 20: (2285, 2286, 2287)},
    (2000.0, 30): {0: (2309, 2310, 2310), 20: (2326, 2326, 2327)},
}
_M_GRID = (2, 3, 5)


def test_first_truncation_is_within_15_percent_of_the_smallest_certified():
    for (c, N_max), row in T_EPS.items():
        for k, smallest in row.items():
            for m, T_eps in zip(_M_GRID, smallest):
                T0 = _T0(k, m, c, N_max)
                assert T_eps <= T0 <= 1.15 * T_eps + 2, (k, m, c, N_max, T0, T_eps)


@pytest.mark.parametrize("c", [4.0, 100.0])
def test_smallest_certified_truncation_table_is_the_certificates(c):
    # one column of the table, m = 3, found again by bisection
    for N_max in (0, 5, 15, 30):
        for k, smallest in T_EPS[c, N_max].items():
            assert smallest_certified_truncation(k, 3, c, N_max) == smallest[1]


@pytest.mark.parametrize("c", sorted({c for c, _ in T_EPS if c <= 400}))
def test_grid_certifies_at_its_first_truncation_at_eps(c):
    for (cc, N_max), row in T_EPS.items():
        if cc == c:
            for k in row:
                for m in _M_GRID:
                    block = solve_block("even", k, m, c, N_max, tol=1e-16)
                    assert block.truncation == _T0(k, m, c, N_max)


@pytest.mark.parametrize("m", _M_GRID)
@pytest.mark.parametrize("c", [1000.0, 2000.0])
def test_large_c_certifies_at_its_first_truncation_at_eps(c, m):
    block = solve_block("even", 0, m, c, 0, tol=1e-16)
    assert block.truncation == _T0(0, m, c, 0) < 1.15 * c


def test_accumulate_blocks_match_a_solve_at_twice_the_truncation():
    # the 32 blocks of partial_sum(3, 4, K=N=30): chi within 4 ulps and the
    # coefficients within 4 eps of the same orders solved at 2 T0
    eps = np.finfo(float).eps
    for k in range(32):
        block = solve_block("even", k, 3, 4.0, 30)
        T = block.truncation
        chi, vecs = _solved_at("even", k, 3, 4.0, 30, 2 * T)
        assert np.all(np.abs(block.chi - chi) <= 4 * np.spacing(chi))
        padded = np.vstack((block.coeffs, np.zeros((T, 31))))
        assert np.max(np.abs(padded - vecs)) <= 4 * eps


@pytest.mark.parametrize("tol", [1e-40, 1e-60])
def test_tiny_tol_certifies_as_eps(monkeypatch, tol):
    # the last coefficient is about 1e-21 at T0 = 33, and the eigensolver's
    # vector entries bottom out near 1e-51..1e-60, so a tol below eps would
    # only double: it takes the eps certificate of the tol = 1e-16 block
    m, c, k, N_max = 3, 4.0, 0, 7
    ref = solve_block("even", k, m, c, N_max, tol=1e-16)
    calls = _count_eigensolves(monkeypatch)
    block = solve_block("even", k, m, c, N_max, tol=tol)
    assert calls == [_T0(k, m, c, N_max)]
    assert np.array_equal(block.chi, ref.chi) and np.array_equal(block.coeffs, ref.coeffs)


def _large_tail_first(call, chi, vecs):
    if call == 1:  # the last row of order 0 holds more than tol
        vecs = vecs.copy()
        vecs[-1, 0] = 1e-6
    return chi, vecs


def test_large_tail_doubles(monkeypatch):
    k, m, c, N_max = 0, 3, 4.0, 7
    calls = _count_eigensolves(monkeypatch, _large_tail_first)
    block = solve_block("even", k, m, c, N_max, tol=1e-10)
    T0 = _T0(k, m, c, N_max)
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
    T0 = _T0(k + (parity == "odd"), m, c, N_max)
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


@pytest.mark.parametrize("parity, k, m, c, N_max, tol", [
    ("even", 30, 2, 20.0, 0, None), ("odd", 29, 2, 20.0, 0, None),
    ("even", 50, 5, 20.0, 5, 1e-14), ("odd", 40, 3, 30.0, 2, None)])
def test_doubled_block_weights_are_a_prefix_of_the_whole_ladder(
        monkeypatch, parity, k, m, c, N_max, tol):
    # the tail weights are built per truncation; they equal, bit for bit,
    # the prefix of one table over the largest size of the ladder, so a
    # block that has to double certifies where it did with that table.
    # These blocks certify at T0; a large tail at T0 makes them double.
    import cliffordprolate.galerkin as galerkin

    reaches = []

    def recording(*args):
        reaches.append(args[6])
        return certified(*args)

    certified = galerkin._certified
    monkeypatch.setattr(galerkin, "_certified", recording)
    _count_eigensolves(monkeypatch, _large_tail_first)
    block = solve_block(parity, k, m, c, N_max, tol)
    kk, h = k + (parity == "odd"), m / 2
    T0 = _T0(kk, m, c, N_max)
    assert len(reaches) == 2 and block.truncation == 2 * T0
    i = np.arange(T0 * 2 ** int(math.log2(galerkin.T_CAP // T0)) - 1)
    whole = np.concatenate(([0.0], np.cumsum(np.log(
        (i + kk + h) / (i + 1) * np.sqrt((4 * i + 2 * kk + m + 4) / (4 * i + 2 * kk + m))))))
    for T, reach in zip((T0, 2 * T0), reaches):
        assert np.array_equal(reach, np.exp(whole[:T] - whole[T - 1]))
    chi, vecs = _solved_at(parity, k, m, c, N_max, 2 * T0)
    assert np.array_equal(block.chi, chi) and np.array_equal(block.coeffs, vecs)


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
                    T0 = _T0(k, m, c, N)
                    for T in (T0, 2 * T0):
                        mat = build(k, m, c, T)
                        kw = dict(select_range=(0, N + 1), tol=_BISECT_TOL)
                        chi, vecs = galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, **kw)
                        ref_chi, ref_vecs = eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                                             **kw)
                        assert np.array_equal(chi, ref_chi) and np.array_equal(vecs, ref_vecs)
    lapack = special.scipy_extension("linalg._flapack", ("dstebz", "dstein"),
                                     "scipy.linalg.lapack")
    assert lapack.__name__ == {"extension": "scipy.linalg._flapack",
                               "fallback": "scipy.linalg.lapack"}[path]


def test_eigensolve_rejects_non_finite_or_misshapen_entries():
    import cliffordprolate.galerkin as galerkin

    mat = build(0, 2, 1.0, 20)
    diag = mat.diag.copy()
    diag[3] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        galerkin.eigh_tridiagonal(diag, mat.offdiag, select_range=(0, 2))
    for d, e in [(mat.diag, mat.diag), (mat.diag[:, None], mat.offdiag)]:
        with pytest.raises(ValueError, match="need d of shape"):
            galerkin.eigh_tridiagonal(d, e, select_range=(0, 2))


def test_lapack_info_is_an_error(monkeypatch):
    import types

    import cliffordprolate.galerkin as galerkin

    mat = build(0, 2, 1.0, 20)
    # a real info < 0: dstebz rejects an index range past the matrix
    with pytest.raises(ValueError, match="illegal value in argument 7 of LAPACK dstebz"):
        galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, select_range=(0, 20))
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
            galerkin.eigh_tridiagonal(mat.diag, mat.offdiag, select_range=(0, 2))
        # a solve never turns a LAPACK failure into a result
        with pytest.raises(error, match=f"LAPACK {routine}"):
            solve_block("even", 0, 2, 1.0, 1)
