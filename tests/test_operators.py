"""Operators G_c, QP_c and kernels against brute-force quadrature oracles."""

import dataclasses
import math

import numpy as np
import pytest

from cliffordprolate import operators
from cliffordprolate.galerkin import RadialEigenpair
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
    MAX_NODES,
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
    gauss_rule_unit_interval,
)

from oracles import (
    Mc_kernel,
    Q_mp,
    ball_gram,
    brute_Gc,
    brute_Kc,
    brute_Mc,
    brute_Q,
    brute_hankel,
    dual_orthogonality_check,
    profiles_together,
    verify_two_recurrences,
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


def test_rule_nodes_law():
    cs = np.arange(0.0, 3350.5, 0.5)
    nodes = np.array([operators.rule_nodes(c) for c in cs])
    assert np.all(nodes[cs <= 150] == 256) and np.all(nodes[cs > 150] > 256)
    assert np.all(np.diff(nodes) >= 0) and nodes.max() <= MAX_NODES
    for c in (3350.5, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"verify's quadrature takes c <= 3350 \("):
            operators.rule_nodes(c)


# The grid that fixes rule_nodes' law max(256, ceil(a c) + b): for m = 2, 3
# and 5 (the tuple), k = 0 and n <= 6, at the default tol, the smallest Gauss
# node count at which every verify residual is <= max(1e-9, 4 F), F the
# worst residual at ceil(2c) + 64 nodes (F < 1e-9 but at m = 5 from c = 1000,
# 1.3e-9), found by _nodes_needed.  a = 1.2 keeps at least 6% above every row,
# and b = 256 - 150 a keeps 256 nodes up to c = 150.  The rows at k = 5 and
# 20 were measured too and left out: their residuals have floors above 1e-9
# that no rule size lowers (ROADMAP item 4).
NODES_NEEDED = {
    100.0: (171, 172, 177),
    150.0: (230, 233, 238),
    200.0: (286, 289, 296),
    300.0: (387, 392, 402),
    400.0: (482, 486, 502),
    600.0: (652, 668, 686),
    1000.0: (968, 989, 1009),
    1500.0: (1326, 1344, 1376),
}


def _worst_residual(orders, nodes: int) -> float:
    rule = gauss_rule_unit_interval(nodes)
    return max(max(rep.residual, rep.gc_residual) for rep in (verify(psi, rule=rule)
                                                              for psi in orders))


def _nodes_needed(m: int, c: float, k: int = 0) -> int:
    """A row of NODES_NEEDED, by bisection between 16 nodes and the reference."""
    [(_, orders, _)] = cpswf_blocks(m, c, [k], 6)
    lo, hi = 16, math.ceil(2 * c) + 64
    bound = max(1e-9, 4 * _worst_residual(orders, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _worst_residual(orders, mid) <= bound else (mid, hi)
    return hi


def test_rule_nodes_keeps_above_the_fit_grid():
    for c, needed in NODES_NEEDED.items():
        assert operators.rule_nodes(c) >= 1.06 * max(needed), c


@pytest.mark.parametrize("m, needed", zip((2, 3, 5), NODES_NEEDED[100.0]))
def test_fit_grid_row_is_the_bisection(m, needed):
    # the three cheapest rows; the others take minutes (c = 1500: 3,064 nodes)
    assert _nodes_needed(m, 100.0) == needed
    [(_, orders, _)] = cpswf_blocks(m, 100.0, [0], 6)
    assert _worst_residual(orders, operators.rule_nodes(100.0)) <= 1e-9


def test_verify_still_fails_a_perturbed_cpswf_at_large_c():
    # the rule grows with c, and a change of 1e-8 in any one coefficient
    # still shows: 9e-12 clean, at least 1.7e-9 perturbed
    psi = make_cpswf(0, 0, 2, 600.0)
    rep = verify(psi)
    assert max(rep.residual, rep.gc_residual) <= 1e-10
    for i in range(psi._active):
        coeffs = psi.coeffs.copy()
        coeffs[i] += 1e-8
        rep = verify(dataclasses.replace(psi, pair=RadialEigenpair(psi.chi, coeffs)))
        assert max(rep.residual, rep.gc_residual) > 1e-10, i


def test_qpc_residual_alone_fails_a_perturbed_cpswf_at_c_4():
    # the QP_c check by itself: 1.3e-15 clean, at least 2.6e-9 with a change
    # of 1e-8 in any one active coefficient
    psi = make_cpswf(1, 3, 2, 4.0)
    assert verify(psi).residual <= 1e-12
    for i in range(psi._active):
        coeffs = psi.coeffs.copy()
        coeffs[i] += 1e-8
        rep = verify(dataclasses.replace(psi, pair=RadialEigenpair(psi.chi, coeffs)))
        assert rep.residual > 1e-10, i


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="s^(-nu) times a J_nu(2 pi c r s) that underflows (ROADMAP item 4)")
def test_verify_passes_at_large_nu():
    # verify --m 2 --c 1 --k 64 --nmax 0: G_c psi reads 0 on the grid, so
    # the G_c residual is 1, a false fail
    rep = verify(make_cpswf(0, 64, 2, 1.0))
    assert rep.gc_residual <= 1e-6 and rep.residual <= 1e-6


def test_verify_gc_residual_is_the_norm_relative_deviation():
    psi = make_cpswf(2, 1, 2, 1.0)
    grid = chebyshev_grid(GRID_POINTS)
    own = psi.radial_poly_values(grid ** 2)
    g = apply_Gc(psi).values
    rep = verify(psi)
    want = np.max(np.abs(g - rep.mu_est * own)) / (abs(rep.mu_est) * np.max(np.abs(own)))
    assert rep.gc_residual == want
    assert rep.gc_residual < 1e-12


def _reference_cases():
    grid, rule = np.linspace(0.05, 0.95, 17), gauss_rule_unit_interval(160)
    for m, c in [(2, 1.0), (3, 20.0)]:
        for _, psis, _ in cpswf_blocks(m, c, range(3), 4):
            for psi in psis:
                yield psi, None, None
        yield psi, grid, rule


def test_verify_equals_the_two_recurrence_reference():
    # one recurrence on the grid and the nodes together, split after: the
    # recurrence is elementwise, so the report is the same to the bit
    for psi, grid, rule in _reference_cases():
        assert verify(psi, grid, rule) == verify_two_recurrences(psi, grid, rule)


def test_verify_runs_one_radial_recurrence(monkeypatch):
    from cliffordprolate import prolate

    calls = []
    series = prolate.radial_series
    monkeypatch.setattr(prolate, "radial_series", lambda *a: calls.append(a[4].shape) or series(*a))
    verify(make_cpswf(3, 1, 3, 1.0))
    assert calls == [(GRID_POINTS + 256,)]


class _Untouchable:
    """An operator matrix that must not be used."""

    def __matmul__(self, other):
        raise AssertionError("formed the other operator's profile")


def test_apply_Gc_and_apply_QPc_form_only_their_own_profile(monkeypatch):
    cases = list(_reference_cases())
    want = [profiles_together(psi, grid, rule) for psi, grid, rule in cases]
    matrices = operators._operator_matrices
    for j, apply in enumerate((apply_Gc, apply_QPc)):
        def one_of(*args, j=j):
            pair = list(matrices(*args))
            pair[1 - j] = _Untouchable()
            return tuple(pair)

        monkeypatch.setattr(operators, "_operator_matrices", one_of)
        for (psi, grid, rule), ref in zip(cases, want):
            got = apply(psi, grid, rule)
            assert got.values.tobytes() == ref[j].tobytes()
            assert got.weight_exponent == 2 * (psi.k + psi.n % 2) + psi.m - 1


def _row_error(Q: np.ndarray, ref: np.ndarray) -> float:
    """Worst entry error of Q relative to the largest entry of its row of ref."""
    return float(np.max(np.abs(Q - ref) / np.max(np.abs(ref), axis=1, keepdims=True)))


def test_cached_matrices_match_fresh_transforms():
    rule = gauss_rule_unit_interval(256)
    grid = chebyshev_grid(GRID_POINTS)
    for nu, c in [(0.5, 1.0), (2.0, 3.5)]:
        G, Q = operators._operator_matrices(nu, c, grid, rule)
        assert np.array_equal(G, transform_matrix(nu, c, grid, rule))
        assert _row_error(Q, brute_Q(nu, c, grid, rule)) <= 1e-12


def _near_node_grids(rule: QuadratureRule) -> dict:
    """The default grid, and the default grid plus one point on a rule node
    or 1 ulp, 1e-12, 1e-9, 1e-6 or 1e-3 above it, for a node near r = 0.06
    and one near 0.6."""
    grids = {"default": chebyshev_grid(GRID_POINTS)}
    for j in (16, 150):
        node = rule.nodes[j]
        for name, point in [("on", node), ("1 ulp", np.nextafter(node, 1.0)),
                            ("1e-12", node + 1e-12), ("1e-9", node + 1e-9),
                            ("1e-6", node + 1e-6), ("1e-3", node + 1e-3)]:
            grids[f"{name} off node {j}"] = np.sort(np.append(grids["default"], point))
    return grids


@pytest.mark.parametrize("c", [0.5, 4.0, 100.0])
@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 20.5])
def test_qpc_matrix_matches_the_oracle_near_and_on_the_nodes(nu, c):
    # every entry, on grids that sit on a node or just off one, where the
    # cross form of the Lommel kernel cancels; the quadrature oracle is
    # exact enough up to c = 4, the multiprecision one serves at c = 100
    rule = operators._default_rule(c)
    grids = _near_node_grids(rule)
    union = np.unique(np.concatenate(list(grids.values())))
    ref = brute_Q(nu, c, union, rule) if c <= 4 else Q_mp(nu, c, union, rule)
    for name, grid in grids.items():
        _, Q = operators._operator_matrices(nu, c, grid, rule)
        assert np.all(np.isfinite(Q)), name
        assert _row_error(Q, ref[np.searchsorted(union, grid)]) <= 1e-12, name


@pytest.mark.parametrize("n, k, c", [(0, 64, 1.0), (1, 0, 1e-200)])
def test_qpc_matrix_is_finite_at_large_nu_and_tiny_c(n, k, c):
    # verify --m 2 --c 1 --k 64: J_64 underflows on much of the grid; at
    # c = 1e-200, a^2 - b^2 underflows unless the cross form is scaled
    psi = make_cpswf(n, k, 2, c)
    G, Q, _ = operators._matrices(psi, operators._default_grid(), None)
    assert np.all(np.isfinite(G)) and np.all(np.isfinite(Q))
    rep = verify(psi)
    assert math.isfinite(rep.residual) and math.isfinite(rep.lambda_est)


def test_a_cache_miss_evaluates_j_at_64_n_plus_2_64_plus_n_points(monkeypatch):
    # the grid matrix of G_c takes 64 n values, Q's Lommel kernel J_nu and
    # J_(nu+1) at the grid and the nodes: no n x n table
    sizes = []
    jv_real = operators._jv()
    monkeypatch.setattr(operators, "_jv",
                        lambda: lambda nu, z: sizes.append(np.size(z)) or jv_real(nu, z))
    operators._cached_matrices.cache_clear()
    psi = make_cpswf(1, 2, 3, 1.0)
    verify(psi)
    assert sum(sizes) == GRID_POINTS * 256 + 2 * (GRID_POINTS + 256)
    verify(psi)
    assert sum(sizes) == GRID_POINTS * 256 + 2 * (GRID_POINTS + 256)
    sizes.clear()
    operators._operator_matrices(2.0, 363.0, operators._default_grid(),
                                 operators._default_rule(363.0))
    assert sum(sizes) == GRID_POINTS * 512 + 2 * (GRID_POINTS + 512)


def test_verify_builds_two_matrices_per_nu(monkeypatch):
    # m = 3, c = 1, k <= 3: nu = k + 1/2 (even) or k + 3/2 (odd), five
    # values shared by 28 CPSWFs; each builds G_c's grid matrix through
    # transform_matrix and QP_c's from the Lommel kernel
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
    assert sorted(calls) == [(k + 0.5, GRID_POINTS) for k in range(5)]


def test_matrix_cache_does_not_alias():
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
    # the default rule of c = 363 has 512 nodes
    G, Q = operators._operator_matrices(nu, psi.c, chebyshev_grid(GRID_POINTS),
                                        operators._default_rule(363.0))
    assert G.shape == Q.shape == (GRID_POINTS, 512)
    # equal nodes, different weights: G and Q are linear in the weights
    # (one quadrature each), and doubling is exact
    heavy = QuadratureRule(rule.nodes, 2 * rule.weights)
    grid = chebyshev_grid(GRID_POINTS)
    G1, Q1 = operators._operator_matrices(nu, psi.c, grid, rule)
    G2, Q2 = operators._operator_matrices(nu, psi.c, grid, heavy)
    assert np.array_equal(G2, 2 * G1)
    assert np.array_equal(Q2, 2 * Q1)


def test_cached_matrices_are_read_only():
    G, Q = operators._operator_matrices(0.5, 1.0, chebyshev_grid(GRID_POINTS),
                                        gauss_rule_unit_interval(256))
    for mat in (G, Q):
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_default_grid_is_built_once_and_read_only(monkeypatch):
    import cliffordprolate.special as special

    psi = make_cpswf(1, 0, 2, 1.0)
    first = apply_Gc(psi).grid
    monkeypatch.setattr(special, "chebyshev_grid", None)  # no rebuild
    monkeypatch.setattr(operators, "chebyshev_grid", None)
    verify(psi)
    assert apply_QPc(psi).grid is first
    assert np.array_equal(first, chebyshev_grid(GRID_POINTS))
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.5


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
