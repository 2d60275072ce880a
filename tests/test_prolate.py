"""CPSWF assembly: spectral triple (chi, mu, lambda) and field evaluation."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffordprolate.accumulation import partial_sum
from cliffordprolate.algebra import Multivector, embed
from cliffordprolate.galerkin import solve_block
from cliffordprolate.legendre import radial_values
from cliffordprolate import prolate
from cliffordprolate.monogenics import PolyMultivector, basis
from cliffordprolate.prolate import (
    eval_field,
    eval_field_coeffs,
    eval_radial,
    cpswf_blocks,
    make_cpswf,
)
from cliffordprolate.special import gauss_rule_unit_interval

from oracles import lambda_mp, order_quantities, scalar_inner_coeffs


def test_basic_attributes():
    psi = make_cpswf(5, 2, 3, 1.5)
    assert psi.parity == "odd" and psi.N == 2
    assert psi.chi > 0 and psi.pair.truncation >= 2


def test_chi_increases_with_n():
    chis = [make_cpswf(n, 0, 2, 1.0).chi for n in range(8)]
    assert np.all(np.diff(chis) > 0)


def test_radial_poly_values_match_manual_sum():
    psi = make_cpswf(2, 1, 2, 1.0)
    t = np.linspace(0, 1, 9)
    na = psi.coeffs.size
    pv, _ = radial_values(1, 2, na - 1, t)
    manual = psi.coeffs @ pv
    assert np.max(np.abs(psi.radial_poly_values(t) - manual)) < 1e-12


def test_eval_radial_parity_behavior():
    even = make_cpswf(2, 0, 2, 1.0)
    odd = make_cpswf(3, 0, 2, 1.0)
    assert abs(eval_radial(even, 0.0) - even.value_at_zero) < 1e-14
    assert eval_radial(odd, 0.0) == 0.0
    r = np.linspace(0, 1, 5)
    assert np.max(np.abs(eval_radial(odd, r) - r * odd.radial_poly_values(r ** 2))) < 1e-14


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n,k", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 0)])
def test_lambda_mu_relation(m, n, k):
    psi = make_cpswf(n, k, m, 1.0)
    assert abs(psi.lam - psi.c ** m * abs(psi.mu) ** 2) < 1e-14
    assert 0 < psi.lam < 1


@pytest.mark.parametrize("m", [2, 3])
def test_mu_phase(m):
    for n, k in [(0, 0), (1, 1), (2, 0), (3, 2), (5, 1)]:
        psi = make_cpswf(n, k, m, 1.2)
        phase = psi.mu / abs(psi.mu)
        # phase is i^(k+n) up to a real sign
        assert abs(abs((phase / 1j ** (k + n)).real) - 1) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_mu_shift_between_parities(m):
    for k in range(3):
        for N in range(3):
            odd = make_cpswf(2 * N + 1, k, m, 1.0)
            even_up = make_cpswf(2 * N, k + 1, m, 1.0)
            assert abs(abs(odd.mu) - abs(even_up.mu)) < 1e-10


def test_radial_norm_is_one():
    # the field normalization reduces to
    # int_0^1 R(t(u))^2 u^(w) du = 1 with t = u^2
    rule = gauss_rule_unit_interval(200)
    u = rule.nodes
    for n, k, m in [(0, 0, 2), (1, 0, 2), (2, 1, 3), (3, 2, 3)]:
        psi = make_cpswf(n, k, m, 1.0)
        w = 2 * k + m - 1 if psi.parity == "even" else 2 * k + m + 1
        vals = psi.radial_poly_values(u ** 2)
        norm = float(np.dot(rule.weights, vals ** 2 * u ** w))
        assert abs(norm - 1) < 1e-10


def test_eval_field_structure_even():
    psi = make_cpswf(2, 1, 2, 1.0)
    y = basis(2, 1).elements[0]
    rng = np.random.default_rng(51)
    for _ in range(5):
        x = rng.standard_normal(2)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        want = psi.radial_poly_values(np.dot(x, x))[0] * y.evaluate_coeffs(x)
        got = eval_field_coeffs(psi, 1, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_eval_field_structure_odd():
    psi = make_cpswf(3, 0, 3, 1.0)
    y = basis(3, 0).elements[0]
    rng = np.random.default_rng(52)
    for _ in range(5):
        x = rng.standard_normal(3)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        xv = embed(x, 3)
        yv = Multivector(3, y.evaluate_coeffs(x))
        want = psi.radial_poly_values(np.dot(x, x))[0] * (xv * yv).coeffs
        got = eval_field_coeffs(psi, 1, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_eval_field_multivector_wrapper():
    psi = make_cpswf(0, 0, 2, 1.0)
    x = np.array([0.3, -0.4])
    v = eval_field(psi, 1, x)
    assert isinstance(v, Multivector)
    assert np.allclose(v.coeffs, eval_field_coeffs(psi, 1, x))


def test_field_norm_matches_radial_norm():
    # |psi(x)|^2 integrated over the ball = radial norm (angular part is
    # orthonormal), checked by naive polar quadrature at m = 2
    psi = make_cpswf(1, 1, 2, 1.0)
    rad = gauss_rule_unit_interval(120)
    n_ang = 200
    theta = 2 * math.pi * np.arange(n_ang) / n_ang
    pts = np.stack([np.outer(rad.nodes, np.cos(theta)),
                    np.outer(rad.nodes, np.sin(theta))], axis=-1)
    vals = eval_field_coeffs(psi, 1, pts.reshape(-1, 2)).reshape(120, n_ang, 4)
    dens = np.real(np.sum(np.conj(vals) * vals, axis=-1))
    total = float(np.dot(rad.weights * rad.nodes,
                         dens.sum(axis=1) * (2 * math.pi / n_ang)))
    assert abs(total - 1) < 1e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        make_cpswf(0, 0, 2, 0.0)
    with pytest.raises(ValueError):
        make_cpswf(-1, 0, 2, 1.0)
    psi = make_cpswf(0, 0, 2, 1.0)
    with pytest.raises(ValueError):
        eval_radial(psi, 1.5)
    with pytest.raises(ValueError):
        eval_field_coeffs(psi, 2, np.zeros(2))
    with pytest.raises(ValueError):
        eval_field_coeffs(psi, 1, np.array([1.2, 0.0]))


_RANGE_CHECKS = {
    "eval_radial": (r"radius must lie in \[0, 1\]",
                    lambda psi, v: eval_radial(psi, v)),
    "eval_field_coeffs": ("points must lie in the closed unit ball",
                          lambda psi, v: eval_field_coeffs(psi, 1, np.array([[0.5, 0], [v, 0]]))),
    "partial_sum": (r"t grid must lie in \[0, 1\]",
                    lambda psi, v: partial_sum(2, 1.0, 1, 1, [0.5, v])),
}


@pytest.mark.parametrize("name, value", [
    ("eval_radial", -0.5), ("eval_radial", 1.5), ("eval_radial", math.nan),
    ("eval_field_coeffs", 1.5), ("eval_field_coeffs", math.nan),
    ("partial_sum", -0.5), ("partial_sum", 1.5), ("partial_sum", math.nan),
])
def test_range_checks_reject_out_of_range_and_nan(name, value):
    # NaN fails every comparison, so a check must ask that all values lie inside
    message, call = _RANGE_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call(make_cpswf(1, 1, 2, 1.0), value)


@pytest.mark.parametrize("t", [-0.5, 2.0, 1 + 1e-9, math.nan, math.inf])
def test_radial_factor_rejects_t_outside_the_unit_interval(t):
    # the _active cut is exact on [0, 1] only: at t = 2 the cut series gave
    # -31.58 where the full series gives 9.0e-5
    with pytest.raises(ValueError, match=r"t must be finite and lie in \[0, 1\]"):
        next(cpswf_blocks(3, 4.0, [5], 9, t=[0.5, t]))
    for n in (0, 1):
        with pytest.raises(ValueError, match=r"t must be finite and lie in \[0, 1\]"):
            make_cpswf(n, 5, 3, 4.0).radial_poly_values([0.5, t])


def test_radial_factor_keeps_the_closed_interval():
    t = np.array([0.0, 1.0, 1 + 1e-13])
    [(_, psis, values)] = cpswf_blocks(3, 4.0, [5], 9, t=t)
    for psi, v in zip(psis, values):
        got = psi.radial_poly_values(t)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2,), ()])
def test_field_rejects_points_of_the_wrong_dimension(n, shape):
    psi = make_cpswf(n, 1, 3, 1.0)
    x = np.zeros(shape)
    with pytest.raises(ValueError, match=r"points must have shape \(\.\.\., 3\)"):
        eval_field_coeffs(psi, 1, x)
    with pytest.raises(ValueError, match=r"points must have shape \(\.\.\., 3\)"):
        eval_field(psi, 1, x)


def _field_reference(psi, i, x):
    """The field without the table memo: R(t) times Y_k^i or x Y_k^i."""
    t = np.sum(x ** 2, axis=-1)
    y = basis(psi.m, psi.k).elements[i - 1]
    if psi.parity == "odd":
        y = PolyMultivector.vector(psi.m) * y
    radial = psi.radial_poly_values(np.ravel(t)).reshape(t.shape)
    return radial[..., None] * y.evaluate_coeffs(x)


# two records of one (m, k, parity): a table kept across records shows
_MEMO_PSIS = [make_cpswf(1, 2, 3, 2.0), make_cpswf(3, 2, 3, 2.0)]
_MEMO_STEP = st.tuples(
    st.integers(0, 1), st.integers(0, 2),
    st.sampled_from(["same", "reshape", "strided", "fortran", "mutate", "nan", "outside"]),
    st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.lists(_MEMO_STEP, min_size=1, max_size=10))
@example([(0, 0, "same", 1), (1, 0, "same", 1), (0, 0, "same", 2)])
@example([(0, 0, "same", 1), (0, 1, "same", 1), (0, 0, "same", 2)])
@example([(0, 0, "same", 1), (0, 0, "mutate", 1)])
@example([(0, 0, "same", 1), (0, 0, "reshape", 1)])
@example([(0, 0, "same", 1), (0, 0, "strided", 2), (0, 0, "fortran", 3)])
@example([(0, 0, "same", 1), (0, 0, "same", 2), (0, 0, "nan", 1), (0, 0, "outside", 3)])
def test_field_memo_matches_a_memo_free_reference(steps):
    # steps of (record, point set, how the points are passed, basis index)
    rng = np.random.default_rng(61)
    sets = []
    for _ in range(3):
        x = rng.standard_normal((4, 3))
        sets.append(x * rng.uniform(0.2, 1, (4, 1)) / np.linalg.norm(x, axis=1, keepdims=True))
    for r, j, how, i in steps:
        psi, x = _MEMO_PSIS[r], sets[j]
        if how in ("nan", "outside"):
            bad = x.copy()
            bad[-1] = math.nan if how == "nan" else 0.6
            with pytest.raises(ValueError, match="points must lie in the closed unit ball"):
                eval_field_coeffs(psi, i, bad)
            continue
        if how == "mutate":  # the same array object, new points
            x[:] = np.roll(x, 1, axis=0) * 0.9
        elif how == "reshape":  # the same bytes, another shape
            x = x.reshape(2, 2, 3)
        elif how == "strided":
            x = x[::2]
        elif how == "fortran":
            x = np.asfortranarray(x)
        got = eval_field_coeffs(psi, i, x)
        want = _field_reference(psi, i, x)
        assert got.dtype == complex and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_field_memo_keeps_each_result_under_concurrent_callers():
    # four threads share the one-entry table across two records and two
    # point sets; an entry read in two pieces would mix them
    rng = np.random.default_rng(63)
    sets = [rng.uniform(-0.5, 0.5, (32, 3)) for _ in range(2)]
    jobs = [(psi, x, i) for psi in _MEMO_PSIS for x in sets for i in (1, 3)]
    want = [_field_reference(psi, i, x) for psi, x, i in jobs]
    errors = []

    def work(offset):
        try:
            for n in range(200):
                j = (offset + n) % len(jobs)
                got = eval_field_coeffs(jobs[j][0], jobs[j][2], jobs[j][1])
                if not np.max(np.abs(got - want[j])) <= 1e-14 * np.max(np.abs(want[j])):
                    errors.append(j)
        except Exception as exc:  # a thread's exception would not fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_field_work_is_shared_across_indices_and_records(monkeypatch):
    # the d_k indices of one record at one point set take one radial
    # evaluation, and a second record of the same (m, k, parity) builds no
    # x Y_k^i product
    rng = np.random.default_rng(62)
    x = rng.uniform(-0.5, 0.5, (64, 3))
    radial_calls, products = [], []
    radial_series = prolate.radial_series
    monkeypatch.setattr(prolate, "radial_series",
                        lambda *a: radial_calls.append(a[:3]) or radial_series(*a))
    for n in (2, 1):
        psi = make_cpswf(n, 3, 3, 1.0)
        radial_calls.clear()
        for i in range(1, 5):
            eval_field_coeffs(psi, i, x)
        assert len(radial_calls) == 1
    mul = PolyMultivector.__mul__
    monkeypatch.setattr(PolyMultivector, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    psi = make_cpswf(3, 3, 3, 1.0)
    for i in range(1, 5):
        eval_field_coeffs(psi, i, x)
    assert products == []


def test_lambda_matches_high_precision_oracle():
    # p_i(0) grows like i^(k+m/2-1/2): a cut on |alpha_i| alone drops tail
    # terms that still move P(0) and lambda (by 2.9e-9 relative here)
    lam = make_cpswf(0, 19, 3, 4.0).lam
    ref = lambda_mp(0, 19, 3, 4.0)
    assert abs(lam - ref) <= 1e-13 * ref


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("c", [1.0, 8.0, 1000.0])
def test_lambda_passes_one_by_rounding_only(m, c):
    # lam <= 1 exactly; rounding lifts it by at most 0.5 T eps on these
    # blocks (1 + 217 eps at c = 1000, n = 1, T = 2,016), and the Cpswf
    # docstring states lam <= 1 + T eps
    eps = np.finfo(float).eps
    for _, psis, _ in cpswf_blocks(m, c, range(8), 15):
        for psi in psis:
            assert 0 < psi.lam <= 1 + psi.pair.truncation * eps


def test_active_length_bounds_every_dropped_term():
    psi = make_cpswf(0, 19, 3, 4.0)
    bound = np.abs(psi.coeffs * psi.basis_at_zero)
    assert np.all(bound[psi._active:] <= 1e-16 * bound.max())
    # |p_i(t)| peaks at t = 0 on [0, 1], so the bound holds everywhere
    pv, _ = radial_values(19, 3, psi.pair.truncation - 1, np.linspace(0, 1, 101))
    assert np.all(np.abs(pv) <= np.abs(psi.basis_at_zero)[:, None] * (1 + 1e-13))


@pytest.mark.parametrize("n_max", [0, 1])
def test_small_blocks_equal_make_cpswf(n_max):
    # with one order per parity the block solves are make_cpswf's solves,
    # so the spectral triples agree to the last bit; the values differ only
    # in summation order (one table against a running sum)
    t = np.linspace(0, 1, 7)
    for k, psis, values in cpswf_blocks(3, 1.5, range(3), n_max, t=t):
        for n, psi in enumerate(psis):
            one = make_cpswf(n, k, 3, 1.5)
            assert (psi.chi, psi.mu, psi.lam) == (one.chi, one.mu, one.lam)
            assert np.max(np.abs(values[n] - one.radial_poly_values(t))) < 1e-14


def test_blocks_agree_with_make_cpswf():
    t = np.linspace(0, 1, 5).reshape(5, 1)
    for k, psis, values in cpswf_blocks(2, 2.0, [1, 2, 4], 5, t=t):
        assert values.shape == (6, 5, 1)
        for n, psi in enumerate(psis):
            one = make_cpswf(n, k, 2, 2.0)
            assert (psi.n, psi.k) == (n, k)
            assert abs(psi.chi - one.chi) <= 1e-12 * one.chi
            assert abs(psi.lam - one.lam) <= 1e-12 * one.lam
            assert np.max(np.abs(values[n] - one.radial_poly_values(t))) < 1e-12


def test_blocks_validate_like_make_cpswf():
    with pytest.raises(ValueError, match="require c > 0"):
        next(cpswf_blocks(2, 0.0, [0], 1))
    with pytest.raises(ValueError, match="require n >= 0"):
        next(cpswf_blocks(2, 1.0, [-1], 1))


def _bits(*values):
    """Each float, and each part of a complex, as its exact hex form."""
    return [float(x).hex() for v in values
            for x in ((v.real, v.imag) if isinstance(v, complex) else (v,))]


def test_records_equal_the_per_order_formulas():
    # every record is built a whole block at a time; each must equal what its
    # own eigenpair and radial basis at zero give one order at a time, to the bit
    count = 0
    for m in (2, 3, 5):
        for c in (0.5, 4.0, 20.0):
            for k in (0, 5, 19):
                [(_, psis, _)] = cpswf_blocks(m, c, [k], 9)
                for psi in [*psis] + [make_cpswf(n, k, m, c) for n in (0, 1, 6, 9)]:
                    got = (psi._active, psi.value_at_zero, psi.mu, psi.lam)
                    ref = order_quantities(psi.n, k, m, c, psi.pair, psi.basis_at_zero)
                    assert [type(v) for v in got] == [int, float, complex, float]
                    assert got[0] == ref[0] and _bits(*got[1:]) == _bits(*ref[1:])
                    T = psi.pair.truncation
                    zero = radial_values(k, m, T - 1, np.zeros(1))[psi.n % 2][:, 0]
                    assert np.array_equal(psi.basis_at_zero, zero)
                    count += 1
    assert count == 378


def test_orders_of_a_block_share_one_read_only_basis_at_zero():
    [(_, psis, _)] = cpswf_blocks(3, 2.0, [1], 5)
    for parity in (0, 1):
        shared = psis[parity].basis_at_zero
        assert all(psi.basis_at_zero is shared for psi in psis[parity::2])
        with pytest.raises(ValueError):
            shared[0] = 1.0


@pytest.mark.parametrize("n", [0, 1, 6, 9])
def test_make_cpswf_is_order_n_of_its_block(n):
    psi = make_cpswf(n, 5, 3, 4.0)
    block = solve_block(psi.parity, 5, 3, 4.0, n // 2)
    assert isinstance(psi.chi, float) and psi.chi == block.chi[n // 2]
    assert np.array_equal(psi.coeffs, block.coeffs[:, n // 2])
    assert psi.pair.truncation == block.truncation


def test_blocks_accept_one_shot_degrees():
    # degrees are read once, so validating them must not exhaust an iterator
    t = np.linspace(0, 1, 4)
    runs = [list(cpswf_blocks(2, 1.0, ks, 3, t=t))
            for ks in (range(2), [0, 1], iter([0, 1]), (k for k in range(2)))]
    for run in runs:
        assert [k for k, _, _ in run] == [0, 1]
        for (_, psis, values), (_, ref, ref_values) in zip(run, runs[0]):
            assert [(p.chi, p.mu, p.lam) for p in psis] == [(p.chi, p.mu, p.lam) for p in ref]
            assert np.array_equal(values, ref_values)


NON_INTEGER = [
    ("k must be an integer, got 1.5", lambda: make_cpswf(0, 1.5, 2, 1.0)),
    ("m must be an integer, got 2.5", lambda: make_cpswf(0, 0, 2.5, 1.0)),
    ("n must be an integer, got 1.5", lambda: make_cpswf(1.5, 0, 2, 1.0)),
    ("m must be >= 2, got 0", lambda: make_cpswf(0, 0, 0, 1.0)),
    ("m must be >= 2, got 1", lambda: make_cpswf(0, 0, 1, 1.0)),
    ("n must be an integer, got 2.5", lambda: next(cpswf_blocks(2, 1.0, [0], 2.5))),
    ("k must be an integer, got 0.5", lambda: next(cpswf_blocks(2, 1.0, [0, 0.5], 1))),
    ("N must be an integer, got 1.0", lambda: solve_block("even", 0, 2, 1.0, 1.0)),
    ("K must be an integer, got 1.5", lambda: partial_sum(2, 1.0, 1.5, 1, [0.1])),
    ("N must be an integer, got 0.5", lambda: partial_sum(2, 1.0, 1, 0.5, [0.1])),
    ("i must be an integer, got 1.5",
     lambda: eval_field_coeffs(make_cpswf(0, 0, 2, 1.0), 1.5, np.zeros(2))),
]


@pytest.mark.parametrize("message, call", NON_INTEGER, ids=[m for m, _ in NON_INTEGER])
def test_non_integer_orders_degrees_and_dimensions_are_named(message, call):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_integers_are_accepted():
    one = make_cpswf(np.int64(3), np.int32(1), np.int64(3), 1.5)
    ref = make_cpswf(3, 1, 3, 1.5)
    assert (one.chi, one.mu, one.lam) == (ref.chi, ref.mu, ref.lam)


GROUPINGS = {
    "non-consecutive": ([1, 2, 4], 5, False),
    "descending": ([5, 3, 4], 5, False),
    "repeated": ([3, 3], 4, False),
    "one-shot": ([2, 0, 1], 3, True),
    "no-odd-block": ([0, 1, 2], 0, False),
    "three-groups": (list(range(20)), 3, False),
}


@pytest.mark.parametrize("ks, n_max, one_shot", GROUPINGS.values(), ids=GROUPINGS.keys())
def test_grouped_degrees_equal_one_degree_at_a_time(ks, n_max, one_shot):
    # degrees share one recurrence per group; every record must still equal
    # its per-order formulas and the solve of its degree alone, to the bit,
    # and every radial factor that degree's own table
    m, c = 3, 2.0
    t = np.linspace(0, 1, 6)
    run = list(cpswf_blocks(m, c, iter(ks) if one_shot else ks, n_max, t=t))
    assert [k for k, _, _ in run] == ks
    for k, orders, values in run:
        [(_, alone, alone_values)] = cpswf_blocks(m, c, [k], n_max, t=t)
        assert len(orders) == n_max + 1 and len(orders.blocks) == min(n_max + 1, 2)
        for psi, one in zip(orders, alone):
            assert (psi.n, psi.k, psi._active) == (one.n, one.k, one._active)
            assert _bits(psi.chi, psi.value_at_zero, psi.mu, psi.lam) == _bits(
                one.chi, one.value_at_zero, one.mu, one.lam)
            assert np.array_equal(psi.coeffs, one.coeffs)
            ref = order_quantities(psi.n, k, m, c, psi.pair, psi.basis_at_zero)
            assert psi._active == ref[0]
            assert _bits(psi.value_at_zero, psi.mu, psi.lam) == _bits(*ref[1:])
        assert values.shape == alone_values.shape == (n_max + 1, t.size)
        scale = np.max(np.abs(alone_values), axis=1, keepdims=True)
        assert np.all(np.abs(values - alone_values) <= 1e-14 * scale)


def test_orders_expose_read_only_arrays_in_order_n():
    [(_, orders, _)] = cpswf_blocks(3, 4.0, [2], 6)
    psis = list(orders)
    assert [psi.n for psi in psis] == list(range(7))
    for name, get in [("chi", lambda p: p.chi), ("active", lambda p: p._active),
                      ("value_at_zero", lambda p: p.value_at_zero),
                      ("mu", lambda p: p.mu), ("lam", lambda p: p.lam)]:
        column = getattr(orders, name)
        assert column.shape == (7,)
        assert _bits(*column.tolist()) == _bits(*map(get, psis)), name
        with pytest.raises(ValueError):
            column[0] = 0
    assert orders[-1].n == 6 and [psi.n for psi in orders[1::3]] == [1, 4]
    with pytest.raises(IndexError):
        orders[7]
    for record in orders.blocks:
        for column in (record.active, record.value_at_zero, record.mu, record.lam):
            with pytest.raises(ValueError):
                column[0] = 0


@pytest.mark.parametrize("m, c, k, n_max", [(3, 4.0, 17, 9), (3, 4.0, 18, 9), (3, 0.5, 11, 21)])
def test_lambda_rounds_as_python_pow(m, c, k, n_max):
    # lam = c^m |mu|^2 rounds as Python's abs and ** 2, which call libm hypot
    # and pow; numpy's ** 2 squares, and on these blocks it gives lam one ulp off
    [(_, orders, _)] = cpswf_blocks(m, c, [k], n_max)
    for psi in orders:
        ref = order_quantities(psi.n, k, m, c, psi.pair, psi.basis_at_zero)
        assert _bits(psi.mu, psi.lam) == _bits(*ref[2:])
