"""Spherical monogenic bases: monogenicity, orthonormality, zonal trace."""

import math

import numpy as np
import pytest

from cliffordprolate.algebra import embed_coeffs, mul_coeffs
from cliffordprolate.monogenics import PolyMultivector, basis, dim_monogenic, dirac
from cliffordprolate.prolate import eval_field_coeffs, make_cpswf
from cliffordprolate.special import sphere_area

from oracles import _sphere_clifford_inner, constant, coordinate, scalar_inner_coeffs, sphere_rule


@pytest.mark.parametrize("m,k,d", [(2, 0, 1), (2, 5, 1), (3, 0, 1), (3, 1, 2),
                                   (3, 4, 5), (4, 2, 6)])
def test_dimension_formula(m, k, d):
    assert dim_monogenic(m, k) == d


@pytest.mark.parametrize("m,kmax", [(2, 6), (3, 5), (4, 3)])
def test_basis_properties(m, kmax):
    for k in range(kmax + 1):
        b = basis(m, k)
        assert len(b) == dim_monogenic(m, k)
        for y in b.elements:
            assert y.is_homogeneous() and y.degree() == k
            assert dirac(y).max_coeff() < 1e-10 * max(y.max_coeff(), 1.0)


@pytest.mark.parametrize("m,kmax", [(2, 6), (3, 4)])
def test_scalar_orthonormality_on_sphere(m, kmax):
    rule = sphere_rule(m, 2 * kmax + 8)
    for k in range(kmax + 1):
        els = basis(m, k).elements
        vals = [y.evaluate_coeffs(rule.nodes) for y in els]
        for p in range(len(els)):
            for q in range(len(els)):
                inner = np.dot(rule.weights,
                               scalar_inner_coeffs(m, vals[p], vals[q]))
                assert abs(inner - (p == q)) < 1e-9


def test_clifford_inner_scalar_part_m3():
    # the full C_3-valued sphere inner product of distinct basis elements
    # has vanishing scalar part (module orthogonality)
    rule = sphere_rule(3, 16)
    els = basis(3, 2).elements
    for p in range(len(els)):
        for q in range(len(els)):
            g = _sphere_clifford_inner(els[p], els[q], rule)
            assert abs(g[0] - (p == q)) < 1e-9


@pytest.mark.parametrize("m,kmax", [(2, 5), (3, 4), (4, 3)])
def test_zonal_trace_constant(m, kmax):
    rng = np.random.default_rng(21)
    for k in range(kmax + 1):
        els = basis(m, k).elements
        expect = dim_monogenic(m, k) / sphere_area(m)
        for _ in range(5):
            w = rng.standard_normal(m)
            w /= np.linalg.norm(w)
            total = sum(float(np.sum(np.abs(y.evaluate_coeffs(w)) ** 2))
                        for y in els)
            assert abs(total - expect) < 1e-9


def test_m2_explicit_form():
    # Y_k = (2 pi)^(-1/2) (x1 - e12 x2)^k
    rng = np.random.default_rng(22)
    for k in range(5):
        y = basis(2, k).elements[0]
        for _ in range(4):
            x = rng.standard_normal(2)
            z = complex(x[0], -x[1]) ** k / math.sqrt(2 * math.pi)
            v = y.evaluate_coeffs(x)
            # blade masks: 0 scalar, 3 = e12
            assert abs(v[0] - z.real) < 1e-12
            assert abs(v[3] - z.imag) < 1e-12
            assert abs(v[1]) < 1e-12 and abs(v[2]) < 1e-12


@pytest.mark.parametrize("k", [9, 12])
def test_m3_bases_past_degree_8(k):
    # monogenic, module-orthonormal under quadrature, and of constant
    # zonal trace, like the degrees the tests above cover
    els = basis(3, k).elements
    assert len(els) == dim_monogenic(3, k)
    rule = sphere_rule(3, 2 * k + 8)
    for p, y in enumerate(els):
        assert y.is_homogeneous() and y.degree() == k
        assert dirac(y).max_coeff() < 1e-10 * y.max_coeff()
        for q, z in enumerate(els):
            g = _sphere_clifford_inner(y, z, rule)
            assert np.max(np.abs(g - (p == q) * np.eye(8)[0])) < 1e-12
    total = sum(np.sum(np.abs(y.evaluate_coeffs(rule.nodes)) ** 2, axis=-1) for y in els)
    assert np.max(np.abs(total * sphere_area(3) / len(els) - 1)) < 1e-12


def test_m2_closed_form_coefficients_at_degree_40():
    # (2 pi)^(-1/2) (x1 - e12 x2)^40 = sum_j C(40, j) (-e12)^j x1^(40-j) x2^j
    k = 40
    terms = basis(2, k).elements[0].terms
    assert len(terms) == k + 1
    for j in range(k + 1):
        ref = np.zeros(4)
        ref[0 if j % 2 == 0 else 3] = (-1) ** ((j + 1) // 2) * math.comb(k, j)
        ref /= math.sqrt(2 * math.pi)
        assert np.max(np.abs(terms[k - j, j] - ref)) <= 1e-15 * math.comb(k, j)


def test_dirac_product_rule_example():
    # dirac(x) = -m for the vector polynomial x = sum_j x_j e_j
    for m in (2, 3):
        x = PolyMultivector(m)
        for j in range(1, m + 1):
            coord = coordinate(m, j)
            e_j = np.zeros(2 ** m, dtype=complex)
            e_j[1 << (j - 1)] = 1.0
            x = x + coord.left_mul(e_j)
        d = dirac(x)
        val = d.evaluate_coeffs(np.zeros(m))
        assert abs(val[0] + m) < 1e-14
        assert np.max(np.abs(val[1:])) < 1e-14


def _random_poly(rng, m: int) -> PolyMultivector:
    """A sparse polynomial of degree <= 4 with complex coefficients on
    about half of the blades."""
    terms = {}
    for _ in range(rng.integers(1, 7)):
        a = rng.multinomial(rng.integers(0, 5), np.ones(m) / m)
        c = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
        terms[tuple(a)] = c * (rng.random(1 << m) < 0.5)
    return PolyMultivector(m, terms)


def _evaluate_by_terms(p: PolyMultivector, x: np.ndarray) -> np.ndarray:
    """Reference evaluation, one monomial at a time."""
    out = np.zeros(x.shape[:-1] + (1 << p.m,), dtype=complex)
    for a, c in p.terms.items():
        out += np.prod(x ** np.array(a), axis=-1)[..., None] * c
    return out


def _close(got, ref, rel=1e-13):
    return np.max(np.abs(got - ref)) <= rel * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("m", [2, 3])
def test_evaluation_is_a_ring_homomorphism(m):
    rng = np.random.default_rng(40 + m)
    x = rng.uniform(-1, 1, (25, m))
    g = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    s = complex(rng.standard_normal(), rng.standard_normal())
    for _ in range(20):
        p, q = _random_poly(rng, m), _random_poly(rng, m)
        pv, qv = p.evaluate_coeffs(x), q.evaluate_coeffs(x)
        assert _close(pv, _evaluate_by_terms(p, x))
        assert _close((p + q).evaluate_coeffs(x), pv + qv)
        assert _close((p - q).evaluate_coeffs(x), pv - qv)
        assert _close((p * q).evaluate_coeffs(x), mul_coeffs(m, pv, qv))
        assert _close(p.left_mul(g).evaluate_coeffs(x), mul_coeffs(m, g, pv))
        assert _close(p.scale(s).evaluate_coeffs(x), s * pv)
        assert _close(p.evaluate_coeffs(x[0]), pv[0])


@pytest.mark.parametrize("m", [2, 3])
def test_dirac_matches_central_differences(m):
    rng = np.random.default_rng(50 + m)
    x = rng.uniform(-1, 1, (10, m))
    h = 1e-4
    for _ in range(10):
        p = _random_poly(rng, m)
        ref = np.zeros(x.shape[:-1] + (1 << m,), dtype=complex)
        for j in range(m):
            step = h * np.eye(m)[j]
            dj = (p.evaluate_coeffs(x + step) - p.evaluate_coeffs(x - step)) / (2 * h)
            ref += mul_coeffs(m, np.eye(1 << m)[1 << j], dj)
        assert _close(dirac(p).evaluate_coeffs(x), ref, rel=1e-7)


@pytest.mark.parametrize("m", [2, 3])
def test_terms_round_trip_and_canonical_rows(m):
    rng = np.random.default_rng(60 + m)
    for _ in range(10):
        p = _random_poly(rng, m)
        q = PolyMultivector(m, p.terms)
        assert np.array_equal(q.exps, p.exps) and np.array_equal(q.coeffs, p.coeffs)
        assert len(np.unique(p.exps, axis=0)) == len(p.exps)
        assert np.all(np.any(p.coeffs != 0, axis=1))
        assert not p.exps.flags.writeable and not p.coeffs.flags.writeable
        assert all(not c.flags.writeable for c in p.terms.values())


@pytest.mark.parametrize("m", [2, 3])
def test_zero_polynomial(m):
    x = PolyMultivector.vector(m)
    pts = np.random.default_rng(70).uniform(-1, 1, (7, m))
    for zero in (x - x, PolyMultivector(m), dirac(constant(m, 2.0)),
                 x.scale(0.0), PolyMultivector(m, {(1,) * m: np.zeros(1 << m)})):
        assert zero.terms == {} and zero.exps.shape == (0, m)
        assert zero.degree() == -1 and zero.max_coeff() == 0.0 and zero.is_homogeneous()
        assert np.array_equal(zero.evaluate_coeffs(pts), np.zeros((7, 1 << m)))
        assert np.array_equal(zero.evaluate_coeffs(pts[0]), np.zeros(1 << m))


@pytest.mark.parametrize("m,k", [(2, 4), (3, 3)])
def test_odd_field_is_vector_times_basis(m, k):
    # the field path evaluates the one polynomial x Y; the reference
    # multiplies the embedded points into Y(x) point by point
    psi = make_cpswf(1, k, m, 1.0)
    rng = np.random.default_rng(80 + m)
    x = rng.uniform(-1, 1, (60, m)) / math.sqrt(m)
    radial = psi.radial_poly_values(np.sum(x ** 2, axis=-1))
    for i, y in enumerate(basis(m, k).elements, start=1):
        ref = radial[:, None] * mul_coeffs(m, embed_coeffs(m, x), y.evaluate_coeffs(x))
        assert _close(eval_field_coeffs(psi, i, x), ref, rel=1e-14)


def _from_rows_by_unique(cls, m, exps, coeffs):
    """The row grouping by np.unique that _from_rows replaced."""
    exps, where = np.unique(exps.reshape(-1, m), axis=0, return_inverse=True)
    summed = np.zeros((len(exps), 1 << m), dtype=complex)
    np.add.at(summed, where.reshape(-1), coeffs.reshape(-1, 1 << m))
    keep = np.any(summed != 0, axis=1)
    out = cls.__new__(cls)
    out.m, out.exps, out.coeffs = m, exps[keep], summed[keep]
    return out


def _bases_and_products(m):
    import cliffordprolate.monogenics as monogenics

    monogenics.basis.cache_clear()
    polys = []
    for k in range(9):
        for y in basis(m, k).elements:
            polys += [y, PolyMultivector.vector(m) * y]
    monogenics.basis.cache_clear()
    return polys


@pytest.mark.parametrize("m", [2, 3])
def test_row_grouping_is_bit_identical_to_unique(monkeypatch, m):
    # the same rows in the same order and the same np.add.at summation, so
    # every basis (k <= 8) and its x * Y product keep their bits
    got = _bases_and_products(m)
    monkeypatch.setattr(PolyMultivector, "_from_rows", classmethod(_from_rows_by_unique))
    ref = _bases_and_products(m)
    assert len(got) == len(ref)
    for p, q in zip(got, ref):
        assert p.exps.dtype == q.exps.dtype and p.exps.tobytes() == q.exps.tobytes()
        assert p.coeffs.shape == q.coeffs.shape and p.coeffs.tobytes() == q.coeffs.tobytes()
