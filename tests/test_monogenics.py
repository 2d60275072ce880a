"""Spherical monogenic bases: monogenicity, orthonormality, zonal trace."""

import math

import numpy as np
import pytest

from cliffordprolate.monogenics import (
    PolyMultivector,
    _sphere_clifford_inner,
    basis,
    dim_monogenic,
    dirac,
)
from cliffordprolate.special import sphere_area, sphere_rule

from oracles import scalar_inner_coeffs


@pytest.mark.parametrize("m,k,d", [(2, 0, 1), (2, 5, 1), (3, 0, 1), (3, 1, 2),
                                   (3, 4, 5), (4, 2, 6)])
def test_dimension_formula(m, k, d):
    assert dim_monogenic(m, k) == d


@pytest.mark.parametrize("m,kmax", [(2, 6), (3, 5)])
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


@pytest.mark.parametrize("m,kmax", [(2, 5), (3, 4)])
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


def test_dirac_product_rule_example():
    # dirac(x) = -m for the vector polynomial x = sum_j x_j e_j
    for m in (2, 3):
        x = PolyMultivector(m)
        for j in range(1, m + 1):
            coord = PolyMultivector.coordinate(m, j)
            e_j = np.zeros(2 ** m, dtype=complex)
            e_j[1 << (j - 1)] = 1.0
            x = x + coord.left_mul(e_j)
        d = dirac(x)
        val = d.evaluate_coeffs(np.zeros(m))
        assert abs(val[0] + m) < 1e-14
        assert np.max(np.abs(val[1:])) < 1e-14
