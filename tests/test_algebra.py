"""Axioms and identities of the dense Clifford algebra arithmetic."""

import numpy as np
import pytest
from oracles import clifford_mul, scalar_inner_coeffs

from cliffordprolate.algebra import (
    Multivector,
    blade_product,
    conj_coeffs,
    conjugation_signs,
    embed,
    embed_coeffs,
    grades,
    left_mul_matrix,
    mul_coeffs,
)


def random_mv(m, rng):
    return Multivector(m, rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_generators_square_to_minus_one(m):
    for j in range(m):
        mask = 1 << j
        sign, out = blade_product(mask, mask)
        assert out == 0 and sign == -1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_generators_anticommute(m):
    for a in range(m):
        for b in range(a + 1, m):
            s1, o1 = blade_product(1 << a, 1 << b)
            s2, o2 = blade_product(1 << b, 1 << a)
            assert o1 == o2 and s1 == -s2


@pytest.mark.parametrize("m", [2, 3])
def test_associativity(m):
    rng = np.random.default_rng(7)
    u, v, w = (random_mv(m, rng) for _ in range(3))
    lhs = (u * v) * w
    rhs = u * (v * w)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_unit_element(m):
    rng = np.random.default_rng(8)
    u = random_mv(m, rng)
    one = Multivector.scalar(m, 1.0)
    assert np.allclose((one * u).coeffs, u.coeffs)
    assert np.allclose((u * one).coeffs, u.coeffs)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_conjugation_antiautomorphism(m):
    rng = np.random.default_rng(9)
    u, v = random_mv(m, rng), random_mv(m, rng)
    lhs = (u * v).conjugate()
    rhs = v.conjugate() * u.conjugate()
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_conjugation_sign_formula(m):
    signs = conjugation_signs(m)
    g = grades(m)
    expect = (-1.0) ** (g * (g + 1) // 2)
    assert np.array_equal(signs, expect)


@pytest.mark.parametrize("m", [2, 3])
def test_vector_square_is_minus_norm(m):
    rng = np.random.default_rng(10)
    x = rng.standard_normal(m)
    v = embed(x, m)
    sq = v * v
    assert abs(sq.scalar_part() + np.dot(x, x)) < 1e-14
    sq_coeffs = np.array(sq.coeffs, copy=True)
    sq_coeffs[0] = 0
    assert np.max(np.abs(sq_coeffs)) < 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_scalar_inner_positive_definite(m):
    rng = np.random.default_rng(11)
    u = random_mv(m, rng)
    val = complex(scalar_inner_coeffs(m, u.coeffs, u.coeffs))
    assert abs(val.imag) < 1e-14
    assert val.real > 0
    assert abs(val.real - u.norm() ** 2) < 1e-12


def test_left_mul_matrix_consistent():
    m = 3
    rng = np.random.default_rng(12)
    g = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    u = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    direct = mul_coeffs(m, g, u)
    via_mat = left_mul_matrix(m, g) @ u
    assert np.allclose(direct, via_mat, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
@pytest.mark.parametrize("u_shape, v_shape", [
    ((), ()), ((3,), ()), ((), (3,)), ((3,), (3,)),
], ids=["one-one", "batch-one", "one-batch", "batch-batch"])
def test_mul_coeffs_against_sorted_sign_oracle(m, u_shape, v_shape):
    rng = np.random.default_rng(17)
    n = 2 ** m
    u = rng.standard_normal(u_shape + (n,)) + 1j * rng.standard_normal(u_shape + (n,))
    v = rng.standard_normal(v_shape + (n,)) + 1j * rng.standard_normal(v_shape + (n,))
    got = mul_coeffs(m, u, v)
    want = clifford_mul(m, u, v)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_left_mul_matrix_matches_mul_coeffs_m8():
    m = 8
    rng = np.random.default_rng(18)
    g = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    u = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    assert np.allclose(left_mul_matrix(m, g) @ u, mul_coeffs(m, g, u), rtol=0, atol=1e-12)


def test_embed_coeffs_batched():
    m = 3
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, m))
    batch = embed_coeffs(m, x)
    for j in range(5):
        assert np.allclose(batch[j], embed(x[j], m).coeffs)


def test_conj_coeffs_involution():
    m = 3
    rng = np.random.default_rng(14)
    u = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    assert np.allclose(conj_coeffs(m, conj_coeffs(m, u)), u)


def test_scalar_part_of_conj_product_is_inner_product():
    # [conj(u) v]_0 = sum_A conj(u_A) v_A: conjugation undoes each e_A e_A sign
    m = 2
    rng = np.random.default_rng(15)
    u, v = random_mv(m, rng), random_mv(m, rng)
    want = mul_coeffs(m, conj_coeffs(m, u.coeffs), v.coeffs)[0]
    assert abs(scalar_inner_coeffs(m, u.coeffs, v.coeffs) - want) < 1e-13
