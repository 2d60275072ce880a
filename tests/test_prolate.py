"""CPSWF assembly: spectral triple (chi, mu, lambda) and field evaluation."""

import math

import numpy as np
import pytest

from cliffordprolate.algebra import Multivector, embed, scalar_inner_coeffs
from cliffordprolate.legendre import radial_values
from cliffordprolate.monogenics import basis
from cliffordprolate.prolate import (
    eval_field,
    eval_field_coeffs,
    eval_radial,
    make_cpswf,
)
from cliffordprolate.special import gauss_rule_unit_interval


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

