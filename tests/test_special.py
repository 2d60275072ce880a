"""Quadrature rules and special-function helpers."""

import math

import numpy as np
import pytest

from cliffordprolate.special import (
    ball_volume,
    bessel_j,
    chebyshev_grid,
    default_nodes,
    default_tol,
    gamma_fn,
    gauss_rule_unit_interval,
    sphere_area,
    sphere_rule,
    weighted_inner,
)


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("CPSWF_TOL", "1e-8")
    monkeypatch.setenv("CPSWF_NODES", "512")
    assert default_tol() == 1e-8
    assert default_nodes() == 512


@pytest.mark.parametrize("name, value, read", [
    ("CPSWF_TOL", "abc", default_tol),
    ("CPSWF_TOL", "", default_tol),
    ("CPSWF_NODES", "abc", default_nodes),
    ("CPSWF_NODES", "1.5", default_nodes),
])
def test_env_overrides_reject_non_numbers(monkeypatch, name, value, read):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"^{name} must be .*, got '{value}'$"):
        read()


def test_gauss_rule_polynomial_exactness():
    rule = gauss_rule_unit_interval(8)
    # degree 15 monomial is integrated exactly by 8-point Gauss
    assert abs(rule.integrate(rule.nodes ** 15) - 1.0 / 16) < 1e-15
    assert abs(np.sum(rule.weights) - 1.0) < 1e-15


def test_bessel_against_series():
    # J_nu(x) = sum_j (-1)^j (x/2)^(nu+2j) / (j! Gamma(nu+j+1))
    for nu, x in [(0.0, 1.3), (1.0, 2.1), (0.5, 0.7), (2.5, 3.3)]:
        series = sum((-1) ** j * (x / 2) ** (nu + 2 * j)
                     / (math.gamma(j + 1) * math.gamma(nu + j + 1))
                     for j in range(40))
        assert abs(bessel_j(nu, x) - series) < 1e-13


def test_gamma_matches_math():
    for x in [0.5, 1.0, 2.5, 7.0]:
        assert abs(gamma_fn(x) - math.gamma(x)) < 1e-12


@pytest.mark.parametrize("m,vol,area", [(2, math.pi, 2 * math.pi),
                                        (3, 4 * math.pi / 3, 4 * math.pi)])
def test_ball_and_sphere_measures(m, vol, area):
    assert abs(ball_volume(m) - vol) < 1e-14
    assert abs(sphere_area(m) - area) < 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_sphere_rule_total_mass_and_moments(m):
    rule = sphere_rule(m, 24)
    assert abs(np.sum(rule.weights) - sphere_area(m)) < 1e-12
    # odd moments vanish, second moments are |S^(m-1)|/m
    for j in range(m):
        assert abs(np.dot(rule.weights, rule.nodes[:, j])) < 1e-12
        second = np.dot(rule.weights, rule.nodes[:, j] ** 2)
        assert abs(second - sphere_area(m) / m) < 1e-10


def test_weighted_inner_monomials():
    val = weighted_inner(lambda t: t ** 2, lambda t: t ** 3, 1.5)
    # int_0^1 t^(5+1.5) dt = 1/7.5
    assert abs(val - 1 / 7.5) < 1e-12


def test_chebyshev_grid_interior():
    g = chebyshev_grid(32)
    assert np.all(g > 0) and np.all(g < 1)
    assert np.all(np.diff(g) > 0)
