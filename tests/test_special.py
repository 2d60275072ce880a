"""Quadrature rules, measures and environment overrides."""

import math

import numpy as np
import pytest

from cliffordprolate.special import (
    ball_volume,
    chebyshev_grid,
    default_nodes,
    default_tol,
    gamma_fn,
    gauss_rule_unit_interval,
    sphere_area,
    sphere_rule,
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
    assert abs(np.dot(rule.weights, rule.nodes ** 15) - 1.0 / 16) < 1e-15
    assert abs(np.sum(rule.weights) - 1.0) < 1e-15


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


def test_chebyshev_grid_interior():
    g = chebyshev_grid(32)
    assert np.all(g > 0) and np.all(g < 1)
    assert np.all(np.diff(g) > 0)
