"""Quadrature rules, measures and the scipy extension loader."""

import math
import sys
import types

import numpy as np
import pytest

from cliffordprolate.special import (
    QuadratureRule,
    ball_volume,
    chebyshev_grid,
    gamma_fn,
    gauss_rule_unit_interval,
    scipy_extension,
    sphere_area,
)

from oracles import sphere_rule


def test_gauss_rule_polynomial_exactness():
    rule = gauss_rule_unit_interval(8)
    # degree 15 monomial is integrated exactly by 8-point Gauss
    assert abs(np.dot(rule.weights, rule.nodes ** 15) - 1.0 / 16) < 1e-15
    assert abs(np.sum(rule.weights) - 1.0) < 1e-15


BAD_RULES = {
    "node-below-0": ([-0.5, 0.5], [0.5, 0.5], "nodes must be finite and lie in"),
    "node-above-1": ([0.5, 1.5], [0.5, 0.5], "nodes must be finite and lie in"),
    "nan-node": ([0.5, math.nan], [0.5, 0.5], "nodes must be finite and lie in"),
    "inf-node": ([0.5, math.inf], [0.5, 0.5], "nodes must be finite and lie in"),
    "unequal-lengths": ([0.25, 0.75], [1.0], "1-D arrays of one nonzero length"),
    "2-d-nodes": ([[0.25, 0.75]], [[0.5, 0.5]], "1-D arrays of one nonzero length"),
    "scalar": (0.5, 1.0, "1-D arrays of one nonzero length"),
    "empty": ([], [], "1-D arrays of one nonzero length"),
    "zero-weight": ([0.25, 0.75], [1.0, 0.0], "weights must be finite and > 0"),
    "negative-weight": ([0.25, 0.75], [1.5, -0.5], "weights must be finite and > 0"),
    "nan-weight": ([0.25, 0.75], [0.5, math.nan], "weights must be finite and > 0"),
    "inf-weight": ([0.25, 0.75], [0.5, math.inf], "weights must be finite and > 0"),
}


@pytest.mark.parametrize("nodes, weights, message", BAD_RULES.values(), ids=BAD_RULES.keys())
def test_quadrature_rule_checks_its_arrays(nodes, weights, message):
    with pytest.raises(ValueError, match=message):
        QuadratureRule(nodes, weights)


def test_quadrature_rule_accepts_its_end_points():
    rule = QuadratureRule([0.0, 1.0], [0.5, 0.5])
    assert rule.nodes.tolist() == [0.0, 1.0] and not rule.nodes.flags.writeable


def test_quadrature_rule_leaves_the_callers_arrays_writable():
    nodes, weights = np.linspace(0.1, 0.9, 5), np.full(5, 0.2)
    rule = QuadratureRule(nodes, weights)
    for mine, kept in ((nodes, rule.nodes), (weights, rule.weights)):
        assert mine.flags.writeable and kept is not mine and not kept.flags.writeable
    nodes[0] = 0.5
    assert rule.nodes[0] == 0.1


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


def test_extension_already_loaded_is_reused(monkeypatch, fresh_loader):
    loaded = types.ModuleType("scipy.fake._ext")
    loaded.routine = object()
    monkeypatch.setitem(sys.modules, "scipy.fake._ext", loaded)
    assert scipy_extension("fake._ext", ("routine",), "math") is loaded


def test_extension_is_loaded_from_its_file(monkeypatch, fresh_loader):
    monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs", raising=False)
    module = scipy_extension("special._special_ufuncs", ("jv",), "scipy.special")
    assert module.__name__ == "scipy.special._special_ufuncs"
    assert sys.modules["scipy.special._special_ufuncs"] is module
    assert module.jv(0.5, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * math.sin(1.0), rel=1e-14)


@pytest.mark.parametrize("name, routines", [
    ("linalg._no_such_module", ("dstebz",)),  # no shared library
    ("linalg._flapack", ("dstebz", "no_such_routine")),  # the routine moved
])
def test_extension_falls_back_to_the_public_module(fresh_loader, name, routines):
    import scipy.linalg.lapack

    assert scipy_extension(name, routines, "scipy.linalg.lapack") is scipy.linalg.lapack
