import numpy as np
import pytest

from pdswave.errors import UnsupportedDegree, WeightSingularity
from pdswave.quadrature import (quadrature_rule, reference_monomial_integral,
                                weighted_quadrature)


def quad_monomial(rule, p, q, r):
    xyz = rule.points[:, 1:]
    return float((rule.weights * xyz[:, 0] ** p * xyz[:, 1] ** q * xyz[:, 2] ** r).sum())


def test_constant_is_reference_volume():
    for deg in (2, 4):
        rule = quadrature_rule(deg)
        assert abs(rule.weights.sum() - 1.0 / 6.0) < 1e-16


def test_degree2_xy_monomial():
    rule = quadrature_rule(2)
    assert abs(quad_monomial(rule, 1, 1, 0) - 1.0 / 120.0) < 1e-15
    assert reference_monomial_integral(1, 1, 0) == pytest.approx(1.0 / 120.0, abs=0)


@pytest.mark.parametrize("deg,max_exact", [(2, 2), (4, 4)])
def test_monomial_sweep(deg, max_exact):
    rule = quadrature_rule(deg)
    for p in range(max_exact + 1):
        for q in range(max_exact + 1 - p):
            for r in range(max_exact + 1 - p - q):
                err = abs(quad_monomial(rule, p, q, r)
                          - reference_monomial_integral(p, q, r))
                assert err < 1e-14, (p, q, r)


def test_points_inside_simplex():
    for deg in (2, 4):
        rule = quadrature_rule(deg)
        assert rule.points.min() > 0
        assert np.abs(rule.points.sum(axis=1) - 1).max() < 1e-15
        assert rule.weights.min() > 0


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        quadrature_rule(3)


def test_weighted_quadrature_near_origin():
    # a small tet at the origin: w ~ 1, so det * sum(wq) ~ 6 * volume
    verts = 1e-3 * np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    det, wq = weighted_quadrature(verts, quadrature_rule(4))
    assert det[0] == pytest.approx(1e-9, rel=1e-12)
    assert (det * wq.sum(axis=1))[0] == pytest.approx(1e-9 / 6, rel=1e-6)


def test_weighted_quadrature_rejects_points_outside_ball():
    verts = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]])
    with pytest.raises(WeightSingularity):
        weighted_quadrature(verts, quadrature_rule(2))


@pytest.mark.parametrize("deg", [2, 4])
def test_weights_from_gram_match_the_points(deg):
    # |X|^2 from the vertex Gram matrix agrees with the physical points
    rule = quadrature_rule(deg)
    rng = np.random.default_rng(5)
    verts = rng.uniform(-0.4, 0.4, size=(50, 4, 3))
    _, wq = weighted_quadrature(verts, rule)
    pts = rule.points @ verts
    ref = rule.weights / np.sqrt(1.0 - (pts ** 2).sum(axis=2))
    assert np.abs(wq - ref).max() <= 1e-15 * ref.max()
