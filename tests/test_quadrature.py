import numpy as np
import pytest

from pdswave.errors import WeightSingularity
from pdswave.meshing import generate_mesh
from pdswave.quadrature import (QUADRATURE, edge_cofactors, quadrature_weights,
                                reference_monomial_integral, tet_determinants)


def quad_monomial(rule, p, q, r):
    xyz = rule.points[:, 1:]
    return float((rule.weights * xyz[:, 0] ** p * xyz[:, 1] ** q * xyz[:, 2] ** r).sum())


def test_constant_is_reference_volume():
    assert abs(QUADRATURE.weights.sum() - 1.0 / 6.0) < 1e-16


def test_monomial_sweep():
    # the nominal degree is 4; the 14-point rule is exact to degree 5
    assert QUADRATURE.degree == 4
    assert reference_monomial_integral(1, 1, 0) == 1.0 / 120.0
    for p in range(6):
        for q in range(6 - p):
            for r in range(6 - p - q):
                err = abs(quad_monomial(QUADRATURE, p, q, r)
                          - reference_monomial_integral(p, q, r))
                assert err < 1e-14, (p, q, r)


def test_points_inside_simplex():
    assert QUADRATURE.points.shape == (14, 4)
    assert QUADRATURE.points.min() > 0
    assert np.abs(QUADRATURE.points.sum(axis=1) - 1).max() < 1e-15
    assert QUADRATURE.weights.min() > 0


def test_rule_is_read_only():
    for arr in (QUADRATURE.points, QUADRATURE.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_weighted_quadrature_near_origin():
    # a small tet at the origin: w ~ 1, so det * sum(wq) ~ 6 * volume
    verts = 1e-3 * np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    det, wq = np.abs(edge_cofactors(verts)[1]), quadrature_weights(verts)
    assert det[0] == pytest.approx(1e-9, rel=1e-12)
    assert (det * wq.sum(axis=1))[0] == pytest.approx(1e-9 / 6, rel=1e-6)


def test_weighted_quadrature_rejects_points_outside_ball():
    verts = np.array([[[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]])
    with pytest.raises(WeightSingularity):
        quadrature_weights(verts)


def test_weights_from_gram_match_the_points():
    # |X|^2 from the vertex Gram matrix agrees with the physical points
    rng = np.random.default_rng(5)
    verts = rng.uniform(-0.4, 0.4, size=(50, 4, 3))
    wq = quadrature_weights(verts)
    pts = QUADRATURE.points @ verts
    ref = QUADRATURE.weights / np.sqrt(1.0 - (pts ** 2).sum(axis=2))
    assert np.abs(wq - ref).max() <= 1e-15 * ref.max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tet_determinants_equal_the_cofactor_determinants(the_domain, n):
    mesh = generate_mesh(the_domain, n, n)
    verts = mesh.vertices[mesh.tets]
    assert tet_determinants(verts).tobytes() == edge_cofactors(verts)[1].tobytes()


def test_tet_determinants_of_one_tet():
    verts = np.array([[[0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.05, 0.2, 0.1],
                       [0.1, 0.1, 0.3]]]) + 1.0 / 3.0
    det = tet_determinants(verts)
    assert det.shape == (1,)
    assert det.tobytes() == edge_cofactors(verts)[1].tobytes()
    assert det[0] == pytest.approx(np.linalg.det(verts[0, 1:] - verts[0, 0]))
