import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


def cross_cofactors(verts):
    """The np.cross form of `edge_cofactors`, kept as its reference."""
    e = verts[:, 1:] - verts[:, :1]
    cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
    e1, c1 = e[:, 0], cof[:, 0]
    return cof, e1[:, 0] * c1[:, 0] + e1[:, 1] * c1[:, 1] + e1[:, 2] * c1[:, 2]


@settings(max_examples=60, deadline=None)
@given(verts=hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(4), st.just(3)),
                        elements=st.floats(-0.6, 0.6)),
       flatness=st.sampled_from([0.0, 1e-300, 1e-15, 1e-8]))
def test_kernels_are_bit_equal_to_the_cross_form(verts, flatness):
    # each tet, its mirror image (last two vertices swapped) and a copy whose
    # last vertex sits `flatness` of its offset from the first three's centroid
    flat = verts.copy()
    flat[:, 3] = verts[:, :3].mean(axis=1) + flatness * (verts[:, 3] - verts[:, 0])
    tets = np.concatenate([verts, flat])
    tets = np.concatenate([tets, tets[:, [0, 1, 3, 2]]])
    ref_cof, ref_det = cross_cofactors(tets)
    cof, det = edge_cofactors(tets)
    assert cof.shape == ref_cof.shape
    assert np.ascontiguousarray(cof).tobytes() == ref_cof.tobytes()
    assert det.tobytes() == ref_det.tobytes()
    assert tet_determinants(tets).tobytes() == ref_det.tobytes()
    # the swap negates each determinant exactly (a zero may lose its sign)
    half = len(tets) // 2
    assert np.array_equal(det[half:], -det[:half])
