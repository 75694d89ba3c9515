import math

import numpy as np
import pytest

from pdswave import charts
from pdswave.domain import VERTEX_X0, lift_many
from pdswave.errors import InvalidSubdivision, OffPlane


def random_plane_points(rng, count):
    # points of the face-1 pentagon plane: -(1/sigma) x - y = 1/(2 sqrt2)
    xy = rng.uniform(-0.2, 0.2, size=(count, 2))
    return np.array([charts.chart_inverse(p) for p in xy])


def test_edge_midpoint_to_origin(the_domain):
    mid = (the_domain.vertices3[4] + the_domain.vertices3[19]) / 2
    assert np.abs(charts.chart_forward(mid)).max() < 1e-15


def test_rotation_is_special_orthogonal():
    r = charts.ROTATION
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-15
    assert abs(np.linalg.det(r) - 1.0) < 1e-14


def test_face_vertices_land_in_plane(the_domain):
    for v in the_domain.face_vertices3(1):
        z = (charts.ROTATION @ (v - charts.EDGE_MIDPOINT))[2]
        assert abs(z) < 1e-12


def test_round_trip():
    rng = np.random.default_rng(4)
    for X in random_plane_points(rng, 100):
        xy = charts.chart_forward(X)
        assert np.abs(charts.chart_inverse(xy) - X).max() < 1e-12


def test_off_plane_rejected():
    with pytest.raises(OffPlane):
        charts.chart_forward([0.0, 0.0, 0.0])


def test_embed_project_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        xy = rng.uniform(-0.15, 0.15, 2)
        q = charts.chart_embed(xy)
        assert abs(q @ q - 1.0) < 1e-14
        # back to the barycenter plane along the ray through the origin
        assert np.abs(charts.chart_forward(q[1:] * (VERTEX_X0 / q[0])) - xy).max() < 1e-12


def test_embedded_points_lie_on_face_one(the_domain):
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = charts.chart_embed(rng.uniform(-0.1, 0.1, 2))
        res = the_domain.face_residuals(q[1:])
        assert abs(res[0]) < 1e-14


class TestTriangulation:
    @pytest.mark.parametrize("n,verts,tris", [(1, 6, 5), (2, 16, 20), (3, 31, 45)])
    def test_counts(self, the_domain, n, verts, tris):
        ch = charts.triangulate_face_chart(the_domain, n)
        assert len(ch.sphere) == verts
        assert len(ch.triangles) == tris

    def test_invalid_subdivision(self, the_domain):
        with pytest.raises(InvalidSubdivision):
            charts.triangulate_face_chart(the_domain, 0)

    def test_positive_orientation(self, the_domain):
        # counterclockwise in the chart: each normal points out of face 1
        ch = charts.triangulate_face_chart(the_domain, 3)
        p = ch.sphere[ch.triangles]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        assert (normals @ the_domain.face_center3(1)).min() > 0

    def test_boundary_nodes_equally_spaced_in_arc(self, the_domain):
        n = 5
        ch = charts.triangulate_face_chart(the_domain, n)
        nodes4 = lift_many(ch.sphere)
        cycle = the_domain.face(1).cycle
        corners4 = the_domain.vertices4[list(cycle)]
        for k in range(5):
            a, b = corners4[k], corners4[(k + 1) % 5]
            # the nodes on the great circle through the edge's two corners
            basis = np.linalg.qr(np.column_stack([a, b]))[0]
            off = np.linalg.norm(nodes4 - (nodes4 @ basis) @ basis.T, axis=1)
            edge = nodes4[off < 1e-12]
            assert len(edge) == n + 1
            pts = edge[np.argsort(-(edge @ a))]
            arcs = [math.acos(np.clip(u @ v, -1, 1)) for u, v in zip(pts, pts[1:])]
            assert max(arcs) - min(arcs) < 1e-10

    def test_sphere_points_unit_and_on_face(self, the_domain):
        # the x1..x3 points lie in the unit ball and lift onto face 1 of S^3
        ch = charts.triangulate_face_chart(the_domain, 4)
        assert np.einsum("ij,ij->i", ch.sphere, ch.sphere).max() < 1
        res = np.array([the_domain.face_residuals(x)[0] for x in ch.sphere])
        assert np.abs(res).max() < 1e-13
        q1 = the_domain.face(1).ellipsoid
        form = np.einsum("ij,jk,ik->i", ch.sphere, q1, ch.sphere)
        assert np.abs(form - 1).max() < 1e-14
