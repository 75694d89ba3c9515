import math

import numpy as np
import pytest

from pdswave.domain import (DOMAIN_DIAMETER, FACE_VERTEX_IMAGES, SIGMA, VERTEX_X0,
                            geodesic_point, lift)
from pdswave.errors import AntipodalEndpoints, NotInDomain, OutsideUnitBall
from pdswave.icosian import Quaternion

S2 = SIGMA * SIGMA
SCALE = 1.0 / (2.0 * math.sqrt(2.0))


class TestConstruction:
    def test_vertex_s2(self, the_domain):
        expected = np.array([S2, 1.0, 1.0 / S2, 0.0]) * SCALE
        assert np.abs(the_domain.vertices4[1] - expected).max() < 1e-15

    def test_unit_norm_and_x0(self, the_domain):
        v = the_domain.vertices4
        assert np.abs(np.einsum("ij,ij->i", v, v) - 1).max() < 1e-14
        assert np.abs(v[:, 0] - S2 * SCALE).max() < 1e-15

    def test_f1_hyperplane(self, the_domain):
        f1 = the_domain.face(1)
        assert np.abs(f1.normal - [-1 / SIGMA, -1.0, 0.0]).max() < 1e-15
        verts = the_domain.vertices4[list(f1.cycle)]
        res = verts[:, 1:] @ f1.normal - verts[:, 0] / S2
        assert np.abs(res).max() < 1e-14

    def test_vertex_scale_rederived(self, the_domain):
        # solve d(C1, C8) = pi/5 for the vertex scale: the inner product of two
        # adjacent-cap vertices is 1 - lam^2 sigma^2 / 9, so
        # lam^2 = 9 (1 - cos(pi/5)) / sigma^2 = (9/2) / sigma^4
        lam2 = 9.0 * (1.0 - math.cos(math.pi / 5)) / SIGMA ** 2
        assert abs(lam2 - 4.5 / SIGMA ** 4) < 1e-14
        # and the corresponding vertex coordinate lam*sigma/6 matches the table
        lam = math.sqrt(lam2)
        assert abs(lam * SIGMA / 6 - SCALE / SIGMA) < 1e-15

    def test_ellipsoids_match_closed_forms(self, the_domain):
        s3 = SIGMA ** 3
        q17 = np.array([[SIGMA + 2, s3, 0], [s3, 3 * S2, 0], [0, 0, 1.0]])
        assert np.abs(the_domain.face(1).ellipsoid - q17).max() < 1e-12
        assert np.abs(the_domain.face(7).ellipsoid - q17).max() < 1e-12
        q28 = np.array([[3 * S2, 0, -s3], [0, 1.0, 0], [-s3, 0, SIGMA + 2]])
        assert np.abs(the_domain.face(2).ellipsoid - q28).max() < 1e-12

    def test_face_maps_match_printed_matrices(self, the_domain):
        s = SIGMA
        # entry (3,1) of the face-2 map must be +s, not -s: only +s maps the
        # face-2 vertex S18 onto S15 as the identification requires
        printed = {
            1: [[1 / s, -s, 1], [-s, -1, -1 / s], [-1, 1 / s, s]],
            2: [[-1, 1 / s, s], [-1 / s, s, -1], [s, 1, 1 / s]],
            3: [[s, 1, 1 / s], [-1, 1 / s, s], [-1 / s, s, -1]],
            4: [[1 / s, s, 1], [s, -1, 1 / s], [-1, -1 / s, s]],
            5: [[s, -1, 1 / s], [1, 1 / s, -s], [-1 / s, -s, -1]],
            6: [[-1, -1 / s, -s], [1 / s, s, -1], [-s, 1, 1 / s]],
        }
        for i, rows in printed.items():
            assert np.abs(the_domain.face_map(i).matrix3 - 0.5 * np.array(rows)).max() < 1e-14

    def test_face_map_inverses(self, the_domain):
        for i in range(1, 7):
            a = the_domain.face_map(i)
            b = the_domain.face_map(i + 6)
            assert a.inverse_index == i + 6 and b.inverse_index == i
            assert np.abs(a.matrix3 @ b.matrix3 - np.eye(3)).max() < 1e-14

    def test_listed_vertex_images(self, the_domain):
        v4 = the_domain.vertices4
        v3 = the_domain.vertices3
        for i, images in FACE_VERTEX_IMAGES.items():
            q = the_domain.face_map(i).quat
            m = the_domain.face_map(i).matrix3
            for src, dst in images.items():
                got = (q * Quaternion(*v4[src - 1])).as_array()
                assert np.abs(got - v4[dst - 1]).max() < 1e-12
                assert np.abs(m @ v3[src - 1] - v3[dst - 1]).max() < 1e-12

    def test_vertex_visual_radius(self, the_domain):
        r2 = np.einsum("ij,ij->i", the_domain.vertices3, the_domain.vertices3)
        expected = (1 + SIGMA ** -4) / 8
        assert np.abs(r2 - expected).max() < 1e-14
        assert expected < 1.0


class TestLift:
    def test_origin(self):
        assert np.allclose(lift([0, 0, 0]), [1, 0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-0.5, 0.5, size=(40, 3))
        q = lift(X)
        assert np.abs(q[:, 1:] - X).max() == 0.0
        assert np.abs(np.einsum("ij,ij->i", q, q) - 1).max() < 1e-14

    def test_batch_shape_and_rows(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-0.5, 0.5, size=(2, 5, 3))
        q = lift(X)
        assert q.shape == (2, 5, 4)
        assert np.array_equal(q.reshape(-1, 4), lift(X.reshape(-1, 3)))
        assert np.array_equal(q[1, 3], lift(X[1, 3]))

    def test_lift_of_s2_visual(self, the_domain):
        X = np.array([1.0, 1.0 / S2, 0.0]) * SCALE
        assert np.abs(lift(X) - the_domain.vertices4[1]).max() < 1e-14

    def test_outside_ball(self):
        with pytest.raises(OutsideUnitBall):
            lift([1.1, 0, 0])
        with pytest.raises(OutsideUnitBall):
            lift([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestContains:
    def test_origin_inside(self, the_domain):
        assert the_domain.contains([0.0, 0.0, 0.0])

    def test_beyond_vertex_outside(self, the_domain):
        X = 1.01 * the_domain.vertices3[1]
        assert not the_domain.contains(X)
        assert the_domain.face_residuals(X).max() > 0

    def test_face_barycenter_projection_on_boundary(self, the_domain):
        # scale the flat barycenter onto the curved face, then test with boundary tolerance
        c = the_domain.face_center3(1)
        q = the_domain.face(1).ellipsoid
        X = c / math.sqrt(c @ q @ c)
        assert the_domain.contains(X, tol=1e-9)
        assert abs(the_domain.face_residuals(X)[0]) < 1e-14

    def test_array_input_gives_one_answer_per_point(self, the_domain):
        X = np.array([[0.0, 0.0, 0.0], 0.99 * the_domain.vertices3[1],
                      1.01 * the_domain.vertices3[1]])
        inside = the_domain.contains(X)
        assert inside.shape == (3,)
        assert inside.tolist() == [True, True, False]
        assert [bool(the_domain.contains(x)) for x in X] == inside.tolist()
        assert the_domain.contains(X.reshape(1, 3, 3)).shape == (1, 3)

    @pytest.mark.parametrize("X", [[1.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]])
    def test_outside_ball_raises(self, the_domain, X):
        with pytest.raises(OutsideUnitBall):
            the_domain.contains(X)


class TestGeodesic:
    def test_endpoints(self, the_domain):
        a, b = the_domain.vertices4[4], the_domain.vertices4[19]
        assert np.abs(geodesic_point(a, b, 0.0) - a).max() < 1e-15
        assert np.abs(geodesic_point(a, b, 1.0) - b).max() < 1e-14

    def test_midpoint_symmetric(self, the_domain):
        a, b = the_domain.vertices4[4], the_domain.vertices4[19]  # S5, S20
        mid = geodesic_point(a, b, 0.5)
        expected = (a + b) / np.linalg.norm(a + b)
        assert np.abs(mid - expected).max() < 1e-14
        da = math.acos(np.clip(mid @ a, -1, 1))
        db = math.acos(np.clip(mid @ b, -1, 1))
        assert abs(da - db) < 1e-12

    def test_adjacent_vertex_inner_product(self, the_domain):
        a, b = the_domain.vertices4[4], the_domain.vertices4[19]
        assert abs(a @ b - (3 * SIGMA - 1) / 4) < 1e-14
        assert abs(a @ b - 0.963525) < 1e-6

    def test_unit_norm_along_arc(self, the_domain):
        a, b = the_domain.vertices4[2], the_domain.vertices4[17]
        for t in np.linspace(0, 1, 11):
            p = geodesic_point(a, b, t)
            assert abs(p @ p - 1) < 1e-14

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalEndpoints):
            geodesic_point([1, 0, 0, 0], [-1, 0, 0, 0], 0.5)


class TestClassify:
    def test_interior_singleton(self, the_domain):
        c = the_domain.classify([0.0, 0.0, 0.0])
        assert len(c.members) == 1 and c.faces == ()

    def test_vertex_class(self, the_domain):
        c = the_domain.classify(the_domain.vertices3[2], tol=1e-9)  # S3
        assert len(c.members) == 4
        # contains g_1(S3) = S6
        assert np.min(np.abs(c.members - the_domain.vertices3[5]).max(axis=1)) < 1e-12

    def test_twenty_vertices_give_five_classes(self, the_domain):
        keys = set()
        for v in the_domain.vertices3:
            c = the_domain.classify(v, tol=1e-9)
            keys.add(tuple(sorted(tuple(np.round(m, 9)) for m in c.members)))
        assert len(keys) == 5

    def test_face_interior_pair(self, the_domain):
        c0 = the_domain.face_center3(1)
        q = the_domain.face(1).ellipsoid
        X = c0 / math.sqrt(c0 @ q @ c0)
        c = the_domain.classify(X, tol=1e-9)
        assert len(c.members) == 2 and c.faces == (1,)
        partner = c.members[1]
        assert abs(the_domain.face_residuals(partner)[6]) < 1e-12  # lies on F7

    def test_edge_class_of_three(self, the_domain):
        a, b = the_domain.vertices4[2], the_domain.vertices4[17]  # S3-S18 edge (F1 and F2)
        X = geodesic_point(a, b, 0.37)[1:]
        c = the_domain.classify(X, tol=1e-9)
        assert len(c.members) == 3 and set(c.faces) == {1, 2}

    def test_idempotent(self, the_domain):
        X = the_domain.vertices3[2]
        c = the_domain.classify(X, tol=1e-9)
        ref = sorted(tuple(np.round(m, 9)) for m in c.members)
        for m in c.members:
            c2 = the_domain.classify(m, tol=1e-9)
            assert sorted(tuple(np.round(x, 9)) for x in c2.members) == ref

    def test_outside_rejected(self, the_domain):
        with pytest.raises(NotInDomain):
            the_domain.classify([0.5, 0.5, 0.5])


class TestNormalFlip:
    def sample_face_points(self, dom, i, count, seed):
        rng = np.random.default_rng(seed)
        verts = dom.vertices4[list(dom.face(i).cycle)]
        w = rng.dirichlet(np.ones(5), size=count)
        pts4 = w @ verts
        pts4 /= np.linalg.norm(pts4, axis=1, keepdims=True)
        return pts4[:, 1:]

    @pytest.mark.parametrize("i", range(1, 13))
    def test_normal_flip_identity(self, the_domain, i):
        pts = self.sample_face_points(the_domain, i, 200, seed=i)
        j = the_domain.face_map(i).inverse_index
        for X in pts:
            lhs = the_domain.map_face_normal(i, X)
            rhs = -the_domain.outward_normal(j, the_domain.identify(X, i))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_jacobian_matches_linear_map_on_tangents(self, the_domain):
        # the linear face matrix and the full Jacobian agree on face tangents
        pts = self.sample_face_points(the_domain, 1, 20, seed=99)
        m = the_domain.face_map(1).matrix3
        for X in pts:
            jac = the_domain.induced_jacobian(1, X)
            nu = the_domain.outward_normal(1, X)
            rng = np.random.default_rng(0)
            d = rng.normal(size=3)
            d -= (d @ nu) * nu  # not a face tangent yet: project onto constraint
            grad = the_domain.face(1).normal + X / (SIGMA ** 2 * math.sqrt(1 - X @ X))
            d -= (d @ grad) / (grad @ grad) * grad
            assert np.abs(jac @ d - m @ d).max() < 1e-12


class TestMetrics:
    def test_diameter_value(self):
        assert abs(DOMAIN_DIAMETER - 0.776279) < 1e-6
        assert abs(DOMAIN_DIAMETER - 2 * math.acos(VERTEX_X0)) < 1e-15

    def test_diameter_equals_s1_s14_distance(self, the_domain):
        d = the_domain.vertex_distance_table()
        assert abs(d[0, 13] - DOMAIN_DIAMETER) < 1e-6
        # closed form of the same distance
        assert abs(d[0, 13] - math.acos((3 * SIGMA - 2) / 4)) < 1e-14

    def test_self_distance_zero(self, the_domain):
        d = the_domain.vertex_distance_table()
        assert np.abs(np.diag(d)).max() < 1e-7

    def test_json_dump(self, the_domain):
        import json
        data = json.loads(the_domain.to_json())
        assert len(data["vertices4"]) == 20
        assert len(data["faces"]) == 12
        assert len(data["maps"]) == 12


def test_face_normal_pattern(the_domain):
    import numpy as np
    for f in the_domain.faces:
        pattern = np.sort(np.abs(f.normal))
        assert np.abs(pattern - [0.0, 1.0 / SIGMA, 1.0]).max() < 1e-15
