import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from pdswave.charts import triangulate_face_chart
from pdswave.errors import DegenerateTet, SnapFailure
from pdswave.icosian import generate_group, rotation_of
from pdswave.meshing import (EXACT_DOMAIN_VOLUME, REPLICATION_ROTATIONS,
                             build_boundary_mesh, build_volume_mesh, face_counts,
                             generate_mesh, layer_radii, signed_tet_volumes,
                             validate_mesh, weighted_volume)


@pytest.fixture(scope="module")
def report22(the_domain, mesh22):
    return validate_mesh(the_domain, mesh22)


class TestReplicationRotations:
    def test_special_orthogonal(self):
        for rot in REPLICATION_ROTATIONS.values():
            assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-15
            assert abs(np.linalg.det(rot) - 1.0) < 1e-14

    def test_rotations_of_group_elements(self):
        # the constants are rotation_of of icosians up to round-off
        rots = rotation_of(generate_group().coeffs)
        for rot in REPLICATION_ROTATIONS.values():
            assert np.abs(rots - rot).max(axis=(1, 2)).min() <= 1e-15

    @pytest.mark.parametrize("i", [2, 3, 4, 5, 6])
    def test_maps_face1_vertices_onto_face_i(self, the_domain, i):
        img = the_domain.face_vertices3(1) @ REPLICATION_ROTATIONS[i].T
        tgt = the_domain.face_vertices3(i)
        d = np.abs(img[:, None, :] - tgt[None, :, :]).max(axis=2)
        assert d.min(axis=1).max() < 1e-14


class TestBoundary:
    def test_counts_and_tags(self, the_domain):
        n = 3
        surface = build_boundary_mesh(the_domain, triangulate_face_chart(the_domain, n))
        assert len(surface.tris) == 60 * n * n
        # twelve blocks of 5 n^2 triangles, block i spanning the nodes of face i
        node, face, _ = surface.periodic.T
        for i, block in enumerate(surface.tris.reshape(12, 5 * n * n, 3), start=1):
            assert np.array_equal(np.unique(block), node[face == i])
        assert len(surface.nodes) == 30 * n * n + 2

    def test_face1_nodes_on_printed_ellipsoid(self, the_domain):
        surface = build_boundary_mesh(the_domain, triangulate_face_chart(the_domain, 3))
        s = (1 + math.sqrt(5)) / 2
        q = np.array([[s + 2, s ** 3, 0], [s ** 3, 3 * s * s, 0], [0, 0, 1.0]])
        node, face, _ = surface.periodic.T
        for x in surface.nodes[node[face == 1]]:
            assert abs(x @ q @ x - 1.0) < 1e-12

    def test_opposite_face_nodes_are_images(self, the_domain):
        surface = build_boundary_mesh(the_domain, triangulate_face_chart(the_domain, 3))
        m = the_domain.face_map(1).matrix3
        node, face, _ = surface.periodic.T
        face7 = surface.nodes[node[face == 7]]
        for x in surface.nodes[node[face == 1]]:
            best = np.abs(face7 - m @ x).max(axis=1).min()
            assert best < 1e-12

    def test_snap_failure_detected(self, the_domain):
        chart = triangulate_face_chart(the_domain, 2)
        chart.sphere[4] = chart.sphere[4] + 1e-4
        with pytest.raises(SnapFailure):
            build_boundary_mesh(the_domain, chart)


class TestVolume:
    @pytest.mark.parametrize("n,layers", [(1, 1), (2, 2), (2, 3)])
    def test_tet_count_formula(self, the_domain, n, layers):
        mesh = generate_mesh(the_domain, n, layers)
        assert len(mesh.tets) == 60 * n * n * (3 * (layers - 1) + 1)

    def test_volumes_positive(self, mesh22):
        assert signed_tet_volumes(mesh22.vertices, mesh22.tets).min() > 0

    def test_no_new_boundary_nodes(self, the_domain):
        chart = triangulate_face_chart(the_domain, 2)
        surface = build_boundary_mesh(the_domain, chart)
        mesh = build_volume_mesh(the_domain, surface, 3)
        offset = 1 + 2 * len(surface.nodes)
        assert np.abs(mesh.vertices[offset:] - surface.nodes).max() == 0.0

    def test_conforming(self, report22):
        assert report22["conforming"]
        assert report22["boundary_matches_tags"]

    def test_triangle_shared_by_three_tets_not_conforming(self, the_domain, mesh22,
                                                          triple_face_tets):
        bad = dataclasses.replace(mesh22, tets=triple_face_tets)
        assert not validate_mesh(the_domain, bad)["conforming"]

    def test_partner_involution(self, report22):
        assert report22["partner_involution"]
        assert report22["max_partner_mismatch"] < 1e-12

    def test_vertices_inside(self, report22):
        assert report22["vertices_inside"]

    def test_edge_ratio(self, report22):
        assert report22["edge_ratio_ok"]
        assert report22["boundary_edge_ratio"] <= 4.0

    def test_grading(self):
        # uniform layers: t_k = k / L
        assert layer_radii(4).tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_volume_convergence_second_order(self, the_domain):
        errs = []
        for n in (2, 4, 8):
            mesh = generate_mesh(the_domain, n, n)
            vol = weighted_volume(mesh)
            errs.append(abs(vol - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME)
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_layer_validation_rejects_bad_layers(the_domain):
    surface = build_boundary_mesh(the_domain, triangulate_face_chart(the_domain, 1))
    with pytest.raises(ValueError):
        build_volume_mesh(the_domain, surface, 0)


def test_flat_tet_rejected(the_domain):
    # a triangle with a repeated node cones to a tet of volume 0
    surface = build_boundary_mesh(the_domain, triangulate_face_chart(the_domain, 1))
    tris = surface.tris.copy()
    tris[0, 2] = tris[0, 1]
    with pytest.raises(DegenerateTet, match="tet 0 has volume"):
        build_volume_mesh(the_domain, dataclasses.replace(surface, tris=tris), 1)


@st.composite
def tet_arrays(draw):
    """(T, 4) vertex ids; a small id range makes many shared triangles."""
    top = draw(st.sampled_from([3, 10, 100, 2_000_000]))
    count = draw(st.integers(1, 40))
    return draw(arrays(np.int64, (count, 4), elements=st.integers(0, top)))


@given(tet_arrays())
def test_face_counts_matches_row_unique(tets):
    faces = np.vstack([tets[:, [1, 2, 3]], tets[:, [0, 2, 3]],
                       tets[:, [0, 1, 3]], tets[:, [0, 1, 2]]])
    ref_uniq, ref_counts = np.unique(np.sort(faces, axis=1), axis=0, return_counts=True)
    uniq, counts = face_counts(tets)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(counts, ref_counts)


def test_face_counts_rejects_ids_overflowing_the_key():
    tets = np.array([[0, 1, 2, 3_000_000]])
    with pytest.raises(ValueError, match="int64"):
        face_counts(tets)
