"""Periodic tetrahedral meshes of the fundamental dodecahedron.

Boundary first: the chart triangulation of face 1, whose nodes the chart
places on the curved face, is checked against the face-1 ellipsoid and
carried to faces 2..6 by dodecahedron rotations and to faces 7..12 by the
face-identification maps, so the triangulations of opposite faces
correspond under the identifications by construction.  The volume is then
filled using star-shapedness about the origin: scaled copies of the surface
nodes on L radial layers, prisms between layers split into three tets each
by a global-vertex-index diagonal rule, and an innermost layer coned to the
origin.  No node is added on the boundary itself.

The face identifications reach the solver as one int64 array `periodic` of
(node, face, partner) rows, one per boundary node v and face i that v lies
on, where partner is the node at the image of v under the face-i map.  The
rows are sorted by (node, face); `periodic_pairs` derives them, for
generated and imported meshes alike.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .charts import FaceChart, triangulate_face_chart
from .domain import FundamentalDomain
from .errors import DegenerateTet, PeriodicityViolation, SnapFailure
from .icosian import SIGMA as _S, merge_classes
from .quadrature import weighted_quadrature

# rotations carrying face 1 onto faces 2..6 (axes through face centers,
# angles +-2pi/5); they are symmetries of the dodecahedron
REPLICATION_ROTATIONS = {
    2: 0.5 * np.array([[1 / _S, _S, 1], [-_S, 1, -1 / _S], [-1, -1 / _S, _S]]),
    3: 0.5 * np.array([[_S, -1, -1 / _S], [1, 1 / _S, _S], [-1 / _S, -_S, 1]]),
    4: 0.5 * np.array([[1 / _S, -_S, -1], [_S, 1, -1 / _S], [1, -1 / _S, _S]]),
    5: 0.5 * np.array([[_S, -1, 1 / _S], [1, 1 / _S, -_S], [1 / _S, _S, 1]]),
    6: 0.5 * np.array([[_S, 1, -1 / _S], [-1, 1 / _S, -_S], [-1 / _S, _S, 1]]),
}


@dataclass
class SurfaceMesh:
    """Triangulation of the whole boundary, periodic by construction."""

    nodes: np.ndarray                       # (S, 3)
    tris: np.ndarray                        # (T, 3)
    tri_face: np.ndarray                    # (T,) face tag 1..12
    periodic: np.ndarray                    # (P, 3) (node, face, partner)


@dataclass
class TetMesh:
    vertices: np.ndarray                    # (N, 3)
    tets: np.ndarray                        # (M, 4), positively oriented
    boundary_tris: np.ndarray               # (T, 3) global vertex indices
    periodic: np.ndarray                    # (P, 3) (node, face, partner)

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_tris)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.tets).tobytes())
        return h.hexdigest()


def _check_face1_nodes(domain: FundamentalDomain, nodes: np.ndarray,
                       tol: float = 1e-6) -> None:
    """Raise SnapFailure unless every face-1 node is within tol of the face-1 ellipsoid."""
    q1 = domain.face(1).ellipsoid
    form = np.einsum("ij,jk,ik->i", nodes, q1, nodes)
    drift = np.abs(1.0 - 1.0 / np.sqrt(form)) * np.linalg.norm(nodes, axis=1)
    if drift.max() > tol:
        raise SnapFailure(f"face node {drift.argmax()} is {drift.max():.2e} off the ellipsoid")


def build_boundary_mesh(domain: FundamentalDomain, chart: FaceChart) -> SurfaceMesh:
    """Replicate the face-1 triangulation to all twelve faces and merge."""
    face1 = chart.sphere
    _check_face1_nodes(domain, face1)
    blocks = {1: face1}
    for i in range(2, 7):
        blocks[i] = face1 @ REPLICATION_ROTATIONS[i].T
    for i in range(1, 7):
        blocks[i + 6] = blocks[i] @ domain.face_map(i).matrix3.T

    ns = len(face1)
    all_nodes = np.vstack([blocks[i] for i in range(1, 13)])

    # merge coincident nodes (shared pentagon edges and corners)
    pairs = cKDTree(all_nodes).query_pairs(1e-9, output_type="ndarray")
    global_id, first = merge_classes(len(all_nodes), pairs)
    nodes = all_nodes[first]

    offsets = ns * np.arange(12)
    tris = global_id[chart.triangles + offsets[:, None, None]].reshape(-1, 3)
    tri_face = np.repeat(np.arange(1, 13), len(chart.triangles))
    periodic = periodic_pairs(domain, nodes, tris, tri_face, 1e-9)
    return SurfaceMesh(nodes=nodes, tris=tris, tri_face=tri_face, periodic=periodic)


def _face_images(domain: FundamentalDomain, points: np.ndarray,
                 faces: np.ndarray) -> np.ndarray:
    """Image of each points[k] under the identification map of face faces[k]."""
    mats = np.array([domain.face_map(i).matrix3 for i in range(1, 13)])
    return np.einsum("kij,kj->ki", mats[faces - 1], points)


def periodic_pairs(domain: FundamentalDomain, vertices: np.ndarray, tris: np.ndarray,
                   tri_face: np.ndarray, tol: float) -> np.ndarray:
    """(node, face, partner) rows of a boundary triangulation, sorted by (node, face).

    The (node, face) pairs are the distinct (vertex, tag) pairs of the tagged
    triangles `tris`; each partner is the boundary vertex nearest the node's
    image under the face map, which must lie within `tol` of it.
    """
    key = np.unique(13 * tris.astype(np.int64) + tri_face[:, None])
    node, face = np.divmod(key, 13)
    boundary = np.unique(tris)
    dist, j = cKDTree(vertices[boundary]).query(
        _face_images(domain, vertices[node], face))
    if len(dist) and dist.max() > tol:
        k = int(dist.argmax())
        raise PeriodicityViolation(
            f"boundary node {node[k]} has no partner through face {face[k]} "
            f"(nearest at distance {dist[k]:.2e})")
    return np.column_stack([node, face, boundary[j]]).astype(np.int64)


def layer_radii(layers: int, grading: float = 1.0) -> np.ndarray:
    """Radial scale factors t_k = (k/L)^grading, k = 1..L (t_L = 1)."""
    if not (math.isfinite(grading) and grading > 0):
        raise ValueError(f"grading must be finite and positive, got {grading}")
    k = np.arange(1, layers + 1, dtype=float)
    return (k / layers) ** grading


def build_volume_mesh(domain: FundamentalDomain, surface: SurfaceMesh,
                      layers: int, grading: float = 1.0) -> TetMesh:
    """Fill the volume with prisms between scaled surface layers plus a cone."""
    if layers < 1:
        raise ValueError(f"layers {layers} < 1")
    s_count = len(surface.nodes)
    radii = layer_radii(layers, grading)
    vertices = np.vstack([np.zeros((1, 3))]
                         + [t * surface.nodes for t in radii])

    def layer_id(k, s):
        # k = 1..layers
        return 1 + (k - 1) * s_count + s

    srt = np.sort(surface.tris, axis=1)
    tets = []
    # innermost cone
    cone = np.column_stack([np.zeros(len(srt), dtype=np.int64),
                            layer_id(1, srt[:, 0]),
                            layer_id(1, srt[:, 1]),
                            layer_id(1, srt[:, 2])])
    tets.append(cone)
    # prisms, staircase split consistent across shared quads
    for k in range(1, layers):
        p, q, r = srt[:, 0], srt[:, 1], srt[:, 2]
        pk, qk, rk = layer_id(k, p), layer_id(k, q), layer_id(k, r)
        pk1, qk1, rk1 = layer_id(k + 1, p), layer_id(k + 1, q), layer_id(k + 1, r)
        tets.append(np.column_stack([pk, qk, rk, pk1]))
        tets.append(np.column_stack([qk, rk, pk1, qk1]))
        tets.append(np.column_stack([rk, pk1, qk1, rk1]))
    tets, vols = orient_tets(vertices, np.vstack(tets))
    vmin = np.abs(vols).min()
    if not vmin >= 1e-16:
        raise DegenerateTet(f"tet volume {vmin:.2e}")

    boundary_offset = 1 + (layers - 1) * s_count
    return TetMesh(vertices=vertices, tets=tets,
                   boundary_tris=surface.tris + boundary_offset,
                   periodic=surface.periodic + [boundary_offset, 0, boundary_offset])


def generate_mesh(domain: FundamentalDomain, subdivision: int, layers: int,
                  grading: float = 1.0) -> TetMesh:
    """Chart, boundary and volume in one call."""
    chart = triangulate_face_chart(domain, subdivision)
    surface = build_boundary_mesh(domain, chart)
    return build_volume_mesh(domain, surface, layers, grading)


# -- geometric queries and validation -----------------------------------------

def signed_tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    v = vertices[tets]
    e = v[:, 1:] - v[:, :1]
    return np.linalg.det(e) / 6.0


def orient_tets(vertices: np.ndarray, tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positively oriented copy of `tets` (the last two vertices of each
    negatively oriented tet swapped) and the signed volumes before the swap."""
    vols = signed_tet_volumes(vertices, tets)
    tets = tets.copy()
    neg = vols < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]
    return tets, vols


def weighted_volume(mesh: TetMesh) -> float:
    """Sum over tets of the Riemannian volume integral of w = (1-|X|^2)^(-1/2)."""
    det, wq = weighted_quadrature(mesh.vertices[mesh.tets])
    return float(det @ wq.sum(axis=1))

EXACT_DOMAIN_VOLUME = math.pi ** 2 / 60.0   # one 120th of vol(S^3) = 2 pi^2
# largest boundary edge ratio max/min that validate_mesh reports as ok
EDGE_RATIO_LIMIT = 4.0


def boundary_edge_lengths(mesh: TetMesh) -> tuple[float, float]:
    t = mesh.boundary_tris
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]])
    d = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    return float(d.min()), float(d.max())


def _unique_triangles(tris: np.ndarray):
    """Distinct triangles as sorted vertex-id rows, in lexicographic order, and
    how often each occurs.

    Vertex ids are non-negative.  Each sorted row (a, b, c) becomes one int64
    key (a nv + b) nv + c with nv = max id + 1, which orders the keys as the
    rows, so a 1-D unique does the work.
    """
    tris = np.sort(tris, axis=1)
    nv = int(tris.max()) + 1
    if nv ** 3 > np.iinfo(np.int64).max:
        raise ValueError(f"vertex id {nv - 1} is too large for an int64 triangle key")
    t = tris.astype(np.int64, copy=False)
    key = (t[:, 0] * nv + t[:, 1]) * nv + t[:, 2]
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return tris[first], counts


def face_counts(tets: np.ndarray):
    """Distinct triangles (sorted vertex ids) and the number of tets sharing each."""
    return _unique_triangles(np.vstack([tets[:, [1, 2, 3]], tets[:, [0, 2, 3]],
                                        tets[:, [0, 1, 3]], tets[:, [0, 1, 2]]]))


def validate_mesh(domain: FundamentalDomain, mesh: TetMesh,
                  tol: float = 1e-9) -> dict:
    """Full geometric and periodicity validation; returns a JSON-able report."""
    report: dict = {}
    inside = domain.contains(mesh.vertices, tol=tol)
    report["vertices_inside"] = bool(inside.all())

    node, face, partner = mesh.periodic.T
    X = mesh.vertices[node]
    ells = np.array([domain.face(i).ellipsoid for i in range(1, 13)])
    ell_res = np.einsum("ki,kij,kj->k", X, ells[face - 1], X) - 1.0
    report["max_ellipsoid_residual"] = float(np.abs(ell_res).max(initial=0.0))

    vols = signed_tet_volumes(mesh.vertices, mesh.tets)
    report["tet_count"] = int(len(mesh.tets))
    report["node_count"] = int(len(mesh.vertices))
    report["min_tet_volume"] = float(vols.min())
    report["all_volumes_positive"] = bool(vols.min() > 0)

    uniq, counts = face_counts(mesh.tets)
    report["conforming"] = bool(np.all((counts == 1) | (counts == 2)))
    once = uniq[counts == 1]
    tagged, _ = _unique_triangles(mesh.boundary_tris)
    report["boundary_matches_tags"] = bool(
        once.shape == tagged.shape and np.array_equal(once, tagged))

    # the identification is an involution when the rows, each reversed to
    # (partner, inverse face, node), are the same rows again
    mismatch = np.abs(_face_images(domain, X, face) - mesh.vertices[partner])
    inverse = np.array([domain.face_map(i).inverse_index for i in range(1, 13)])
    back = np.column_stack([partner, inverse[face - 1], node])
    report["periodic_pairs"] = int(len(mesh.periodic))
    report["max_partner_mismatch"] = float(mismatch.max(initial=0.0))
    report["partner_involution"] = bool(np.array_equal(
        np.unique(mesh.periodic, axis=0), np.unique(back, axis=0)))

    vol = weighted_volume(mesh)
    report["volume_sum"] = vol
    report["volume_exact"] = EXACT_DOMAIN_VOLUME
    report["volume_relative_error"] = abs(vol - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME

    emin, emax = boundary_edge_lengths(mesh)
    report["boundary_edge_min"] = emin
    report["boundary_edge_max"] = emax
    report["boundary_edge_ratio"] = emax / emin
    report["edge_ratio_ok"] = bool(emax / emin <= EDGE_RATIO_LIMIT)
    return report
