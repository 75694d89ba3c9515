"""Periodic tetrahedral meshes of the fundamental dodecahedron.

Boundary first: the chart triangulation of face 1 is embedded on the
sphere, carried to faces 2..6 by dodecahedron rotations and to faces 7..12
by the face-identification maps, so the triangulations of opposite faces
correspond under the identifications by construction.  The volume is then
filled using star-shapedness about the origin: scaled copies of the surface
nodes on L radial layers, prisms between layers split into three tets each
by a global-vertex-index diagonal rule, and an innermost layer coned to the
origin.  No node is added on the boundary itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .charts import FaceChart, triangulate_face_chart
from .domain import FundamentalDomain, geodesic_point
from .errors import DegenerateTet, PeriodicityViolation, SnapFailure
from .golden import SIGMA_FLOAT as _S
from .icosian import merge_classes
from .quadrature import QuadratureRule, quadrature_rule, weighted_quadrature

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
    node_faces: dict = field(repr=False)    # node -> tuple of faces it lies on
    partners: dict = field(repr=False)      # node -> {face: partner node}
    subdivision: int = 0


@dataclass
class TetMesh:
    vertices: np.ndarray                    # (N, 3)
    tets: np.ndarray                        # (M, 4), positively oriented
    boundary_tris: np.ndarray               # (T, 3) global vertex indices
    boundary_faces: np.ndarray              # (T,) face tags 1..12
    node_faces: dict = field(repr=False)    # boundary vertex -> faces
    partners: dict = field(repr=False)      # boundary vertex -> {face: partner}
    subdivision: int | None = None
    layers: int | None = None
    grading: float = 1.0

    @property
    def boundary_nodes(self) -> np.ndarray:
        return np.fromiter(self.node_faces.keys(), dtype=np.int64)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.vertices).tobytes())
        h.update(np.ascontiguousarray(self.tets).tobytes())
        return h.hexdigest()


def _snap_face1_nodes(domain: FundamentalDomain, chart: FaceChart,
                      tol: float = 1e-6) -> np.ndarray:
    """Control and correct face-1 nodes: ellipsoid for all, geodesics for edges."""
    pts = chart.sphere[:, 1:].copy()
    q1 = domain.face(1).ellipsoid
    form = np.einsum("ij,jk,ik->i", pts, q1, pts)
    drift = np.abs(1.0 - 1.0 / np.sqrt(form)) * np.linalg.norm(pts, axis=1)
    if drift.max() > tol:
        raise SnapFailure(f"face node {drift.argmax()} is {drift.max():.2e} off the ellipsoid")
    pts /= np.sqrt(form)[:, None]
    cycle = domain.face(1).cycle
    corners4 = domain.vertices4[list(cycle)]
    for idx, kind in chart.boundary_kind.items():
        if kind[0] == "corner":
            target = corners4[kind[1]][1:]
        else:
            _, k, b = kind
            target = geodesic_point(corners4[k], corners4[(k + 1) % 5], b / chart.n)[1:]
        if np.abs(pts[idx] - target).max() > tol:
            raise SnapFailure(f"edge node {idx} is off its geodesic")
        pts[idx] = target
    return pts


def build_boundary_mesh(domain: FundamentalDomain, chart: FaceChart) -> SurfaceMesh:
    """Replicate the face-1 triangulation to all twelve faces and merge."""
    face1 = _snap_face1_nodes(domain, chart)
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

    tris = []
    tri_face = []
    for i in range(1, 13):
        offset = (i - 1) * ns
        tris.append(global_id[chart.triangles + offset])
        tri_face.append(np.full(len(chart.triangles), i))
    tris = np.vstack(tris)
    tri_face = np.concatenate(tri_face)

    node_faces: dict[int, set] = {}
    for i in range(1, 13):
        offset = (i - 1) * ns
        for g in global_id[offset:offset + ns]:
            node_faces.setdefault(int(g), set()).add(i)

    merged_tree = cKDTree(nodes)
    partners: dict[int, dict[int, int]] = {}
    for v, faces in node_faces.items():
        partners[v] = {}
        for i in faces:
            image = domain.face_map(i).matrix3 @ nodes[v]
            d, j = merged_tree.query(image)
            if d > 1e-9:
                raise PeriodicityViolation(
                    f"node {v} has no partner through face {i} (distance {d:.2e})")
            partners[v][i] = int(j)
    node_faces = {v: tuple(sorted(s)) for v, s in node_faces.items()}
    return SurfaceMesh(nodes=nodes, tris=tris, tri_face=tri_face,
                       node_faces=node_faces, partners=partners,
                       subdivision=chart.n)


def layer_radii(layers: int, grading: float = 1.0) -> np.ndarray:
    """Radial scale factors t_k = (k/L)^grading, k = 1..L (t_L = 1)."""
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
    tets = np.vstack(tets)

    vols = signed_tet_volumes(vertices, tets)
    neg = vols < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]
    vols = np.abs(vols)
    if vols.min() < 1e-16:
        raise DegenerateTet(f"tet volume {vols.min():.2e}")

    boundary_offset = 1 + (layers - 1) * s_count
    boundary_tris = surface.tris + boundary_offset
    node_faces = {v + boundary_offset: f for v, f in surface.node_faces.items()}
    partners = {v + boundary_offset: {i: p + boundary_offset for i, p in d.items()}
                for v, d in surface.partners.items()}
    return TetMesh(vertices=vertices, tets=tets,
                   boundary_tris=boundary_tris, boundary_faces=surface.tri_face.copy(),
                   node_faces=node_faces, partners=partners,
                   subdivision=surface.subdivision, layers=layers, grading=grading)


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


def weighted_volume(mesh: TetMesh, rule: QuadratureRule | None = None) -> float:
    """Sum over tets of the Riemannian volume integral of w = (1-|X|^2)^(-1/2)."""
    if rule is None:
        rule = quadrature_rule(4)
    det, _, wq = weighted_quadrature(mesh.vertices[mesh.tets], rule)
    return float(det @ wq.sum(axis=1))

EXACT_DOMAIN_VOLUME = math.pi ** 2 / 60.0   # one 120th of vol(S^3) = 2 pi^2


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
                  tol: float = 1e-9, edge_ratio_limit: float = 4.0) -> dict:
    """Full geometric and periodicity validation; returns a JSON-able report."""
    report: dict = {}
    inside = domain.contains_many(mesh.vertices, tol=tol)
    report["vertices_inside"] = bool(inside.all())

    ell_err = 0.0
    for v, faces in mesh.node_faces.items():
        X = mesh.vertices[v]
        for i in faces:
            ell_err = max(ell_err, abs(X @ domain.face(i).ellipsoid @ X - 1.0))
    report["max_ellipsoid_residual"] = ell_err

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

    partner_err = 0.0
    involution_ok = True
    pair_count = 0
    for v, d in mesh.partners.items():
        for i, p in d.items():
            pair_count += 1
            img = domain.face_map(i).matrix3 @ mesh.vertices[v]
            partner_err = max(partner_err, float(np.abs(img - mesh.vertices[p]).max()))
            back = mesh.partners[p].get(domain.face_map(i).inverse_index)
            involution_ok &= back == v
    report["periodic_pairs"] = pair_count
    report["max_partner_mismatch"] = partner_err
    report["partner_involution"] = bool(involution_ok)

    vol = weighted_volume(mesh)
    report["volume_sum"] = vol
    report["volume_exact"] = EXACT_DOMAIN_VOLUME
    report["volume_relative_error"] = abs(vol - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME

    emin, emax = boundary_edge_lengths(mesh)
    report["boundary_edge_min"] = emin
    report["boundary_edge_max"] = emax
    report["boundary_edge_ratio"] = emax / emin
    report["edge_ratio_ok"] = bool(emax / emin <= edge_ratio_limit)
    return report
