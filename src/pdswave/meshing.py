"""Periodic tetrahedral meshes of the fundamental dodecahedron.

Boundary first: the chart triangulation of face 1, whose nodes the chart
places on the curved face, is checked against the face-1 ellipsoid and
carried to faces 2..6 by dodecahedron rotations and to faces 7..12 by the
face-identification maps, so the triangulations of opposite faces
correspond under the identifications by construction.  The volume is then
filled using star-shapedness about the origin: copies of the surface nodes
scaled by t_k = k/L on L uniform radial layers, prisms between layers split
into three tets each by a global-vertex-index diagonal rule, and an
innermost layer coned to the origin.  No node is added on the boundary.

The face identifications reach the solver as one int64 array `periodic` of
(node, face, partner) rows, one per boundary node v and face i that v lies
on, where partner is the node at the image of v under the face-i map.  The
rows are sorted by (node, face); `periodic_pairs` derives them, for
generated and imported meshes alike.

Every per-tet geometry pass (signed volumes, and so orientation, and the
weighted volume) runs over consecutive blocks of at most `TET_BLOCK` tets
from `tet_blocks`, writing each block's values into arrays over all tets;
`assembly` runs its element matrices over the same blocks.  Each value is
computed as in one whole-mesh pass, and sums over tets are still taken over
the full arrays, so the summation order and every output are unchanged.
`validate_mesh` takes the signed volumes and the weighted volume from one
determinant per tet, the closed-form e_1 . (e_2 x e_3) of its edges
e_i = v_i - v_0 (`quadrature.tet_determinants`, one cross product per tet
where the cofactors `assembly` needs take three).  A caller that holds the
determinants and the triangle counts, as `mesh_io.import_mesh` does after
orienting the tets and extracting the boundary, passes them in, and
`validate_mesh` then makes only the weights pass.

The triangles of a mesh are counted as int64 keys, never as (4T, 3) rows:
each tet's four ids are sorted once, each of its faces is that row minus
one column and so already sorted, and a face (a, b, c) is keyed
(a nv + b) nv + c with nv = max id + 1.  Sorting the key array in place
and counting its runs gives the distinct triangles in lexicographic order
and their counts, with no copy of the keys.
`face_counts` decodes every key back to a row; `validate_mesh` and
`mesh_io.import_mesh` decode only the boundary keys, those of count 1.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .charts import FaceChart, triangulate_face_chart
from .domain import FundamentalDomain
from .errors import DegenerateTet, PeriodicityViolation, SnapFailure
from .icosian import SIGMA as _S, close_pairs, merge_classes, nearest, nearest_within
from .quadrature import quadrature_weights, tet_determinants

# tets per block of every per-tet geometry pass (here and in assembly): the
# temporaries of a pass grow with the block, not with the mesh
TET_BLOCK = 4096
# floor of every tet's |volume|, generated or imported (n = L = 12 reaches 1.0e-8)
MIN_TET_VOLUME = 1e-16

# rotations carrying face 1 onto faces 2..6 (axes through face centers,
# angles +-2pi/5); they are symmetries of the dodecahedron
# constants, not rotation_of(g): a last-bit change breaks criterion 5's n = L = 1 margin
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
    global_id, first = merge_classes(len(all_nodes), close_pairs(all_nodes, 1e-9))
    nodes = all_nodes[first]

    offsets = ns * np.arange(12)
    tris = global_id[chart.triangles + offsets[:, None, None]].reshape(-1, 3)
    tri_face = np.repeat(np.arange(1, 13), len(chart.triangles))
    periodic = periodic_pairs(domain, nodes, tris, tri_face, 1e-9)
    return SurfaceMesh(nodes=nodes, tris=tris, periodic=periodic)


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
    image under the face map (the lowest on a tie), which must lie within
    `tol` of it.
    """
    key = np.unique(13 * tris.astype(np.int64) + tri_face[:, None])
    node, face = np.divmod(key, 13)
    boundary = np.unique(tris)
    images = _face_images(domain, vertices[node], face)
    partner = nearest_within(vertices[boundary], images, tol)
    lost = np.flatnonzero(partner < 0)
    if len(lost):
        dist, _ = nearest(vertices[boundary], images[lost])
        k = int(dist.argmax())
        raise PeriodicityViolation(
            f"boundary node {node[lost[k]]} has no partner through face {face[lost[k]]} "
            f"(nearest at distance {dist[k]:.2e})")
    return np.column_stack([node, face, boundary[partner]]).astype(np.int64)


def layer_radii(layers: int) -> np.ndarray:
    """Uniform radial scale factors t_k = k/L, k = 1..L (t_L = 1)."""
    return np.arange(1, layers + 1, dtype=float) / layers


def build_volume_mesh(domain: FundamentalDomain, surface: SurfaceMesh,
                      layers: int) -> TetMesh:
    """Fill the volume with prisms between scaled surface layers plus a cone."""
    if layers < 1:
        raise ValueError(f"layers {layers} < 1")
    s_count = len(surface.nodes)
    radii = layer_radii(layers)
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
    tets, _ = orient_tets(vertices, np.vstack(tets))

    boundary_offset = 1 + (layers - 1) * s_count
    return TetMesh(vertices=vertices, tets=tets,
                   boundary_tris=surface.tris + boundary_offset,
                   periodic=surface.periodic + [boundary_offset, 0, boundary_offset])


def generate_mesh(domain: FundamentalDomain, subdivision: int, layers: int) -> TetMesh:
    """Chart, boundary and volume in one call."""
    chart = triangulate_face_chart(domain, subdivision)
    surface = build_boundary_mesh(domain, chart)
    return build_volume_mesh(domain, surface, layers)


# -- geometric queries and validation -----------------------------------------

def tet_blocks(count: int):
    """Consecutive slices of at most TET_BLOCK tets that cover range(count)."""
    for start in range(0, count, TET_BLOCK):
        yield slice(start, min(start + TET_BLOCK, count))


def _tet_passes(vertices: np.ndarray, tets: np.ndarray, dets: bool = True,
                weights: bool = True):
    """det (T,), six times each tet's signed volume, if `dets`, and each
    tet's row sum (T,) of `quadrature_weights` if `weights`; None for one
    not asked for."""
    det = np.empty(len(tets)) if dets else None
    wsum = np.empty(len(tets)) if weights else None
    for blk in tet_blocks(len(tets)):
        v = vertices[tets[blk]]
        if dets:
            det[blk] = tet_determinants(v)
        if weights:
            wsum[blk] = quadrature_weights(v).sum(axis=1)
    return det, wsum


def signed_tet_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    det, _ = _tet_passes(vertices, tets, weights=False)
    det /= 6.0
    return det


def orient_tets(vertices: np.ndarray, tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positively oriented copy of `tets` (the last two vertices of each
    negatively oriented tet swapped) and the signed determinants before the
    swap, six times the signed volumes; a tet of |volume| below
    MIN_TET_VOLUME raises DegenerateTet.

    The swap negates a determinant exactly, so the oriented tets'
    determinants are the absolute values of those returned, bit for bit.
    """
    det, _ = _tet_passes(vertices, tets, weights=False)
    k = int(np.abs(det).argmin())
    if not abs(det[k]) / 6.0 >= MIN_TET_VOLUME:
        raise DegenerateTet(f"tet {k} has volume {det[k] / 6.0:.2e}")
    tets = tets.copy()
    neg = det < 0
    tets[neg] = tets[neg][:, [0, 1, 3, 2]]
    return tets, det


def _weighted_volume(det: np.ndarray, wsum: np.ndarray) -> float:
    # one dot product over all tets: block partial sums would change the round-off
    return float(np.abs(det) @ wsum)


def weighted_volume(mesh: TetMesh) -> float:
    """Sum over tets of the Riemannian volume integral of w = (1-|X|^2)^(-1/2)."""
    return _weighted_volume(*_tet_passes(mesh.vertices, mesh.tets))

EXACT_DOMAIN_VOLUME = math.pi ** 2 / 60.0   # one 120th of vol(S^3) = 2 pi^2
# largest boundary edge ratio max/min that validate_mesh reports as ok
EDGE_RATIO_LIMIT = 4.0


def boundary_edge_lengths(mesh: TetMesh) -> tuple[float, float]:
    t = mesh.boundary_tris
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]])
    d = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    return float(d.min()), float(d.max())


def _face_keys(cells: np.ndarray):
    """Distinct triangles of `cells` as sorted int64 keys, how many cells
    share each, and the key base nv.

    `cells` holds triangles or tets as rows of non-negative vertex ids.  Each
    row is sorted once, so each of its triangles, the sorted row minus the
    other columns, is sorted too and becomes one key (a nv + b) nv + c with
    nv = max id + 1.  The keys order as the (a, b, c) rows, so sorting the
    key array in place and counting its runs does the work, and `_key_rows`
    gives the rows back.
    """
    cells = np.sort(cells, axis=1)
    nv = int(cells[:, -1].max()) + 1
    if nv ** 3 > np.iinfo(np.int64).max:
        raise ValueError(f"vertex id {nv - 1} is too large for an int64 triangle key")
    cells = cells.astype(np.int64, copy=False)
    faces = list(itertools.combinations(range(cells.shape[1]), 3))
    keys = np.empty((len(faces), len(cells)), dtype=np.int64)
    for key, (a, b, c) in zip(keys, faces):
        np.multiply(cells[:, a], nv, out=key)
        key += cells[:, b]
        key *= nv
        key += cells[:, c]
    del cells
    keys = keys.reshape(-1)
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    counts = np.diff(starts, append=len(keys))
    return keys[starts], counts, nv


def _key_rows(keys: np.ndarray, nv: int) -> np.ndarray:
    """The sorted (a, b, c) int64 vertex-id rows of `_face_keys` keys."""
    rows = np.empty((len(keys), 3), dtype=np.int64)
    ab = np.empty(len(keys), dtype=np.int64)
    np.divmod(keys, nv, out=(ab, rows[:, 2]))
    np.divmod(ab, nv, out=(rows[:, 0], rows[:, 1]))
    return rows


def face_counts(tets: np.ndarray):
    """Distinct triangles (sorted vertex ids, in lexicographic order) and the
    number of tets sharing each."""
    keys, counts, nv = _face_keys(tets)
    return _key_rows(keys, nv).astype(tets.dtype, copy=False), counts


def validate_mesh(domain: FundamentalDomain, mesh: TetMesh,
                  tol: float = 1e-9, *, det: np.ndarray | None = None,
                  faces: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """Full geometric and periodicity validation; returns a JSON-able report.

    A caller that already holds them passes the signed determinants `det`
    of mesh.tets (bit-equal to `quadrature.tet_determinants`) and `faces`,
    the counts of `_face_keys(mesh.tets)` with the `_key_rows` of its keys
    of count 1; the report is then built from them, not from a second pass.
    """
    report: dict = {}
    inside = domain.contains(mesh.vertices, tol=tol)
    report["vertices_inside"] = bool(inside.all())

    node, face, partner = mesh.periodic.T
    X = mesh.vertices[node]
    ells = np.array([domain.face(i).ellipsoid for i in range(1, 13)])
    ell_res = np.einsum("ki,kij,kj->k", X, ells[face - 1], X) - 1.0
    report["max_ellipsoid_residual"] = float(np.abs(ell_res).max(initial=0.0))

    new_det, wsum = _tet_passes(mesh.vertices, mesh.tets, dets=det is None)
    if det is None:
        det = new_det
    # det / 6 rounds monotonically, so the smallest volume is the smallest det / 6
    min_volume = det.min() / 6.0
    report["tet_count"] = int(len(mesh.tets))
    report["node_count"] = int(len(mesh.vertices))
    report["min_tet_volume"] = float(min_volume)
    report["all_volumes_positive"] = bool(min_volume > 0)

    if faces is None:
        keys, counts, nv = _face_keys(mesh.tets)
        faces = counts, _key_rows(keys[counts == 1], nv)
        del keys, counts
    counts, once = faces
    report["conforming"] = bool(np.all((counts == 1) | (counts == 2)))
    tagged_keys, _, tagged_nv = _face_keys(mesh.boundary_tris)
    tagged = _key_rows(tagged_keys, tagged_nv)
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

    vol = _weighted_volume(det, wsum)
    report["volume_sum"] = vol
    report["volume_exact"] = EXACT_DOMAIN_VOLUME
    report["volume_relative_error"] = abs(vol - EXACT_DOMAIN_VOLUME) / EXACT_DOMAIN_VOLUME

    emin, emax = boundary_edge_lengths(mesh)
    report["boundary_edge_min"] = emin
    report["boundary_edge_max"] = emax
    report["boundary_edge_ratio"] = emax / emin
    report["edge_ratio_ok"] = bool(emax / emin <= EDGE_RATIO_LIMIT)
    return report
