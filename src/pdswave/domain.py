"""The fundamental dodecahedron of S^3 / I* and its flat visualization.

The domain is the spherical regular dodecahedron containing (1,0,0,0),
described by twenty explicit vertices, twelve face hyperplanes, and the
twelve Clifford translations that identify opposite faces.  Dropping the
first R^4 coordinate maps it one-to-one onto a centered dodecahedron with
curved (ellipsoidal) faces inside the unit ball of R^3, which is the
computational domain everywhere else in the package.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AntipodalEndpoints, NotInDomain, OutsideUnitBall
from .icosian import INV_TWO_SIGMA, SIGMA, SIGMA_HALF, Quaternion, left_matrix

SQRT2 = math.sqrt(2.0)
_IS = 1.0 / SIGMA
_S2 = SIGMA * SIGMA

# scale of the vertex table and the first coordinate shared by all vertices
VERTEX_SCALE = 1.0 / (2.0 * SQRT2)
VERTEX_X0 = _S2 * VERTEX_SCALE
# spherical diameter of the domain, twice the center-to-vertex distance;
# probe windows should start after one crossing
DOMAIN_DIAMETER = 2.0 * math.acos(VERTEX_X0)

# the twenty vertices of the fundamental domain, in R^4 (unit vectors)
_VERTEX_TABLE = [
    (_S2, -_IS, _IS, -_IS),    # S1
    (_S2, 1.0, _IS * _IS, 0.0),     # S2
    (_S2, -_IS, -_IS, _IS),    # S3
    (_S2, _IS, -_IS, -_IS),    # S4
    (_S2, 0.0, -1.0, -_IS * _IS),   # S5
    (_S2, _IS, _IS, _IS),      # S6
    (_S2, -_IS * _IS, 0.0, 1.0),    # S7
    (_S2, 0.0, 1.0, _IS * _IS),     # S8
    (_S2, -_IS, _IS, _IS),     # S9
    (_S2, _IS * _IS, 0.0, 1.0),     # S10
    (_S2, 0.0, 1.0, -_IS * _IS),    # S11
    (_S2, -1.0, _IS * _IS, 0.0),    # S12
    (_S2, -_IS * _IS, 0.0, -1.0),   # S13
    (_S2, _IS, -_IS, _IS),     # S14
    (_S2, _IS * _IS, 0.0, -1.0),    # S15
    (_S2, -_IS, -_IS, -_IS),   # S16
    (_S2, _IS, _IS, -_IS),     # S17
    (_S2, -1.0, -_IS * _IS, 0.0),   # S18
    (_S2, 1.0, -_IS * _IS, 0.0),    # S19
    (_S2, 0.0, -1.0, _IS * _IS),    # S20
]

# face-plane coefficients (a, b, c): points of face i satisfy
# a x + b y + c z = x0 / sigma^2 on S^3
_FACE_NORMALS = [
    (-_IS, -1.0, 0.0),   # F1
    (-1.0, 0.0, _IS),    # F2
    (0.0, -_IS, 1.0),    # F3
    (_IS, -1.0, 0.0),    # F4
    (0.0, -_IS, -1.0),   # F5
    (-1.0, 0.0, -_IS),   # F6
    (_IS, 1.0, 0.0),     # F7
    (1.0, 0.0, -_IS),    # F8
    (0.0, _IS, -1.0),    # F9
    (-_IS, 1.0, 0.0),    # F10
    (0.0, _IS, 1.0),     # F11
    (1.0, 0.0, _IS),     # F12
]

# vertex cycles of the faces (1-based vertex numbers)
_FACE_CYCLES = [
    (3, 18, 16, 5, 20),    # F1
    (18, 12, 9, 7, 3),     # F2
    (3, 7, 10, 14, 20),    # F3
    (20, 14, 19, 4, 5),    # F4
    (5, 4, 15, 13, 16),    # F5
    (16, 13, 1, 12, 18),   # F6
    (6, 8, 11, 17, 2),     # F7
    (15, 17, 2, 19, 4),    # F8
    (1, 11, 17, 15, 13),   # F9
    (9, 8, 11, 1, 12),     # F10
    (10, 6, 8, 9, 7),      # F11
    (19, 2, 6, 10, 14),    # F12
]

# vertex images under the six face-identification translations,
# {source vertex: image vertex}, 1-based
FACE_VERTEX_IMAGES = {
    1: {3: 6, 18: 8, 16: 11, 5: 17, 20: 2},
    2: {18: 15, 12: 17, 9: 2, 7: 19, 3: 4},
    3: {3: 1, 7: 11, 10: 17, 14: 15, 20: 13},
    4: {20: 9, 14: 8, 19: 11, 4: 1, 5: 12},
    5: {5: 10, 4: 6, 15: 8, 13: 9, 16: 7},
    6: {16: 19, 13: 2, 1: 6, 12: 10, 18: 14},
}

_FACE_QUATS = [
    # sigma/2 scalar part; vector parts from {0, +-1/2, +-1/(2 sigma)}
    (SIGMA_HALF, INV_TWO_SIGMA, 0.5, 0.0),      # g1
    (SIGMA_HALF, 0.5, 0.0, -INV_TWO_SIGMA),     # g2
    (SIGMA_HALF, 0.0, INV_TWO_SIGMA, -0.5),     # g3
    (SIGMA_HALF, -INV_TWO_SIGMA, 0.5, 0.0),     # g4
    (SIGMA_HALF, 0.0, INV_TWO_SIGMA, 0.5),      # g5
    (SIGMA_HALF, 0.5, 0.0, INV_TWO_SIGMA),      # g6
]


@dataclass(frozen=True)
class FaceGeometry:
    """Hyperplane, barycentric plane, and ellipsoid data of one face."""

    index: int                      # 1..12
    normal: np.ndarray = field(compare=False)       # (a, b, c)
    ellipsoid: np.ndarray = field(compare=False)    # Q with X^T Q X = 1 on the face
    cycle: tuple                    # five 0-based vertex indices, in edge order

    # the flat pentagon of vertex barycenters lies on normal . X = bary_offset
    bary_offset: float = VERTEX_SCALE


@dataclass(frozen=True)
class FaceMap:
    """Clifford translation identifying face `index` with face `inverse_index`."""

    index: int
    quat: Quaternion = field(compare=False)
    matrix3: np.ndarray = field(compare=False)   # induced linear map on the face
    inverse_index: int


@dataclass(frozen=True)
class EquivalenceClass:
    members: np.ndarray = field(compare=False)   # (k, 3), k in {1,2,3,4}; X first
    faces: tuple = ()                            # 1-based indices of containing faces


def lift(X) -> np.ndarray:
    """Lift points of the open unit ball, shape (..., 3), to the upper
    hemisphere of S^3, shape (..., 4)."""
    X = np.asarray(X, dtype=float)
    flat = X.reshape(-1, 3)
    r2 = np.einsum("ij,ij->i", flat, flat)
    if np.any(r2 >= 1.0):
        raise OutsideUnitBall("points outside the unit ball")
    return np.column_stack([np.sqrt(1.0 - r2), flat]).reshape(X.shape[:-1] + (4,))


def geodesic_point(si, sj, t: float) -> np.ndarray:
    """Point at arc fraction t on the minor great-circle arc from si to sj."""
    si = np.asarray(si, dtype=float)
    sj = np.asarray(sj, dtype=float)
    c = float(np.clip(si @ sj, -1.0, 1.0))
    if c <= -1.0 + 1e-12:
        raise AntipodalEndpoints("geodesic endpoints are antipodal")
    theta = math.acos(c)
    if theta < 1e-15:
        return si.copy()
    a = math.sin((1.0 - t) * theta) / math.sin(theta)
    b = math.sin(t * theta) / math.sin(theta)
    q = a * si + b * sj
    return q / np.linalg.norm(q)


def _face_visual_matrix(q: Quaternion, normal: np.ndarray) -> np.ndarray:
    """Linear map induced on the visualization by left multiplication.

    On face i the lifted first coordinate is x0 = sigma^2 (n . X), so the
    restriction of the 4x4 left-multiplication matrix to the face is linear
    in X.
    """
    m4 = left_matrix(q)
    return m4[1:, 1:] + np.outer(m4[1:, 0], _S2 * normal)


class FundamentalDomain:
    """Immutable geometric description; all queries are pure."""

    def __init__(self):
        self.vertices4 = np.array(_VERTEX_TABLE) * VERTEX_SCALE
        self.vertices3 = self.vertices4[:, 1:].copy()
        faces = []
        maps = []
        for i in range(12):
            n = np.array(_FACE_NORMALS[i])
            ell = np.eye(3) + SIGMA ** 4 * np.outer(n, n)
            cyc = tuple(v - 1 for v in _FACE_CYCLES[i])
            faces.append(FaceGeometry(index=i + 1, normal=n, ellipsoid=ell, cycle=cyc))
            if i < 6:
                q = Quaternion(*_FACE_QUATS[i])
                inv = i + 7
            else:
                q = Quaternion(*_FACE_QUATS[i - 6]).conjugate()
                inv = i - 5
            maps.append(FaceMap(index=i + 1, quat=q,
                                matrix3=_face_visual_matrix(q, n),
                                inverse_index=inv))
        self.faces = tuple(faces)
        self.maps = tuple(maps)
        self._normals = np.array(_FACE_NORMALS)

    # -- basic queries --------------------------------------------------

    def face(self, i: int) -> FaceGeometry:
        """Face by 1-based index."""
        return self.faces[i - 1]

    def face_map(self, i: int) -> FaceMap:
        return self.maps[i - 1]

    def face_vertices3(self, i: int) -> np.ndarray:
        return self.vertices3[list(self.face(i).cycle)]

    def face_center3(self, i: int) -> np.ndarray:
        """Barycenter of the five face vertices (on the flat pentagon plane)."""
        return self.face_vertices3(i).mean(axis=0)

    def face_residuals(self, X) -> np.ndarray:
        """a_i x + b_i y + c_i z - x0/sigma^2 for the twelve faces (<= 0 inside):
        shape (..., 12) for points of shape (..., 3)."""
        X = np.asarray(X, dtype=float)
        q = lift(X.reshape(-1, 3))
        res = q[:, 1:] @ self._normals.T - q[:, :1] / _S2
        return res.reshape(X.shape[:-1] + (12,))

    def contains(self, X, tol: float = 1e-12):
        """Whether each point of X, shape (..., 3), lies in the domain; the
        result has shape (...)."""
        return np.all(self.face_residuals(X) <= tol, axis=-1)

    def outward_normal(self, i: int, X) -> np.ndarray:
        """Unit outgoing normal of the visualization at X on face i (ellipsoid gradient)."""
        g = self.face(i).ellipsoid @ np.asarray(X, dtype=float)
        return g / np.linalg.norm(g)

    def induced_jacobian(self, i: int, X) -> np.ndarray:
        """Jacobian at X of the full induced map X -> p(g_i * lift(X)).

        It agrees with the linear face matrix on directions tangent to face i
        but not on the normal direction (the induced map is an isometry of the
        pulled-back sphere metric, not of the Euclidean one).
        """
        X = np.asarray(X, dtype=float)
        m4 = left_matrix(self.face_map(i).quat)
        x0 = math.sqrt(1.0 - X @ X)
        return m4[1:, 1:] - np.outer(m4[1:, 0], X) / x0

    def map_face_normal(self, i: int, X) -> np.ndarray:
        """Transport of the unit outgoing normal at X on face i through the face map.

        Normals transform as covectors (inverse-transpose Jacobian); with that
        transport the identification reverses outgoing normals exactly:
        map_face_normal(i, X) == -outward_normal(i+6, identify(X, i)).
        """
        j = self.induced_jacobian(i, X)
        n = np.linalg.solve(j.T, self.outward_normal(i, X))
        return n / np.linalg.norm(n)

    # -- equivalence relation --------------------------------------------

    def faces_containing(self, X, tol: float = 1e-9) -> tuple:
        res = self.face_residuals(X)
        return tuple(i + 1 for i in range(12) if abs(res[i]) <= tol)

    def identify(self, X, i: int) -> np.ndarray:
        """Image of X in face i under the face-i identification map."""
        return self.face_map(i).matrix3 @ np.asarray(X, dtype=float)

    def classify(self, X, tol: float = 1e-9) -> EquivalenceClass:
        """Equivalence class of X: itself plus its images through every face it lies on."""
        X = np.asarray(X, dtype=float)
        if not self.contains(X, tol):
            raise NotInDomain(f"{X} is not in the fundamental domain")
        on = self.faces_containing(X, tol)
        members = [X] + [self.identify(X, i) for i in on]
        for m in members[1:]:
            if not self.contains(m, 10 * tol):
                raise NotInDomain(f"image {m} escaped the domain; inconsistent tolerance")
        return EquivalenceClass(members=np.array(members), faces=on)

    # -- metric data ------------------------------------------------------

    def vertex_distance_table(self) -> np.ndarray:
        g = np.clip(self.vertices4 @ self.vertices4.T, -1.0, 1.0)
        return np.arccos(g)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        out = {
            "vertices4": self.vertices4.tolist(),
            "faces": [{
                "index": f.index,
                "normal": f.normal.tolist(),
                "bary_offset": f.bary_offset,
                "ellipsoid": f.ellipsoid.tolist(),
                "cycle": [v + 1 for v in f.cycle],
            } for f in self.faces],
            "maps": [{
                "index": m.index,
                "quaternion": m.quat.as_array().tolist(),
                "matrix3": m.matrix3.tolist(),
                "inverse_index": m.inverse_index,
            } for m in self.maps],
        }
        return json.dumps(out, indent=1)


@functools.lru_cache(maxsize=1)
def build_domain() -> FundamentalDomain:
    dom = FundamentalDomain()
    _check_construction(dom)
    return dom


def _check_construction(dom: FundamentalDomain) -> None:
    # construction is from closed-form constants; failure here is a code bug
    v4 = dom.vertices4
    assert np.allclose(np.einsum("ij,ij->i", v4, v4), 1.0, atol=1e-14)
    assert np.allclose(v4[:, 0], VERTEX_X0, atol=1e-14)
    for f, m in zip(dom.faces, dom.maps):
        verts = v4[list(f.cycle)]
        plane = verts[:, 1:] @ f.normal - verts[:, 0] / _S2
        assert np.abs(plane).max() < 1e-13
        vis = verts[:, 1:]
        ell = np.einsum("ij,jk,ik->i", vis, f.ellipsoid, vis) - 1.0
        assert np.abs(ell).max() < 1e-13
        r = m.matrix3
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-13
        # the induced face-to-face maps reverse orientation (normals flip)
        assert abs(np.linalg.det(r) + 1.0) < 1e-13
    for i, images in FACE_VERTEX_IMAGES.items():
        q = dom.face_map(i).quat
        for src, dst in images.items():
            got = (q * Quaternion(*v4[src - 1])).as_array()
            assert np.abs(got - v4[dst - 1]).max() < 1e-13
