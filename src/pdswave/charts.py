"""Flat chart of the first pentagonal face and its structured triangulation.

The flat pentagon of face-1 vertex barycenters is carried to the plane z=0
by a translation (edge midpoint of S5 S20 to the origin) followed by an
explicit rotation.  Composing the inverse chart with the lift to S^3 and
radial normalization embeds the chart onto the curved face.  The structured
triangulation places every face-1 node: interior nodes through that
embedding, boundary nodes on the edge geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (_FACE_NORMALS, VERTEX_SCALE, VERTEX_X0, FundamentalDomain,
                     geodesic_point)
from .errors import InvalidSubdivision, OffPlane
from .icosian import SIGMA

_T = 3.0 - SIGMA                      # |(1/sigma, 1, 0)|^2
_ST = math.sqrt(_T)

# midpoint of the S5-S20 edge in the visualization; the chart translation
# subtracts it (it is sent to the chart origin)
EDGE_MIDPOINT = np.array([0.0, -VERTEX_SCALE, 0.0])

# rotation by -pi/2 about the in-plane axis through S18 and the edge midpoint
ROTATION = np.array([
    [1.0 / _T, -1.0 / (SIGMA * _T), 1.0 / (SIGMA * _ST)],
    [-1.0 / (SIGMA * _T), 1.0 / (SIGMA ** 2 * _T), 1.0 / _ST],
    [-1.0 / (SIGMA * _ST), -1.0 / _ST, 0.0],
])


def chart_forward(X) -> np.ndarray:
    """Map a point of the flat face-1 pentagon plane to chart coordinates (x, y)."""
    X = np.asarray(X, dtype=float)
    if abs(np.array(_FACE_NORMALS[0]) @ X - VERTEX_SCALE) > 1e-9:
        raise OffPlane(f"{X} is not on the face-1 barycenter plane")
    out = ROTATION @ (X - EDGE_MIDPOINT)
    return out[:2]


def chart_inverse(xy) -> np.ndarray:
    """Inverse of chart_forward: chart coordinates back to the pentagon plane."""
    x, y = xy
    return ROTATION.T @ np.array([x, y, 0.0]) + EDGE_MIDPOINT


def chart_embed(xy) -> np.ndarray:
    """Embed a chart point onto the curved face 1 of S^3 (unit 4-vector)."""
    p = np.concatenate(([VERTEX_X0], chart_inverse(xy)))
    return p / np.linalg.norm(p)


# -- structured pentagon triangulation ----------------------------------------

@dataclass
class FaceChart:
    """Triangulated face 1, its nodes placed on the curved face.

    Pentagon split into five center fans, each uniformly refined n^2-fold.
    Interior lattice nodes are embedded through the chart and then scaled
    onto the face-1 ellipsoid, which the embedding meets only up to
    round-off; nodes on the pentagon boundary are placed at equal spherical
    arc length along the edge geodesics.
    """

    triangles: np.ndarray             # (t, 3) node indices, CCW in the chart
    sphere: np.ndarray                # (m, 3) x1..x3 of each node's point on face 1 of S^3


def triangulate_face_chart(domain: FundamentalDomain, n: int) -> FaceChart:
    if n < 1:
        raise InvalidSubdivision(f"subdivision {n} < 1")
    cycle = list(domain.face(1).cycle)
    corners4 = domain.vertices4[cycle]
    # a vertex's x0 is VERTEX_X0, so chart_forward of its x1..x3 is its chart point
    corner_xy = np.array([chart_forward(v) for v in domain.vertices3[cycle]])
    center_xy = chart_forward(domain.face_center3(1))

    key_to_id: dict = {}
    sphere: list = []
    interior: list = []

    def canonical(s, a, b):
        if a == 0:
            return ("center",)
        if b == 0:
            return ("spoke", s, a)
        if b == a:
            return ("spoke", (s + 1) % 5, a)
        if a == n:
            return ("edge", s, b)
        return ("inner", s, a, b)

    def node_id(s, a, b):
        key = canonical(s, a, b)
        if key in key_to_id:
            return key_to_id[key]
        key_to_id[key] = len(sphere)
        if key[0] == "spoke" and key[2] == n:          # pentagon corner
            q = corners4[key[1]]
        elif key[0] == "edge":                          # pentagon edge interior
            k = key[1]
            q = geodesic_point(corners4[k], corners4[(k + 1) % 5], key[2] / n)
        else:                                           # interior lattice point
            fa, fb = a / n, b / n
            q = chart_embed(center_xy + fa * (corner_xy[s] - center_xy)
                            + fb * (corner_xy[(s + 1) % 5] - corner_xy[s]))
            interior.append(len(sphere))
        sphere.append(q[1:])
        return key_to_id[key]

    tris = []
    for s in range(5):
        for a in range(1, n + 1):
            for b in range(a):
                tris.append((node_id(s, a, b), node_id(s, a, b + 1),
                             node_id(s, a - 1, b)))
            for b in range(a - 1):
                tris.append((node_id(s, a - 1, b), node_id(s, a, b + 1),
                             node_id(s, a - 1, b + 1)))

    pts = np.array(sphere)
    inner = pts[interior]
    q1 = domain.face(1).ellipsoid
    pts[interior] = inner / np.sqrt(np.einsum("ij,jk,ik->i", inner, q1, inner))[:, None]
    return FaceChart(triangles=np.array(tris, dtype=np.int64), sphere=pts)
