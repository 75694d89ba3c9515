"""Flat chart of the first pentagonal face and its structured triangulation.

The flat pentagon of face-1 vertex barycenters is carried to the plane z=0
by a translation (edge midpoint of S5 S20 to the origin) followed by an
explicit rotation.  Composing the inverse chart with the lift to S^3 and
radial normalization embeds the chart onto the curved face; the structured
triangulation places its nodes through that embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import VERTEX_X0, FundamentalDomain, geodesic_point
from .errors import InvalidSubdivision, OffPlane
from .golden import SIGMA_FLOAT as SIGMA

SQRT2 = math.sqrt(2.0)
_T = 3.0 - SIGMA                      # |(1/sigma, 1, 0)|^2
_ST = math.sqrt(_T)

# midpoint of the S5-S20 edge in the visualization; the chart translation
# subtracts it (it is sent to the chart origin)
EDGE_MIDPOINT = np.array([0.0, -1.0 / (2.0 * SQRT2), 0.0])

# rotation by -pi/2 about the in-plane axis through S18 and the edge midpoint
ROTATION = np.array([
    [1.0 / _T, -1.0 / (SIGMA * _T), 1.0 / (SIGMA * _ST)],
    [-1.0 / (SIGMA * _T), 1.0 / (SIGMA ** 2 * _T), 1.0 / _ST],
    [-1.0 / (SIGMA * _ST), -1.0 / _ST, 0.0],
])

_PLANE_NORMAL = np.array([-1.0 / SIGMA, -1.0, 0.0])
_PLANE_OFFSET = 1.0 / (2.0 * SQRT2)


def chart_forward(X) -> np.ndarray:
    """Map a point of the flat face-1 pentagon plane to chart coordinates (x, y)."""
    X = np.asarray(X, dtype=float)
    if abs(_PLANE_NORMAL @ X - _PLANE_OFFSET) > 1e-9:
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


def chart_project(q4) -> np.ndarray:
    """Chart coordinates of a point of face 1 on S^3 (inverse of chart_embed)."""
    q4 = np.asarray(q4, dtype=float)
    return chart_forward(q4[1:] * (VERTEX_X0 / q4[0]))


# -- structured pentagon triangulation ----------------------------------------

@dataclass
class FaceChart:
    """Triangulated chart of face 1 with its spherical embedding.

    Pentagon split into five center fans, each uniformly refined n^2-fold;
    nodes on the pentagon boundary are placed at equal spherical arc length
    along the edge geodesics.
    """

    n: int
    nodes: np.ndarray                 # (m, 2) chart coordinates
    triangles: np.ndarray             # (t, 3) indices, CCW in the chart
    sphere: np.ndarray                # (m, 4) embedded points on face 1
    boundary_kind: dict = field(repr=False)   # node -> ("corner", k) | ("edge", k, b)


def triangulate_face_chart(domain: FundamentalDomain, n: int) -> FaceChart:
    if n < 1:
        raise InvalidSubdivision(f"subdivision {n} < 1")
    cycle = domain.face(1).cycle
    corners4 = domain.vertices4[list(cycle)]
    corner_xy = np.array([chart_project(c) for c in corners4])
    center_xy = chart_forward(domain.face_center3(1))

    key_to_id: dict = {}
    nodes_xy: list = []
    sphere: list = []
    boundary_kind: dict = {}

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
        idx = len(nodes_xy)
        key_to_id[key] = idx
        if key[0] == "spoke" and key[2] == n:          # pentagon corner
            k = key[1]
            q = corners4[k]
            nodes_xy.append(corner_xy[k])
            boundary_kind[idx] = ("corner", k)
        elif key[0] == "edge":                          # pentagon edge interior
            k, bb = key[1], key[2]
            q = geodesic_point(corners4[k], corners4[(k + 1) % 5], bb / n)
            nodes_xy.append(chart_project(q))
            boundary_kind[idx] = ("edge", k, bb)
        else:                                           # interior lattice point
            fa, fb = a / n, b / n
            xy = (center_xy + fa * (corner_xy[s] - center_xy)
                  + fb * (corner_xy[(s + 1) % 5] - corner_xy[s]))
            q = chart_embed(xy)
            nodes_xy.append(xy)
        sphere.append(q)
        return idx

    tris = []
    for s in range(5):
        for a in range(1, n + 1):
            for b in range(a):
                tris.append((node_id(s, a, b), node_id(s, a, b + 1),
                             node_id(s, a - 1, b)))
            for b in range(a - 1):
                tris.append((node_id(s, a - 1, b), node_id(s, a, b + 1),
                             node_id(s, a - 1, b + 1)))

    nodes = np.array(nodes_xy)
    triangles = np.array(tris, dtype=np.int64)
    # enforce positive orientation in the chart plane
    p = nodes[triangles]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = area2 < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return FaceChart(n=n, nodes=nodes, triangles=triangles,
                     sphere=np.array(sphere), boundary_kind=boundary_kind)
