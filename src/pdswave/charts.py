"""Flat chart of the first pentagonal face and its structured triangulation.

The flat pentagon of face-1 vertex barycenters is carried to the plane z=0
by a translation (edge midpoint of S5 S20 to the origin) followed by an
explicit rotation.  Composing the inverse chart with the lift to S^3 and
radial normalization embeds the chart onto the curved face; the closed-form
components of that embedding and its first fundamental form (the metric a
2-D mesher would need) are evaluated here as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import VERTEX_X0, FundamentalDomain, geodesic_point
from .errors import InvalidSubdivision, OffPlane
from .golden import SIGMA_FLOAT as SIGMA
from .golden import SQRT5

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


# -- closed-form embedding and chart metric ----------------------------------

def _bracket(x, y):
    # common denominator polynomial of the closed forms
    return (80 * x * x + 80 * y * y + 8 * SQRT2 * SQRT5 * x
            + (20 * SQRT2 + 4 * SQRT2 * SQRT5) * y + 45 + 17 * SQRT5)


# The closed forms below live in a chart frame whose y axis is offset:
# chart_embedding_components((x, y)) == chart_embed((x, y + CHART_FRAME_OFFSET)).
# face_chart_metric shares that frame, so the pair is self-consistent
# (metric == Gram of the embedding Jacobian) and is exposed as a diagnostic.
CHART_FRAME_OFFSET = 1.0 / (2.0 * SQRT2)


def chart_embedding_components(xy) -> np.ndarray:
    """Closed-form components of the chart-to-sphere embedding.

    Same map as chart_embed up to the fixed in-plane frame offset noted
    above; exposed so that the chart metric below can be validated against
    its finite-difference Jacobian.
    """
    x, y = xy
    g = math.sqrt(5.0 * _bracket(x, y))
    f1 = 2.5 * SQRT2 * (3 + SQRT5) / g
    f2 = ((10 + 2 * SQRT5) * x - 4 * SQRT5 * y - math.sqrt(10.0)) / g
    f3 = 0.5 * (-8 * SQRT5 * x + (20 - 4 * SQRT5) * y - (5 + SQRT5) * SQRT2) / g
    f4 = math.sqrt(5 + SQRT5) * ((5 - SQRT5) * SQRT2 * x + 2 * math.sqrt(10.0) * y + SQRT5) / g
    return np.array([f1, f2, f3, f4])


# polynomial terms (xpow, ypow, plain, sqrt5) meaning (plain + sqrt5*SQRT5) x^i y^j;
# rational and sqrt2-carrying parts are kept in separate tables
_M11_PLAIN = [
    (2, 2, 1600, 0), (0, 4, 1600, 0), (2, 0, 860, 340), (1, 1, 80, 80),
    (0, 2, 2000, 760), (0, 0, 845, 374),
]
_M11_SQRT2 = [
    (2, 1, 400, 80), (1, 2, 0, 160), (0, 3, 800, 160), (1, 0, 170, 86),
    (0, 1, 610, 258),
]
_M22_PLAIN = [
    (4, 0, 3200, 0), (2, 2, 3200, 0), (2, 0, 3800, 1320), (1, 1, 160, 160),
    (0, 2, 1680, 640), (0, 0, 1625, 717),
]
_M22_SQRT2 = [
    (3, 0, 0, 640), (2, 1, 800, 160), (1, 2, 0, 320), (1, 0, 660, 348),
    (0, 1, 580, 244),
]
_M12_PLAIN = [
    (9, 1, 8192000, 0), (7, 3, 32768000, 0), (5, 5, 49152000, 0),
    (3, 7, 32768000, 0), (1, 9, 8192000, 0),
    (8, 0, 921600, 921600), (7, 1, 27443200, 7782400),
    (6, 2, 8601600, 8601600), (5, 3, 84787200, 25804800),
    (4, 4, 15360000, 15360000), (3, 5, 87244800, 28262400),
    (2, 6, 8601600, 8601600), (1, 7, 29900800, 10240000),
    (0, 8, 921600, 921600),
    (6, 0, 4802560, 2365440), (5, 1, 43054080, 18201600),
    (4, 2, 31795200, 15513600), (3, 3, 95078400, 40704000),
    (2, 4, 32716800, 15820800), (1, 5, 51655680, 22379520),
    (0, 6, 5232640, 2508800),
    (4, 0, 5671424, 2559744), (3, 1, 32037888, 14255616),
    (2, 2, 21451776, 9666048), (1, 3, 36815872, 16409088),
    (0, 4, 6244864, 2809600),
    (2, 0, 2327712, 1041696), (1, 1, 8408152, 3759032),
    (0, 2, 2501088, 1119072), (0, 0, 192091, 85909),
]
_M12_SQRT2 = [
    (9, 0, 1024000, 204800), (8, 1, 0, 3686400), (7, 2, 12288000, 2457600),
    (6, 3, 0, 11468800), (5, 4, 30720000, 6144000), (4, 5, 0, 12288000),
    (3, 6, 28672000, 5734400), (2, 7, 0, 4915200), (1, 8, 9216000, 1843200),
    (0, 9, 0, 409600),
    (7, 0, 3993600, 1495040), (6, 1, 13619200, 7884800),
    (5, 2, 35328000, 13578240), (4, 3, 32256000, 18329600),
    (3, 4, 57856000, 22835200), (2, 5, 21196800, 11857920),
    (1, 6, 26521600, 10752000), (0, 7, 2560000, 1413120),
    (5, 0, 6259200, 2740224), (4, 1, 19347200, 8878336),
    (3, 2, 37248000, 16392192), (2, 3, 27302400, 12486144),
    (1, 4, 30681600, 13570048), (0, 5, 5241600, 2389248),
    (3, 0, 4288192, 1914304), (2, 1, 8825088, 3954816),
    (1, 2, 12752064, 5696448), (0, 3, 3657984, 1638528),
    (1, 0, 1024706, 458214), (0, 1, 798798, 357278),
]


def _poly(terms_plain, terms_sqrt2, x, y):
    acc = 0.0
    for i, j, a, b in terms_plain:
        acc += (a + b * SQRT5) * x ** i * y ** j
    for i, j, a, b in terms_sqrt2:
        acc += (a + b * SQRT5) * SQRT2 * x ** i * y ** j
    return acc


def face_chart_metric(xy) -> np.ndarray:
    """First fundamental form of the chart-to-sphere embedding at (x, y).

    This is the 2x2 symmetric positive-definite matrix a metric-driven 2-D
    mesher would consume; here it is exposed as an element-quality
    diagnostic only.
    """
    x, y = xy
    b = _bracket(x, y)
    m11 = 320.0 * _poly(_M11_PLAIN, _M11_SQRT2, x, y) / b ** 3
    m22 = 160.0 * _poly(_M22_PLAIN, _M22_SQRT2, x, y) / b ** 3
    # sign fixed to agree with the Jacobian Gram matrix of the embedding
    m12 = -32000.0 * _poly(_M12_PLAIN, _M12_SQRT2, x, y) / b ** 6
    return np.array([[m11, m12], [m12, m22]])


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
