"""Unit quaternions and the binary icosahedral group.

The 120 elements are the unit icosians, written down in closed form
(Conway & Smith, On Quaternions and Octonions, 2003, sec. 5): the 8 units
+-1, +-i, +-j, +-k, the 16 points (+-1 +-i +-j +-k)/2, and the 96 even
permutations of (0, +-1/2, +-1/(2 sigma), +-sigma/2).  The product table
confirms that they are closed and that the two classical generators
generate them.  Every element is a right-handed Clifford translation of
the 3-sphere; its translation distance is the arccos of the real part.
The orbit of the twenty fundamental-domain vertices under the group is the
600-vertex skeleton of the regular 120-cell.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import GenerationDiverged, NonUnitQuaternion, OrbitCountMismatch

SQRT5 = math.sqrt(5.0)
SIGMA = (1.0 + SQRT5) / 2             # the golden ratio
SIGMA_HALF = (1.0 + SQRT5) / 4        # sigma / 2
INV_TWO_SIGMA = (SQRT5 - 1.0) / 4     # 1 / (2 sigma)

# translation distances occurring in the group
CHI_VALUES = (0.0, math.pi / 5, math.pi / 3, 2 * math.pi / 5, math.pi / 2,
              3 * math.pi / 5, 2 * math.pi / 3, 4 * math.pi / 5, math.pi)


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x i + y j + z k."""

    w: float
    x: float
    y: float
    z: float

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        w = self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z
        x = self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y
        y = self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x
        z = self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w
        return Quaternion(w, x, y, z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)

# generators: s = (1+i+j+k)/2 and the distance-pi/5 screw with axis in the j-k plane
GEN_S = Quaternion(0.5, 0.5, 0.5, 0.5)
GEN_GAMMA = Quaternion(SIGMA_HALF, 0.0, INV_TWO_SIGMA, -0.5)


def left_matrix(q: Quaternion) -> np.ndarray:
    """4x4 matrix of left multiplication p -> q*p on R^4."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def rotation_of(q: Quaternion) -> np.ndarray:
    """SO(3) matrix of p -> q p q^-1 restricted to the pure-imaginary span.

    Two-to-one: q and -q give the same rotation.
    """
    n = q.norm_sq()
    if abs(n - 1.0) > 1e-9:
        raise NonUnitQuaternion(f"|q|^2 = {n!r} is not 1")
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def translation_distance(q: Quaternion) -> float:
    """Clifford translation distance: d(p, q*p) for every unit p."""
    return math.acos(max(-1.0, min(1.0, q.w)))


@dataclass(frozen=True)
class GroupElement:
    quat: Quaternion
    matrix4: np.ndarray = field(compare=False)
    chi: float


class GroupTable:
    """The 120 group elements with product and inverse index tables.

    Immutable after construction; all lookups are pure.
    """

    def __init__(self, elements: list[GroupElement]):
        self.elements = tuple(elements)
        coeffs = np.array([e.quat.as_array() for e in elements])
        mats = np.array([e.matrix4 for e in elements])
        n = len(elements)
        # the nearest element of every product (row-major) and every inverse
        queries = np.vstack([np.einsum("iab,jb->ija", mats, coeffs).reshape(-1, 4),
                             coeffs * [1.0, -1.0, -1.0, -1.0]])      # conjugates
        dist, idx = cKDTree(coeffs).query(queries)
        if dist.max() > 1e-6:                   # elements lie >= 0.3 apart
            raise GenerationDiverged(f"a product or inverse lies {dist.max():.3g} "
                                     "from every element: the set is not closed")
        self.product = idx[:n * n].reshape(n, n).astype(np.int32)
        self.inverse = idx[n * n:].astype(np.int32)

    def __len__(self) -> int:
        return len(self.elements)


def _unit_icosians() -> list[Quaternion]:
    """The 120 unit icosians in closed form; every zero is +0.0."""
    signs = (1.0, -1.0)
    units = [tuple(s if i == k else 0.0 for i in range(4))
             for k in range(4) for s in signs]
    halves = list(itertools.product((0.5, -0.5), repeat=4))
    even = [p for p in itertools.permutations(range(4))
            if sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4)) % 2 == 0]
    mixed = []
    for sa, sb, sc in itertools.product(signs, repeat=3):
        values = (0.0, sa * 0.5, sb * INV_TWO_SIGMA, sc * SIGMA_HALF)
        for p in even:
            c = [0.0] * 4
            for m, v in zip(p, values):
                c[m] = v
            mixed.append(tuple(c))
    return [Quaternion(*c) for c in units + halves + mixed]


@functools.lru_cache(maxsize=1)
def generate_group() -> GroupTable:
    """The 120 unit icosians, checked to be closed and generated by {s, gamma}."""
    elems = sorted(_unit_icosians(), key=lambda q: (-q.w, -q.x, -q.y, -q.z))
    table = GroupTable([GroupElement(q, left_matrix(q), translation_distance(q))
                        for q in elems])
    if len(table) != 120:
        raise GenerationDiverged(f"the group has {len(table)} elements, expected 120")
    coeffs = np.array([q.as_array() for q in elems])
    gens = np.array([GEN_S.as_array(), GEN_GAMMA.as_array()])
    dist = np.abs(coeffs[:, None, :] - gens).max(axis=2)
    if dist.min(axis=0).max() > 1e-12:
        raise GenerationDiverged("a generator is not an element of the group")
    # the right Cayley graph of {s, gamma} is connected iff they generate the group
    labels = merge_classes(len(table), [(i, table.product[i, g])
                                        for g in dist.argmin(axis=0)
                                        for i in range(len(table))])[0]
    if labels.max() != 0:
        raise GenerationDiverged(f"s and gamma generate a subgroup of order "
                                 f"{np.count_nonzero(labels == 0)}, not the group")
    return table


# -- equivalence classes ----------------------------------------------------

def merge_classes(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Equivalence classes of range(n) under the closure of (i, j) `pairs`.

    Returns (labels, representatives): the class label of each item, and
    the smallest member of each class.  Labels are numbered in the order of
    the smallest members, so representatives[labels[i]] <= i and
    representatives is increasing.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    labels = connected_components(graph, directed=False)[1].astype(np.int64)
    _, representatives = np.unique(labels, return_index=True)
    return labels, representatives.astype(np.int64)


# -- the 600-cell orbit ------------------------------------------------------

# coordinate families of the 600 vertices, as multisets of |coordinate| * 2*sqrt2
_FAMILIES = (
    ("(+-2, +-2, 0, 0), all permutations", (0.0, 0.0, 2.0, 2.0), 24),
    ("(+-sqrt5, +-1, +-1, +-1), all permutations", (1.0, 1.0, 1.0, SQRT5), 64),
    ("(+-sigma, +-sigma, +-sigma, +-1/sigma^2), all permutations",
     (1 / SIGMA ** 2, SIGMA, SIGMA, SIGMA), 64),
    ("(+-sigma^2, +-1/sigma, +-1/sigma, +-1/sigma), all permutations",
     (1 / SIGMA, 1 / SIGMA, 1 / SIGMA, SIGMA ** 2), 64),
    ("(+-sigma^2, +-1/sigma^2, 0, +-1), even permutations",
     (0.0, 1 / SIGMA ** 2, 1.0, SIGMA ** 2), 96),
    ("(+-sqrt5, +-1/sigma, 0, +-sigma), even permutations",
     (0.0, 1 / SIGMA, SIGMA, SQRT5), 96),
    ("(+-2, +-1, +-1/sigma, +-sigma), even permutations",
     (1 / SIGMA, 1.0, SIGMA, 2.0), 192),
)

FAMILY_COUNTS = tuple(f[2] for f in _FAMILIES)


def orbit_vertices(table: GroupTable, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit of the 20 fundamental vertices under all 120 elements.

    Returns the 600 distinct points and, for each, the index of its
    coordinate family (counts 24/64/64/64/96/96/192).
    """
    seeds = np.asarray(seeds, dtype=float)
    mats = np.array([e.matrix4 for e in table.elements])
    pts = np.einsum("gab,sb->gsa", mats, seeds).reshape(-1, 4)
    # merge duplicates; distinct 120-cell vertices are >= 0.27 apart
    pairs = cKDTree(pts).query_pairs(1e-9, output_type="ndarray")
    points = pts[merge_classes(len(pts), pairs)[1]]
    if len(points) != 600:
        raise OrbitCountMismatch(f"orbit has {len(points)} points, expected 600")

    patterns = np.array([f[1] for f in _FAMILIES])
    labels = np.empty(len(points), dtype=np.int64)
    scaled = np.sort(np.abs(points) * (2 * math.sqrt(2.0)), axis=1)
    for i, row in enumerate(scaled):
        d = np.abs(patterns - row).max(axis=1)
        j = int(d.argmin())
        if d[j] > 1e-6:
            raise OrbitCountMismatch(f"vertex {points[i]} matches no family")
        labels[i] = j
    counts = np.bincount(labels, minlength=len(_FAMILIES))
    if tuple(counts) != FAMILY_COUNTS:
        raise OrbitCountMismatch(f"family counts {tuple(counts)} != {FAMILY_COUNTS}")
    return points, labels


def family_description(label: int) -> str:
    return _FAMILIES[label][0]


def group_to_json(table: GroupTable) -> str:
    """JSON dump of the 120 elements (coefficients, chi, inverse index)."""
    out = [{"index": i,
            "coefficients": list(e.quat.as_array()),
            "chi": e.chi,
            "inverse": int(table.inverse[i])}
           for i, e in enumerate(table.elements)]
    return json.dumps(out, indent=1)


def cell_to_json(points: np.ndarray, labels: np.ndarray) -> str:
    """JSON dump of the 600 orbit vertices with family labels."""
    out = [{"point": list(p), "family": int(l), "family_pattern": family_description(int(l))}
           for p, l in zip(points, labels)]
    return json.dumps(out, indent=1)
