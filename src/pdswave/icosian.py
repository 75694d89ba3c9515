"""Unit quaternions and the binary icosahedral group.

A quaternion w + x i + y j + z k is the row (w, x, y, z), the last axis of
a (..., 4) float array, and `left_matrix(a) @ b` is the Hamilton product
a b, the only one in the package.

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


def _read_only(coeffs) -> np.ndarray:
    a = np.array(coeffs, dtype=float)
    a.flags.writeable = False
    return a


# generators: s = (1+i+j+k)/2 and the distance-pi/5 screw with axis in the j-k plane
GEN_S = _read_only([0.5, 0.5, 0.5, 0.5])
GEN_GAMMA = _read_only([SIGMA_HALF, 0.0, INV_TWO_SIGMA, -0.5])


def left_matrix(q) -> np.ndarray:
    """Matrices of left multiplication p -> q p on R^4: (..., 4) -> (..., 4, 4).

    `left_matrix(a) @ b` is the Hamilton product a b.
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([w, -x, -y, -z,
                     x, w, -z, y,
                     y, z, w, -x,
                     z, -y, x, w], axis=-1).reshape(w.shape + (4, 4))


def rotation_of(q) -> np.ndarray:
    """SO(3) matrices of p -> q p q^-1 on the pure-imaginary span:
    (..., 4) -> (..., 3, 3).

    Two-to-one: q and -q give the same rotation.
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    n = w ** 2 + x ** 2 + y ** 2 + z ** 2
    bad = n[np.abs(n - 1.0) > 1e-9]
    if bad.size:
        raise NonUnitQuaternion(f"|q|^2 = {float(bad[0])!r} is not 1")
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(w.shape + (3, 3))


def translation_distance(q) -> float:
    """Clifford translation distance of one quaternion: d(p, q p) for every unit p."""
    return math.acos(max(-1.0, min(1.0, float(q[0]))))


class GroupTable:
    """The 120 group elements with product and inverse index tables.

    `coeffs` (n, 4) holds the quaternions, `matrices` (n, 4, 4) their left
    multiplications, `chi` (n,) their translation distances.  Every array is
    read-only; all lookups are pure.
    """

    def __init__(self, coeffs):
        coeffs = _read_only(coeffs)
        mats = left_matrix(coeffs)
        n = len(coeffs)
        # the nearest element of every product (row-major) and every inverse
        queries = np.vstack([np.einsum("iab,jb->ija", mats, coeffs).reshape(-1, 4),
                             coeffs * [1.0, -1.0, -1.0, -1.0]])      # conjugates
        dist, idx = cKDTree(coeffs).query(queries)
        if dist.max() > 1e-6:                   # elements lie >= 0.3 apart
            raise GenerationDiverged(f"a product or inverse lies {dist.max():.3g} "
                                     "from every element: the set is not closed")
        self.coeffs = coeffs
        self.matrices = mats
        # math.acos per element: np.arccos differs from it in the last bit on
        # some chi, and group.json prints chi
        self.chi = np.array([translation_distance(q) for q in coeffs])
        self.product = idx[:n * n].reshape(n, n).astype(np.int32)
        self.inverse = idx[n * n:].astype(np.int32)
        for a in (self.matrices, self.chi, self.product, self.inverse):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.coeffs)


def _unit_icosians() -> np.ndarray:
    """The 120 unit icosians in closed form, (120, 4); every zero is +0.0."""
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
    return np.array(units + halves + mixed)


@functools.lru_cache(maxsize=1)
def generate_group() -> GroupTable:
    """The 120 unit icosians, checked to be closed and generated by {s, gamma}.

    They are sorted by decreasing w, then x, y, z, so element 0 is 1.
    """
    coeffs = _unit_icosians()
    table = GroupTable(coeffs[np.lexsort(-coeffs.T[::-1])])
    if len(table) != 120:
        raise GenerationDiverged(f"the group has {len(table)} elements, expected 120")
    gens = np.array([GEN_S, GEN_GAMMA])
    dist = np.abs(table.coeffs[:, None, :] - gens).max(axis=2)
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
    pts = np.einsum("gab,sb->gsa", table.matrices, seeds).reshape(-1, 4)
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
            "coefficients": q.tolist(),
            "chi": float(chi),
            "inverse": int(inv)}
           for i, (q, chi, inv) in enumerate(zip(table.coeffs, table.chi, table.inverse))]
    return json.dumps(out, indent=1)


def cell_to_json(points: np.ndarray, labels: np.ndarray) -> str:
    """JSON dump of the 600 orbit vertices with family labels."""
    out = [{"point": list(p), "family": int(l), "family_pattern": family_description(int(l))}
           for p, l in zip(points, labels)]
    return json.dumps(out, indent=1)
