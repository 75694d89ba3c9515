"""The quadrature rule on the reference tetrahedron.

`QUADRATURE` is a symmetric 14-point rule with positive weights: its
barycentric points carry weights summing to the reference volume 1/6, and
it is exact for polynomials of degree 5 (its `degree` field keeps the
nominal 4).  Its arrays are read-only.  `quadrature_weights` applies it to
physical tets under the weight w(X) = (1 - |X|^2)^(-1/2), the volume
density of the lift to the 3-sphere.  |X|^2 = lam^T (V V^T) lam comes from
the Gram matrix of the (4, 3) vertex matrix V, so no physical point
X = V^T lam is formed.  The weighted integral of f over a tet is
|det| * sum_q wq[q] f(X_q), X_q = QUADRATURE.points[q] @ verts.  The
determinants and the barycentric gradients come in closed form from the
edge cross products of `edge_cofactors`, not from a batched LU;
`tet_determinants` gives the same determinants from one cross product.
Both work on the coordinates of each kind (x, y or z) as rows over the
tets and form each cross-product component as one product minus another,
the operations `np.cross` makes, so their values are those of `np.cross`.
Products with the rule's constant matrices go through `rows_times`, so a
tet's values do not depend on how many tets are computed with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WeightSingularity


@dataclass(frozen=True)
class QuadratureRule:
    degree: int
    points: np.ndarray    # (m, 4) barycentric coordinates
    weights: np.ndarray   # (m,), sum = 1/6


def _perm_1_3(a):
    """The four barycentric points with one coordinate 1-3a and three a."""
    pts = []
    for k in range(4):
        p = [a] * 4
        p[k] = 1.0 - 3.0 * a
        pts.append(p)
    return pts


def _perm_2_2(c):
    """The six barycentric points with two coordinates c and two 1/2 - c."""
    pts = []
    for i in range(4):
        for j in range(i + 1, 4):
            p = [c] * 4
            p[i] = p[j] = 0.5 - c
            pts.append(p)
    return pts


def _fourteen_point_rule() -> QuadratureRule:
    a = 0.31088591926330060980
    b = 0.092735250310891226402
    c = 0.045503704125649649492
    wa = 0.11268792571801585080 / 6.0
    wb = 0.073493043116361949544 / 6.0
    wc = 0.042546020777081466438 / 6.0
    points = np.array(_perm_1_3(a) + _perm_1_3(b) + _perm_2_2(c))
    weights = np.concatenate([np.full(4, wa), np.full(4, wb), np.full(6, wc)])
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(degree=4, points=points, weights=weights)


QUADRATURE = _fourteen_point_rule()


def reference_monomial_integral(p: int, q: int, r: int) -> float:
    """Exact integral of x^p y^q z^r over the reference tetrahedron.

    Dirichlet's formula: p! q! r! / (p + q + r + 3)!.
    """
    return (math.factorial(p) * math.factorial(q) * math.factorial(r)
            / math.factorial(p + q + r + 3))


def rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D `a`, each row summed in the same order whatever len(a).

    numpy sends a one-row product to gemv, which sums in another order than
    gemm, so a one-row `a` is multiplied as two copies of itself.
    """
    if len(a) == 1:
        return (np.vstack([a, a]) @ b)[:1]
    return a @ b


def quadrature_weights(verts: np.ndarray) -> np.ndarray:
    """Weights times w (T, m) at the quadrature points of the tets `verts` (T, 4, 3)."""
    pts = QUADRATURE.points
    gram = (verts @ verts.transpose(0, 2, 1)).reshape(-1, 16)
    r2 = rows_times(gram, np.einsum("mi,mj->ijm", pts, pts).reshape(16, -1))
    if r2.max() >= 1.0:
        raise WeightSingularity("quadrature point outside the unit ball")
    wq = 1.0 / np.sqrt(1.0 - r2)
    wq *= QUADRATURE.weights
    return wq


def _edge_components(verts: np.ndarray, out=None) -> np.ndarray:
    """(3, 3, T) edges e_i = v_i - v_0 of the tets `verts` (T, 4, 3), indexed
    [coordinate, i - 1, tet]."""
    vt = np.ascontiguousarray(verts.transpose(2, 1, 0))
    return np.subtract(vt[:, 1:], vt[:, :1], out=out)


def tet_determinants(verts: np.ndarray) -> np.ndarray:
    """Signed determinants (T,) of the tets `verts` (T, 4, 3), six times
    their signed volumes.

    det = e_1 . (e_2 x e_3) with the edges e_i = v_i - v_0, from the one
    cross product it needs; each value is bit-equal to the determinant of
    `edge_cofactors`.
    """
    (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = _edge_components(verts)
    return x1 * (y2 * z3 - z2 * y3) + y1 * (z2 * x3 - x2 * z3) + z1 * (x2 * y3 - y2 * x3)


def edge_cofactors(verts: np.ndarray):
    """Cofactors (T, 3, 3) and signed determinants (T,) of the tets `verts` (T, 4, 3).

    With the edges e_i = v_i - v_0, the cofactor rows are e_2 x e_3,
    e_3 x e_1 and e_1 x e_2, and det = e_1 . (e_2 x e_3) is six times the
    signed volume; row i - 1 of the cofactors over det is grad lam_i.  The
    cofactors are a transposed view of a (3, 3, T) array.
    """
    e = np.empty((3, 5, len(verts)))
    _edge_components(verts, out=e[:, :3])
    e[:, 3:] = e[:, :2]
    # cofactor row r is a[:, r] x b[:, r], the edges (e_2, e_3), (e_3, e_1)
    # and (e_1, e_2); coordinate i of it is a_j b_k - a_k b_j, (i, j, k) cyclic
    a, b = e[:, 1:4], e[:, 2:5]
    cof = np.empty((3, 3, len(verts)))              # [coordinate, row, tet]
    tmp = np.empty((3, len(verts)))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=cof[i])
        np.multiply(a[k], b[j], out=tmp)
        cof[i] -= tmp
    (x1, y1, z1), (cx, cy, cz) = e[:, 0], cof[:, 0]
    return cof.transpose(2, 1, 0), x1 * cx + y1 * cy + z1 * cz
