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


def tet_determinants(verts: np.ndarray) -> np.ndarray:
    """Signed determinants (T,) of the tets `verts` (T, 4, 3), six times
    their signed volumes.

    det = e_1 . (e_2 x e_3) with the edges e_i = v_i - v_0, from the one
    cross product it needs; each value is bit-equal to the determinant of
    `edge_cofactors`.
    """
    e = verts[:, 1:] - verts[:, :1]
    e1, c1 = e[:, 0], np.cross(e[:, 1], e[:, 2])
    return e1[:, 0] * c1[:, 0] + e1[:, 1] * c1[:, 1] + e1[:, 2] * c1[:, 2]


def edge_cofactors(verts: np.ndarray):
    """Cofactors (T, 3, 3) and signed determinants (T,) of the tets `verts` (T, 4, 3).

    With the edges e_i = v_i - v_0, the cofactor rows are e_2 x e_3,
    e_3 x e_1 and e_1 x e_2, and det = e_1 . (e_2 x e_3) is six times the
    signed volume; row i - 1 of the cofactors over det is grad lam_i.
    """
    e = verts[:, 1:] - verts[:, :1]
    cof = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
    e1, c1 = e[:, 0], cof[:, 0]
    det = e1[:, 0] * c1[:, 0] + e1[:, 1] * c1[:, 1] + e1[:, 2] * c1[:, 2]
    return cof, det
