"""Identified degrees of freedom and assembly of the wave operators.

The periodic constraint u(X) = u(X') for identified boundary points is
built into the basis: all mesh nodes of one equivalence class share a
single degree of freedom, and element contributions accumulate over class
members.  Three sparse symmetric matrices are assembled with the weight
w(X) = (1 - |X|^2)^(-1/2):

    mass       m_ij = int w e_i e_j
    stiffness  k_ij = int w  grad e_i . grad e_j
    radial     d_ij = -int w (X . grad e_i)(X . grad e_j)

plus the wave operator, stiffness + radial.

Each tet gives three 4x4 element matrices.  Barycentric coordinates lam
are affine, so X . grad lam_i = (B lam)_i with B = G V^T (G the gradients
of lam, V the vertices, both (4, 3)): the radial element matrix is
-B M_loc B^T with M_loc the mass element matrix, and the quadrature needs
only the weights, which take |X|^2 from the vertex Gram matrix V V^T.

Each matrix is built from its summed lower triangle and stored once, as
the full symmetric matrix in compressed sparse rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import ClassSizeError, NoConvergence
from .icosian import merge_classes
from .meshing import TetMesh
from .quadrature import QuadratureRule, quadrature_rule, weighted_quadrature


class SparseSymMatrix:
    """Symmetric matrix built from its lower triangle, stored once as full CSR."""

    def __init__(self, lower: sp.csr_matrix):
        n, m = lower.shape
        assert n == m
        self.n = n
        strict = sp.tril(lower, k=-1)
        self._full = (lower + strict.T).tocsr()

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SparseSymMatrix":
        """Sum the triplets on and below the diagonal and drop the rest.

        The round-off of the sums follows the order of the triplets.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        vals = np.asarray(vals, dtype=float)
        keep = rows >= cols
        lower = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                              shape=(n, n)).tocsr()
        return cls(lower)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._full @ x

    @property
    def lower(self) -> sp.csr_matrix:
        """The lower triangle, derived from the stored full matrix."""
        return sp.tril(self._full, format="csr")

    def diagonal(self) -> np.ndarray:
        return self._full.diagonal()

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

    def quad_form(self, x: np.ndarray) -> float:
        return float(x @ (self._full @ x))

    def max_abs(self) -> float:
        return float(np.abs(self._full.data).max()) if self._full.nnz else 0.0

    @property
    def nnz_lower(self) -> int:
        """Stored entries on and below the diagonal."""
        rows = np.repeat(np.arange(self.n), np.diff(self._full.indptr))
        return int(np.count_nonzero(self._full.indices <= rows))

    def total_sum(self) -> float:
        return float(self._full.sum())

    def save_matrix_market(self, path) -> None:
        scipy.io.mmwrite(path, self._full.tocoo(), symmetry="symmetric")


class Operators(NamedTuple):
    mass: SparseSymMatrix
    stiffness: SparseSymMatrix
    radial: SparseSymMatrix
    wave: SparseSymMatrix       # stiffness + radial, the spatial operator


@dataclass
class DofMap:
    """Mesh vertices to identified degrees of freedom."""

    node_to_dof: np.ndarray              # (n_vertices,)
    dof_to_node: np.ndarray              # (n_dofs,) canonical representative
    n_interior: int
    n_edge_nodes: int                    # boundary nodes in classes of three
    n_face_nodes: int                    # boundary nodes in classes of two
    n_corner_classes: int                # classes of four
    classes: list = field(repr=False)    # boundary classes as node tuples

    @property
    def n_dofs(self) -> int:
        return len(self.dof_to_node)

    @property
    def per_edge_count(self) -> float:
        """Identified nodes per dodecahedron edge (30 edges)."""
        return self.n_edge_nodes / 30.0

    @property
    def per_face_count(self) -> float:
        """Identified nodes per face interior (12 faces)."""
        return self.n_face_nodes / 12.0

    def formula_count(self) -> float:
        """10 (per-edge) + 6 (per-face) + interior + 5 corner unknowns."""
        return (10.0 * self.per_edge_count + 6.0 * self.per_face_count
                + self.n_interior + 5.0)


def build_dof_map(mesh: TetMesh) -> DofMap:
    """Group boundary nodes by the transitive closure of their partners."""
    n = len(mesh.vertices)
    node_to_dof, dof_to_node = merge_classes(n, mesh.periodic[:, [0, 2]])

    boundary = mesh.boundary_nodes
    members = boundary[np.argsort(node_to_dof[boundary], kind="stable")]
    _, starts, sizes = np.unique(node_to_dof[members], return_index=True,
                                 return_counts=True)
    bad = np.flatnonzero((sizes < 2) | (sizes > 4))
    if len(bad):
        k = bad[0]
        raise ClassSizeError(
            f"boundary class {members[starts[k]:starts[k] + sizes[k]].tolist()} has size "
            f"{sizes[k]}, expected 2, 3 or 4")
    ids, ends = members.tolist(), (starts + sizes).tolist()
    classes = [tuple(ids[a:b]) for a, b in zip(starts.tolist(), ends)]

    dof_map = DofMap(node_to_dof=node_to_dof, dof_to_node=dof_to_node,
                     n_interior=n - len(boundary),
                     n_edge_nodes=int(sizes[sizes == 3].sum()),
                     n_face_nodes=int(sizes[sizes == 2].sum()),
                     n_corner_classes=int((sizes == 4).sum()),
                     classes=classes)
    if dof_map.n_dofs != round(dof_map.formula_count()):
        raise ClassSizeError(
            f"dof count {dof_map.n_dofs} violates the identified-node formula "
            f"{dof_map.formula_count()}")
    return dof_map


def element_matrices(verts: np.ndarray, rule: QuadratureRule):
    """Mass, stiffness and radial element matrices (T, 4, 4) of the tets `verts`."""
    det, wq = weighted_quadrature(verts, rule)
    grads = np.empty_like(verts)                 # rows: grad lam_0..3
    grads[:, 1:] = np.linalg.inv(verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)

    bb = np.einsum("mi,mj->mij", rule.points, rule.points)   # (m, 4, 4)
    m_loc = (wq @ bb.reshape(-1, 16)).reshape(-1, 4, 4)
    m_loc *= det[:, None, None]
    k_loc = grads @ grads.transpose(0, 2, 1)
    k_loc *= (wq.sum(axis=1) * det)[:, None, None]

    b = grads @ verts.transpose(0, 2, 1)         # X . grad lam = B lam
    d_loc = -b @ m_loc @ b.transpose(0, 2, 1)
    return m_loc, k_loc, d_loc


def assemble(mesh: TetMesh, dof_map: DofMap,
             rule: QuadratureRule | None = None) -> Operators:
    """Assemble mass, stiffness, radial and wave matrices on identified dofs.

    The tets are summed in a canonical order (by sorted vertex ids), so the
    round-off does not depend on the order of `mesh.tets`.
    """
    if rule is None:
        rule = quadrature_rule(4)
    key = np.sort(mesh.tets, axis=1)
    tets = mesh.tets[np.lexsort(key.T[::-1])]
    locs = element_matrices(mesh.vertices[tets], rule)
    dof = dof_map.node_to_dof[tets]                          # (T, 4)
    rows = np.repeat(dof, 4, axis=1).ravel()
    cols = np.tile(dof, (1, 4)).ravel()
    n = dof_map.n_dofs
    mass, stiffness, radial = (SparseSymMatrix.from_triplets(n, rows, cols, loc.ravel())
                               for loc in locs)
    wave = SparseSymMatrix((stiffness.lower + radial.lower).tocsr())
    return Operators(mass, stiffness, radial, wave)


def estimate_spectral_bound(mass: SparseSymMatrix, wave: SparseSymMatrix,
                            tol: float = 1e-4, max_iter: int = 10000,
                            seed: int = 0, info: dict | None = None) -> tuple[float, float]:
    """Largest generalized eigenvalue of (wave, mass) by power iteration.

    Returns (lambda_max, dt_max) with dt_max = 2 / sqrt(lambda_max), the
    stability limit of the explicit scheme.  The iteration stops once the
    Rayleigh quotient changes by at most `tol` relative, tested before the
    next iterate is solved for: k iterations make k - 1 mass solves, each to
    `tol / 100`, warm-started from the previous solution.  If `info` is a
    dict it receives the number of power iterations k under "iterations"
    and the final relative change of lambda under "relative_change".
    """
    from .evolve import make_preconditioner, pcg_solve

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(mass.n)
    x /= np.linalg.norm(x)
    mx = mass @ x
    precond = make_preconditioner(mass)
    solve_info: dict = {}
    lam = 0.0
    y = my = None
    for k in range(1, max_iter + 1):
        ax = wave @ x
        lam_new = float(x @ ax) / float(x @ mx)
        change = abs(lam_new - lam) / lam_new if lam_new else math.inf
        lam = lam_new
        if lam > 0 and change <= tol:
            break
        y = pcg_solve(mass, ax, precond, tol=tol / 100, x0=y, info=solve_info,
                      mass_x0=my)
        my = solve_info["mass_x"]
        y_norm = np.linalg.norm(y)
        x, mx = y / y_norm, my / y_norm
    else:
        raise NoConvergence(f"power iteration did not settle in {max_iter} iterations")
    if info is not None:
        info["iterations"] = k
        info["relative_change"] = change
    return lam, 2.0 / np.sqrt(lam)
