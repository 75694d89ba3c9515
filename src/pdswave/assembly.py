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

Each tet gives three 4x4 element matrices.  The gradients G of the
barycentric coordinates lam are closed-form: with the edges e_i = v_i - v_0,
grad lam_1..3 are e_2 x e_3, e_3 x e_1 and e_1 x e_2 over the determinant
e_1 . (e_2 x e_3), and grad lam_0 is minus their sum.  lam is affine, so
X . grad lam_i = (B lam)_i with B = G V^T (V the vertices, G and V both
(4, 3)): the radial element matrix is
-B M_loc B^T with M_loc the mass element matrix, and the quadrature needs
only the weights, which take |X|^2 from the vertex Gram matrix V V^T.

Each matrix is built from its summed lower triangle and stored once, as
the full symmetric matrix in compressed sparse rows.  The tets are taken in
a canonical order, by their sorted vertex ids, held as a permutation of
`mesh.tets` rather than as a reordered copy; `np.lexsort` finds it from
two int64 keys per tet, not four columns.  The lower pattern is built first, as
tril(E^T E) of the (T, n_dofs) tet-dof incidence E, which is dropped with
the tets' dofs once the pattern exists; a CSR array on the pattern whose
values are the slot numbers then maps each (row, col) to its slot.  The
element matrices are computed over the blocks of `meshing.tet_blocks`,
each block's tets and their dofs gathered through the permutation; one
lookup in that CSR per block finds the slots of their entries on or below
the diagonal, each by a search within its short pattern row, and
`np.add.at` adds them into one value array per matrix.  It adds in the
(t, a, b) order of a whole-mesh pass over the canonically ordered tets, so
every entry is that ordered sum from 0.0, whatever the block size, and the
setup memory grows with the pattern, not with the triplets or (T, 4, 4)
arrays.  The wave values are the stiffness plus the radial values on the
same slots.

All four matrices share one pattern, so one `SparseSymMatrix.from_triplets`
call, given the pattern's int32 rows and columns and the list of the four
value arrays, builds them all.  It builds the full pattern once from the
lower one: the int32 row pointer, the column indices (each row's lower
entries, then its mirrored strict entries by increasing row) and a map from
each full slot to the lower entry it copies.  Each matrix is then one
gather of its lower values through that map, and the four share one
read-only row pointer and one read-only index array.  The value arrays are
never stacked, and each is released once its matrix has gathered it, so
the lower values are not held next to all four full matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ClassSizeError, NoConvergence
from .icosian import merge_classes
from .meshing import TetMesh, tet_blocks
from .quadrature import QUADRATURE, edge_cofactors, quadrature_weights, rows_times

# LOBPCG iterations before estimate_spectral_bound gives up
BOUND_MAX_ITER = 10000
# Jacobi sweeps of its 3 x 3 Rayleigh-Ritz step, and the size, relative to
# the largest entry, below which an off-diagonal entry counts as zero
JACOBI_MAX_SWEEPS = 50
JACOBI_TOL = 1e-15


def _symmetric_pattern(n: int, rows: np.ndarray, cols: np.ndarray):
    """Full CSR pattern (indptr, indices, src) of a symmetric n x n matrix
    from its lower pattern, the distinct entries (rows, cols) on and below
    the diagonal in row-major order.

    Row i holds its lower entries, then the mirrored strict entries (j, i) by
    increasing j, so its columns increase.  src maps each full slot to the
    lower entry it copies.  indptr and indices are read-only.
    """
    is_strict = rows != cols
    nnz = len(rows) + np.count_nonzero(is_strict)
    index = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    strict = np.flatnonzero(is_strict).astype(index)
    del is_strict
    strict = strict[np.argsort(cols[strict], kind="stable")]     # by (col, row)
    counts = np.stack([np.bincount(rows, minlength=n),
                       np.bincount(cols[strict], minlength=n)], axis=1)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts.sum(axis=1), out=indptr[1:])
    is_lower = np.repeat(np.tile([True, False], n), counts.ravel())
    src = np.empty(nnz, dtype=index)
    src[is_lower] = np.arange(len(rows), dtype=index)
    src[~is_lower] = strict
    indices = np.empty(nnz, dtype=index)
    indices[is_lower] = cols
    indices[~is_lower] = rows[strict]
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices, src


def _symmetric_csr(n: int, rows, cols, vals: list) -> list:
    """One full CSR matrix per row in the list `vals`, all on one pattern.

    Each row is taken off the list when its matrix is built, so the list ends
    empty.  See `SparseSymMatrix.from_triplets` for the rules.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    if any(val.shape != rows.shape for val in vals):
        raise ValueError(f"each row of vals must hold {len(rows)} values")
    keep = rows >= cols
    if not keep.all():
        rows, cols = rows[keep], cols[keep]
        vals[:] = [val[keep] for val in vals]
    del keep
    if len(rows) and (cols.min() < 0 or rows.max() >= n):
        raise ValueError(f"triplet index outside a {n} x {n} matrix")
    if not ((rows[1:] > rows[:-1])
            | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))).all():
        # sort by (row, col), stably so that duplicates keep the triplet order
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        slot = np.cumsum(first) - 1
        for i, val in enumerate(vals):
            vals[i] = np.zeros(np.count_nonzero(first))
            np.add.at(vals[i], slot, val[order])
        rows, cols = rows[first], cols[first]
    nonzero = np.zeros(len(rows), dtype=bool)
    for val in vals:
        nonzero |= val != 0
    if not nonzero.all():
        rows, cols = rows[nonzero], cols[nonzero]
        vals[:] = [val[nonzero] for val in vals]
    del nonzero
    indptr, indices, src = _symmetric_pattern(n, rows, cols)
    return [sp.csr_matrix((vals.pop(0)[src], indices, indptr), shape=(n, n))
            for _ in range(len(vals))]


class SparseSymMatrix:
    """Symmetric matrix built from its lower triangle, stored once as full CSR."""

    def __init__(self, lower):
        """The symmetric matrix whose lower triangle is that of the sparse `lower`."""
        lower = sp.coo_matrix(lower)
        (self._full,) = _symmetric_csr(lower.shape[0], lower.row, lower.col,
                                       [lower.data])

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals):
        """Symmetric matrices from triplets on and below the diagonal.

        `vals` holds one value per triplet, shape (m,), or k rows of them,
        as a (k, m) array or a list of k float arrays of shape (m,); k rows
        give a list of k matrices.  A list of rows is not stacked: each row
        is taken off it once its matrix holds the values, so the list ends
        empty and a row's memory can go before the next matrix is built.
        Triplets above the diagonal are dropped, and duplicates are summed
        from 0.0 in triplet order.  Entries already distinct and in
        row-major order are copied, not summed.  An entry is dropped only
        when it sums to zero in every row, so all k matrices share one
        pattern: one read-only `indptr` and one read-only `indices` array.
        """
        if isinstance(vals, list) and vals and np.ndim(vals[0]) == 1:
            vals[:] = [np.asarray(val, dtype=float) for val in vals]
            many = True
        else:
            array = np.asarray(vals, dtype=float)
            if array.ndim not in (1, 2):
                raise ValueError(f"vals must be (m,) or (k, m), got shape {array.shape}")
            many = array.ndim == 2
            vals = list(np.atleast_2d(array))
            del array
        mats = []
        for full in _symmetric_csr(n, rows, cols, vals):
            mat = cls.__new__(cls)
            mat._full = full
            mats.append(mat)
        return mats if many else mats[0]

    @property
    def n(self) -> int:
        return self._full.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x, np.empty(self.n))

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The product with the vector x written into `out`, which is returned.

        Byte-equal to `self._full @ x`: the same CSR kernel sums each row in
        the same order, without scipy's operator dispatch and without a new
        result array.  `out` must be a C-contiguous float64 vector of length n
        that does not overlap x.
        """
        full = self._full
        n = full.shape[0]
        if np.shape(x) != (n,) or out.shape != (n,) or not out.flags.c_contiguous:
            raise ValueError(f"matvec needs x and a C-contiguous out of shape ({n},)")
        # the kernel adds into out; its signature (n_row, n_col, indptr,
        # indices, data, x, y) has held across scipy >= 1.10
        out.fill(0.0)
        _sparsetools.csr_matvec(n, n, full.indptr, full.indices, full.data, x, out)
        return out

    @property
    def lower(self) -> sp.csr_matrix:
        """The lower triangle, derived from the stored full matrix."""
        return sp.tril(self._full, format="csr")

    def diagonal(self) -> np.ndarray:
        return self._full.diagonal()

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

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
    dofs, sizes = np.unique(node_to_dof[boundary], return_counts=True)
    bad = np.flatnonzero((sizes < 2) | (sizes > 4))
    if len(bad):
        k = bad[0]
        members = boundary[node_to_dof[boundary] == dofs[k]]
        raise ClassSizeError(f"boundary class {members.tolist()} has size {sizes[k]}, "
                             "expected 2, 3 or 4")

    dof_map = DofMap(node_to_dof=node_to_dof, dof_to_node=dof_to_node,
                     n_interior=n - len(boundary),
                     n_edge_nodes=int(sizes[sizes == 3].sum()),
                     n_face_nodes=int(sizes[sizes == 2].sum()),
                     n_corner_classes=int((sizes == 4).sum()))
    if dof_map.n_dofs != round(dof_map.formula_count()):
        raise ClassSizeError(
            f"dof count {dof_map.n_dofs} violates the identified-node formula "
            f"{dof_map.formula_count()}")
    return dof_map


def element_matrices(verts: np.ndarray):
    """Mass, stiffness and radial element matrices (T, 4, 4) of the tets `verts`."""
    cof, det = edge_cofactors(verts)
    wq = quadrature_weights(verts)
    grads = np.empty_like(verts)                 # rows: grad lam_0..3
    grads[:, 1:] = cof / det[:, None, None]
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    det = np.abs(det)

    bb = np.einsum("mi,mj->mij", QUADRATURE.points, QUADRATURE.points)   # (m, 4, 4)
    m_loc = rows_times(wq, bb.reshape(-1, 16)).reshape(-1, 4, 4)
    m_loc *= det[:, None, None]
    k_loc = grads @ grads.transpose(0, 2, 1)
    k_loc *= (wq.sum(axis=1) * det)[:, None, None]

    b = grads @ verts.transpose(0, 2, 1)         # X . grad lam = B lam
    d_loc = -b @ m_loc @ b.transpose(0, 2, 1)
    return m_loc, k_loc, d_loc


def _summed_values(mesh: TetMesh, order: np.ndarray, node_to_dof: np.ndarray,
                   slot_of: sp.csr_array) -> list:
    """Mass, stiffness, radial and wave values on the lower pattern, one array
    each, summed over the tets mesh.tets[order].  `slot_of` is the pattern with
    each entry's slot number as its value."""
    vals = [np.zeros(slot_of.nnz) for _ in range(3)]
    for blk in tet_blocks(len(order)):
        # entry (a, b) of tet t goes to (dof[t, a], dof[t, b]); those on or
        # below the diagonal are added, in (t, a, b) order
        tets = mesh.tets[order[blk]]
        d = node_to_dof[tets]
        lower = d[:, :, None] >= d[:, None, :]
        slots = slot_of[np.broadcast_to(d[:, :, None], lower.shape)[lower],
                        np.broadcast_to(d[:, None, :], lower.shape)[lower]]
        for val, loc in zip(vals, element_matrices(mesh.vertices[tets])):
            np.add.at(val, slots, loc[lower])
    vals.append(vals[1] + vals[2])
    return vals


def _canonical_order(tets: np.ndarray, nv: int) -> np.ndarray:
    """The stable permutation that sorts `tets` by their sorted vertex ids
    (a, b, c, d), all below nv: `np.lexsort` on the two int64 keys a nv + b
    and c nv + d, which order as the four columns do."""
    srt = np.sort(tets, axis=1).astype(np.int64, copy=False)
    hi = srt[:, 0] * nv
    hi += srt[:, 1]
    lo = srt[:, 2] * nv
    lo += srt[:, 3]
    # dropped before lexsort allocates the order: held through it, the sorted
    # rows cost about 3 MB more peak RSS at n = L = 12, from where the
    # allocator put the order
    del srt
    return np.lexsort((lo, hi))


def assemble(mesh: TetMesh, dof_map: DofMap) -> Operators:
    """Assemble mass, stiffness, radial and wave matrices on identified dofs.

    The tets are summed in a canonical order (by sorted vertex ids), so the
    round-off does not depend on the order of `mesh.tets`.
    """
    order = _canonical_order(mesh.tets, len(mesh.vertices))
    n = dof_map.n_dofs
    dof = dof_map.node_to_dof[mesh.tets].astype(np.int32)    # (T, 4)
    # the lower pattern tril(E^T E) of the tet-dof incidence E
    incidence = sp.csr_matrix((np.ones(dof.size, dtype=bool), dof.ravel(),
                               np.arange(0, dof.size + 1, 4)), shape=(len(dof), n))
    del dof
    pattern = sp.tril(incidence.T @ incidence, format="csr")
    del incidence
    pattern.sort_indices()
    cols = pattern.indices
    slot_of = sp.csr_array((np.arange(len(cols), dtype=cols.dtype), cols, pattern.indptr),
                           shape=(n, n))
    del pattern
    vals = _summed_values(mesh, order, dof_map.node_to_dof, slot_of)
    del order
    # made after the summation: made before it, the rows cost about 3 MB more
    # peak RSS at n = L = 12, from where the allocator put them
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(slot_of.indptr))
    del slot_of
    return Operators(*SparseSymMatrix.from_triplets(n, rows, cols, vals))


def estimate_spectral_bound(mass: SparseSymMatrix, wave: SparseSymMatrix,
                            tol: float = 1e-4,
                            info: dict | None = None) -> tuple[float, float]:
    """Largest generalized eigenvalue of (wave, mass) by preconditioned LOBPCG.

    Returns (lambda_max, dt_max) with dt_max = 2 / sqrt(lambda_max), the
    stability limit of the explicit scheme.  Block-size-1 LOBPCG (Knyazev
    2001, SIAM J. Sci. Comput. 23) keeps an iterate x, the preconditioned
    residual w = D^-1 (wave x - lambda mass x), D the mass diagonal, and the
    last step p.  Each iteration makes one wave and one mass product, of w;
    those of the new x and p are combinations of the held ones.  A
    Rayleigh-Ritz step on span{x, w, p}, one 3 x 3 generalized eigenproblem,
    gives the next x.  Its Rayleigh quotient lambda, the Ritz value, never
    decreases and is a lower bound on lambda_max.  If the mass Gram matrix
    of {x, w, p} is not positive definite, p is dropped for that step
    (Hetmaniuk & Lehoucq 2006, J. Comput. Phys. 218).  No mass solve is
    made: the Jacobi-scaled P1 mass has its spectrum in [1/2, 5/2] (Wathen
    1987), so D^-1 stands in for its inverse.  The iteration stops once lambda changes by at most `tol`
    relative, or at a zero residual, where x is an eigenvector; a largest
    eigenvalue that is not positive raises `NoConvergence`.  The start
    vector is seeded, so the estimate is reproducible.  If `info` is a dict
    it receives the number of iterations k under "iterations" (the bound
    made k + 1 wave and k + 1 mass products) and the final relative change
    of lambda under "relative_change".
    """
    # state[i] holds a vector and its wave and mass products, for i = x, w, p
    state = np.zeros((3, 3, mass.n))
    x, w, p = state
    x[0] = np.random.default_rng(0).standard_normal(mass.n)
    wave.matvec(x[0], x[1])
    mass.matvec(x[0], x[2])
    inv_diag = 1.0 / mass.diagonal()
    lam = 0.0
    k = 0
    while True:
        # the Rayleigh quotient of x, its Ritz value; x is then mass-normalised
        x_mass_x = float(x[0] @ x[2])
        ritz = float(x[0] @ x[1]) / x_mass_x
        x /= math.sqrt(x_mass_x)
        change = abs(ritz - lam) / abs(ritz) if ritz else math.inf
        lam = ritz
        if lam > 0 and change <= tol:
            break
        np.multiply(x[2], -lam, out=w[0])
        w[0] += x[1]
        if not w[0].any():
            change = 0.0
            break
        k += 1
        if k > BOUND_MAX_ITER:
            raise NoConvergence(f"LOBPCG did not settle in {BOUND_MAX_ITER} iterations")
        w[0] *= inv_diag
        wave.matvec(w[0], w[1])
        mass.matvec(w[0], w[2])
        w /= math.sqrt(w[0] @ w[2])
        try:
            c = _top_ritz_vector(state if k > 1 else state[:2])
        except np.linalg.LinAlgError:
            c = _top_ritz_vector(state[:2])
        # p <- c_w w + c_p p (c_p = 0 without p), then x <- c_x x + p
        w *= c[1]
        p *= c[2] if len(c) == 3 else 0.0
        p += w
        x *= c[0]
        x += p
        p_mass_p = float(p[0] @ p[2])
        if p_mass_p > 0:
            p /= math.sqrt(p_mass_p)
    if lam <= 0:
        raise NoConvergence(f"the largest eigenvalue {lam:.6e} of the pencil is not positive")
    if info is not None:
        info["iterations"] = k
        info["relative_change"] = change
    return lam, 2.0 / np.sqrt(lam)


def _top_ritz_vector(basis: np.ndarray) -> np.ndarray:
    """Coefficients of the Ritz vector of (wave, mass) with the largest Ritz
    value on the span of the m <= 3 vectors basis[:, 0], from their wave and
    mass products basis[:, 1] and basis[:, 2].

    With L the Cholesky factor of the mass Gram matrix, the pencil of the
    Gram matrices has the eigenvalues of A = L^-1 G L^-T, G the wave Gram
    matrix, which cyclic Jacobi rotations find to round-off.  It is done by
    hand because the first LAPACK call of a process maps about 1.5 MB of
    library code, which would raise the peak resident set of a run.  Raises
    `LinAlgError` if the mass Gram matrix is not positive definite.
    """
    vecs = basis[:, 0]
    gram_wave = vecs @ basis[:, 1].T
    gram_mass = vecs @ basis[:, 2].T
    m = len(vecs)
    chol = np.zeros((m, m))
    for j in range(m):
        pivot = gram_mass[j, j] - chol[j, :j] @ chol[j, :j]
        if not pivot > 0:
            raise np.linalg.LinAlgError("the mass Gram matrix is not positive definite")
        chol[j, j] = math.sqrt(pivot)
        chol[j + 1:, j] = (gram_mass[j + 1:, j] - chol[j + 1:, :j] @ chol[j, :j]) / chol[j, j]
    inv = np.eye(m)                              # L^-1, by forward substitution
    for j in range(m):
        inv[j] = (inv[j] - chol[j, :j] @ inv[:j]) / chol[j, j]
    a = inv @ gram_wave @ inv.T
    a += a.T
    a /= 2.0
    coef = inv.T                                 # columns: L^-T times the eigenvectors
    small = JACOBI_TOL * np.abs(a).max()
    for _ in range(JACOBI_MAX_SWEEPS):
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if abs(a[i, j]) > small]
        if not pairs:
            break
        for i, j in pairs:
            # the rotation in the (i, j) plane that zeroes a[i, j]
            theta = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            rot = np.eye(m)
            rot[i, i] = rot[j, j] = 1.0 / math.hypot(t, 1.0)
            rot[i, j] = t * rot[i, i]
            rot[j, i] = -rot[i, j]
            a = rot.T @ a @ rot
            coef = coef @ rot
    return coef[:, np.argmax(np.diagonal(a))]
